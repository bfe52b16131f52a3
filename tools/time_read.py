"""Time ``graph.read_graph`` per call on the seed-1 ``diameter-sweep``
inputs and three others.

The ``diameter-sweep`` inputs are rebuilt from ``bench/workloads.py`` (its
files are only imported, never changed) into a temporary directory. Beside
them go an edge list of the path on 65,536 vertices and the graph6 text of a
seeded G(2000, 1/2) graph. Each of 7 rounds reads every input once, in turn,
and the script prints, as one JSON line, the median read time per input. It
times the ``reconfig`` package on the import path, so two checkouts can be
timed one after the other:

    PYTHONPATH=src python3 tools/time_read.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/time_read.py
"""

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reconfig import graph as G

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEED = 1
REPEATS = 7
PATH_N = 65536
GRAPH6_N = 2000


def graph6_text(n: int, rng: np.random.Generator) -> str:
    """graph6 text, with the 4-byte size field, of a G(n, 1/2) graph."""
    # bit i, six to a character and high bit first, is the pair (u, v), u < v,
    # in column order
    bits = rng.integers(0, 2, n * (n - 1) // 2, dtype=np.uint8)
    bits = np.concatenate((bits, np.zeros(-len(bits) % 6, dtype=np.uint8)))
    chars = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63
    size = [126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)]
    return bytes(size + chars.tolist()).decode("ascii")


def main() -> None:
    out = {"src": str(Path(G.__file__).parents[1]), "seed": SEED, "repeats": REPEATS, "inputs": []}
    with tempfile.TemporaryDirectory() as workdir:
        jobs, _ = workloads.build("diameter-sweep", SEED, workdir)
        inputs = [(job.name, job.argv[1], "edge-list") for job in jobs]
        path = os.path.join(workdir, f"path_n{PATH_N}.edges")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{PATH_N} {PATH_N - 1}\n")
            fh.writelines(f"{v} {v + 1}\n" for v in range(PATH_N - 1))
        inputs.append((f"path_n{PATH_N}", path, "edge-list"))
        path = os.path.join(workdir, f"gnp_n{GRAPH6_N}.g6")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(graph6_text(GRAPH6_N, np.random.default_rng(SEED)) + "\n")
        inputs.append((f"gnp_n{GRAPH6_N}_graph6", path, "graph6"))
        times = {name: [] for name, _, _ in inputs}
        edges = {}
        for name, path, fmt in inputs:  # warm-up
            edges[name] = G.read_graph(path, fmt).num_edges
        for _ in range(REPEATS):
            for name, path, fmt in inputs:
                t0 = time.perf_counter()
                G.read_graph(path, fmt)
                times[name].append(time.perf_counter() - t0)
        for name, path, fmt in inputs:
            out["inputs"].append({
                "input": name, "format": fmt, "bytes": os.path.getsize(path), "edges": edges[name],
                "read_ms_median": round(1000 * statistics.median(times[name]), 3),
            })
    out["numpy"] = np.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
