"""Time ``search._sweep`` on the exhaustive-search candidates.

For each (n, k, rule) cell one ``_sweep`` call takes every candidate of
``search._candidates(n)``, in the chunks that ``search._SWEEP_BYTES`` sets;
each of 5 repeats times that pass, and the script prints, as one JSON line,
the byte budget and, per cell, the median and the spread of the repeats.
Per n it also gives the number of candidates and the time of the first,
cold ``_candidates(n)`` call in the process, which builds the class lists
of the smaller sizes on the way and which the per-pass medians leave out;
the n are taken in the order of the cells.
The cells are those of ``test_exhaustive_n8`` and the three n = 7 cells of
the benchmark. It times the ``reconfig`` package on the import path, so
two checkouts can be timed one after the other:

    PYTHONPATH=src python3 tools/time_sweep.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/time_sweep.py
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np

from reconfig import search as S

CELLS = [
    (7, 2, "tj"), (7, 3, "tj"), (7, 2, "ts"),
    (8, 2, "tj"), (8, 2, "ts"), (8, 3, "tj"), (8, 3, "ts"), (8, 4, "tj"),
]
REPEATS = 5


def main() -> None:
    out = {"src": str(Path(S.__file__).parents[1]), "sweep_bytes": S._SWEEP_BYTES}
    out["candidates"] = {}
    for n in dict.fromkeys(n for n, _, _ in CELLS):
        t0 = time.perf_counter()
        masks = S._candidates(n)
        out["candidates"][n] = {
            "count": len(masks), "cold_s": round(time.perf_counter() - t0, 4),
        }
    out["cells"] = []
    for n, k, rule in CELLS:
        masks = S._candidates(n)
        tables = S._sweep_tables(n, k)
        S._sweep(masks[:64], tables, rule)  # warm-up
        passes = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            S._sweep(masks, tables, rule)
            passes.append(time.perf_counter() - t0)
        out["cells"].append({
            "n": n, "k": k, "rule": rule, "candidates": len(masks),
            "pass_s_median": round(statistics.median(passes), 4),
            "pass_s_min": round(min(passes), 4), "pass_s_max": round(max(passes), 4),
        })
    out["numpy"] = np.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
