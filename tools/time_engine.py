"""Time ``engine.enumerate_components`` and ``engine.component_diameter``
per call on the seed-1 ``diameter-sweep`` inputs.

The inputs are rebuilt from ``bench/workloads.py`` (its files are only
imported, never changed) into a temporary directory and read back with
``graph.read_graph``. For each job, each of 7 repeats times one
``enumerate_components`` call, and then the ``component_diameter`` calls
on all of its components together; the script prints, as one JSON line,
the medians per job. It times the ``reconfig`` package on the import path,
so two checkouts can be timed one after the other:

    PYTHONPATH=src python3 tools/time_engine.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/time_engine.py
"""

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reconfig import engine as E
from reconfig.graph import read_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

SEED = 1
REPEATS = 7


def main() -> None:
    out = {"src": str(Path(E.__file__).parents[1]), "seed": SEED, "jobs": []}
    with tempfile.TemporaryDirectory() as workdir:
        jobs, _ = workloads.build("diameter-sweep", SEED, workdir)
        inputs = []
        for job in jobs:
            _, path, _, k, _, rule = job.argv
            inputs.append((job.name, read_graph(path), int(k), rule))
    for name, g, k, rule in inputs:
        E.max_component_diameter(g, k, rule)  # warm-up
        explore, diameter = [], []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            comps = E.enumerate_components(g, k, rule)
            t1 = time.perf_counter()
            for comp in comps:
                E.component_diameter(comp)
            diameter.append(time.perf_counter() - t1)
            explore.append(t1 - t0)
        out["jobs"].append({
            "job": name, "n": g.n, "k": k, "rule": rule,
            "components": len(comps), "nodes": sum(c.size for c in comps),
            "enumerate_ms_median": round(1000 * statistics.median(explore), 3),
            "diameter_ms_median": round(1000 * statistics.median(diameter), 3),
        })
    out["numpy"] = np.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
