"""Time the row check of ``Graph(n, rows)`` and ``graph.write_edge_list``
per call, the builders per call, and a whole ``construct k3 --budget 3200``
process.

The inputs are ``build_k3_extremal`` at budgets 190, 800, 1,600 and 3,200 and
``circulant_ap_graph(409, (1, 5, 13))``. Each of 5 rounds checks the rows of
every input once and writes it once, in turn, then calls
``build_k3_extremal`` at the four budgets and ``triple_extend`` on the
complement of P_4 at the ring primes 73, 107 and 131, once each. The script
prints, as one JSON line, the median time of each per input and per
builder call, and the median wall time of 3 fresh
``construct k3 --budget 3200`` processes. It times the ``reconfig``
package on the import path, so two checkouts can be timed one after the
other:

    PYTHONPATH=src python3 tools/time_graph.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/time_graph.py
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reconfig import constructions as C
from reconfig.graph import Graph, write_edge_list

REPEATS = 5
K3_BUDGETS = (190, 800, 1600, 3200)
CIRCULANT = (409, (1, 5, 13))
RING_PRIMES = (73, 107, 131)
CLI_BUDGET = 3200
CLI_REPEATS = 3


def main() -> None:
    src = Path(C.__file__).parents[1]
    out = {"src": str(src), "repeats": REPEATS, "inputs": []}
    inputs = [(f"k3_budget{b}", C.build_k3_extremal(b)[0]) for b in K3_BUDGETS]
    p, elems = CIRCULANT
    inputs.append((f"circulant_p{p}", C.circulant_ap_graph(p, elems)[0]))
    host, host_rep = C.complement_path(4)
    builders = {f"build_k3_extremal({b})": lambda b=b: C.build_k3_extremal(b)
                for b in K3_BUDGETS}
    for p in RING_PRIMES:
        builders[f"triple_extend(p={p})"] = (
            lambda p=p: C.triple_extend(host, 2, host_rep.start, host_rep.target, p))
    checks = {name: [] for name, _ in inputs}
    writes = {name: [] for name, _ in inputs}
    builds = {name: [] for name in builders}
    for _ in range(REPEATS):
        for name, g in inputs:
            rows = list(g.adj)
            t0 = time.perf_counter()
            Graph(g.n, rows)
            checks[name].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            write_edge_list(g)
            writes[name].append(time.perf_counter() - t0)
        for name, build in builders.items():
            t0 = time.perf_counter()
            build()
            builds[name].append(time.perf_counter() - t0)
    for name, g in inputs:
        out["inputs"].append({
            "input": name, "n": g.n, "edges": g.num_edges,
            "check_ms_median": round(1000 * statistics.median(checks[name]), 3),
            "write_ms_median": round(1000 * statistics.median(writes[name]), 3),
        })
    out["builders"] = [{"call": name, "ms_median": round(1000 * statistics.median(t), 3)}
                       for name, t in builds.items()]
    env = dict(os.environ, PYTHONPATH=str(src))
    walls = []
    with tempfile.TemporaryDirectory() as workdir:
        argv = [sys.executable, "-m", "reconfig.cli", "construct", "k3", "--budget", str(CLI_BUDGET),
                "--out", os.path.join(workdir, "k3")]
        for _ in range(CLI_REPEATS):
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
            walls.append(time.perf_counter() - t0)
    out[f"construct_k3_budget{CLI_BUDGET}_s_median"] = round(statistics.median(walls), 3)
    out["cli_repeats"] = CLI_REPEATS
    out["numpy"] = np.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
