"""Time ``search._sweep`` per call on the exhaustive-search candidates.

For each (n, k, rule) cell the candidates of ``search._candidates(n)`` are
cut into chunks of ``search._CHUNK`` and every chunk is swept once; each of
5 repeats times the whole pass, and the script prints, as one JSON line,
the median and the spread of the repeats and the per-call median. It
times the ``reconfig`` package on the import path, so two checkouts can be
timed one after the other:

    PYTHONPATH=src python3 tools/time_sweep.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/time_sweep.py
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np

from reconfig import search as S

CELLS = [(7, 2, "tj"), (7, 3, "tj"), (7, 2, "ts"), (8, 2, "tj"), (8, 3, "ts"), (8, 4, "tj")]
REPEATS = 5


def main() -> None:
    out = {"src": str(Path(S.__file__).parents[1]), "chunk": S._CHUNK, "cells": []}
    for n, k, rule in CELLS:
        masks = S._candidates(n)
        tables = S._sweep_tables(n, k)
        chunks = [masks[lo : lo + S._CHUNK] for lo in range(0, len(masks), S._CHUNK)]
        S._sweep(chunks[0], tables, rule)  # warm-up
        passes = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for chunk in chunks:
                S._sweep(chunk, tables, rule)
            passes.append(time.perf_counter() - t0)
        med = statistics.median(passes)
        out["cells"].append({
            "n": n, "k": k, "rule": rule, "candidates": len(masks), "calls": len(chunks),
            "pass_s_median": round(med, 4),
            "pass_s_min": round(min(passes), 4), "pass_s_max": round(max(passes), 4),
            "per_call_ms_median": round(1000 * med / len(chunks), 3),
        })
    out["numpy"] = np.__version__
    print(json.dumps(out))


if __name__ == "__main__":
    main()
