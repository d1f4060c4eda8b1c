"""Times cli.load_polygon with the O(n log n) input check against the same
load with the quadratic reference check it replaced, and writes
BENCH_validate.json at the repository root.

    PYTHONPATH=src python3 scripts/bench_validate.py

Inputs are oracle.generate's comb, the comb turned by 90 and by 45 degrees
(the sweep line then crosses a constant fraction of the edges), and the
spiral, at n = 2000, 4000, 6000 and 20000, all from seed 1.  The new check
is timed as the median of three loads, the reference as one; both checks
must give the same verdict.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from polyws import cli, oracle                      # noqa: E402
from polyws.errors import PolygonInputError         # noqa: E402
from test_oracle import _check_simple_reference, _turned   # noqa: E402
from harness import write_json                      # noqa: E402

SEED = 1
SIZES = (2000, 4000, 6000, 20000)
KINDS = ("comb", "comb-90", "comb-45", "spiral")


def ring(kind: str, n: int):
    pts = oracle.generate(kind.split("-")[0], n, SEED).points()
    if kind.endswith("-90"):
        pts = _turned(pts, True)
    elif kind.endswith("-45"):
        pts = _turned(pts, False)
    return pts


def load(path: str):
    """Seconds for one cli.load_polygon, and whether it accepted."""
    t0 = time.perf_counter()
    try:
        cli.load_polygon(path)
        ok = True
    except PolygonInputError:
        ok = False
    return time.perf_counter() - t0, ok


def main() -> int:
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            for kind in KINDS:
                pts = ring(kind, n)
                path = os.path.join(tmp, f"{kind}-{n}.poly")
                with open(path, "w") as fh:
                    fh.write(f"{n}\n")
                    fh.writelines(f"{x} {y}\n" for x, y in pts)
                runs = [load(path) for _ in range(3)]
                new_s = statistics.median(t for t, _ok in runs)
                new_ok = runs[0][1]
                check_simple = oracle.check_simple
                oracle.check_simple = _check_simple_reference
                try:
                    old_s, old_ok = load(path)
                finally:
                    oracle.check_simple = check_simple
                row = {"kind": kind, "n": n, "seed": SEED, "input": "generate",
                       "accepted": new_ok, "reference_accepted": old_ok,
                       "load_s": round(new_s, 4),
                       "reference_load_s": round(old_s, 4),
                       "speedup": round(old_s / new_s, 1)}
                print(json.dumps(row), flush=True)
                if new_ok != old_ok:
                    print("verdicts differ", file=sys.stderr)
                    return 1
                rows.append(row)
    write_json("BENCH_validate.json",
               "cli.load_polygon seconds: the sweep check against the "
               "quadratic reference check (tests/test_oracle.py)", rows=rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
