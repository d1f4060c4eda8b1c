"""Known defects of polyws that the workloads keep out of their inputs.

The benchmark measures speed on inputs the program handles; its workloads
must not fail on any seed.  Each case below makes the program fail, so the
workloads avoid its input class: large polygons are held to general position
(workloads.general_polygon), and the small workload roots its SPT jobs at
vertex 1 only.  This module reproduces each failure on one input instead:

    python3 perfbench/run.py --known-defects

prints one line per case and exits 1 while any case still reproduces.  A case
is fixed when the program returns an output the checks accept, or refuses the
input cleanly with PolygonInputError.
"""
from __future__ import annotations

from typing import List, NamedTuple, Optional

from polyws import cli, oracle
from polyws.errors import PolygonInputError
from polyws.workspace import MeterMode

import check
import workloads


class Case(NamedTuple):
    what: str
    kind: str
    n: int
    gen_seed: int
    s: int
    root: workloads.Root
    mode: Optional[MeterMode]


PERM = MeterMode.PERMISSIVE
CASES: List[Case] = [
    Case("interior root on the line through vertices 163 and 164: spt raises",
         "comb", 320, 1008, 16, (160, -8868), PERM),
    Case("interior root on the line through vertices 19 and 50: wrong tree",
         "comb", 200, 3007, 16, (124, -3323), PERM),
    Case("interior root on the line through vertices 167 and 168: wrong tree",
         "comb", 200, 11007, 16, (164, -4326), PERM),
    Case("interior root (161, 10758), on no line through two vertices: "
         "spt raises", "comb", 320, 61008, 16, (161, 10758), PERM),
    Case("vertex root 161 = 1 + n/2: spt raises",
         "monotone", 320, 13005, 16, 161, PERM),
    Case("vertices 3887, 3902, 3999 collinear: load_polygon accepts the "
         "polygon (n > 2048) and spt returns a wrong tree",
         "comb", 4000, 1000, 96, 1, None),
]


def reproduce(case: Case, out_dir) -> Optional[str]:
    """The failure, or None when the case no longer reproduces."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"defect-{case.kind}-{case.n}-{case.gen_seed}.poly"
    cli.save_polygon(oracle.generate(case.kind, case.n, case.gen_seed),
                     str(path))
    job = workloads.Job("spt", "spt", path.stem, case.s, case.root, case.mode)
    try:
        poly = cli.load_polygon(str(path))
        res = workloads.run_job(job, poly)
    except PolygonInputError:
        return None
    except Exception as exc:  # the defect itself
        return f"{type(exc).__name__}: {exc}"
    errs, _ = check.back(job, poly, res.output)
    return "; ".join(errs[:2]) or None


def report(out_dir) -> int:
    open_cases = 0
    for case in CASES:
        failure = reproduce(case, out_dir)
        open_cases += failure is not None
        state = f"REPRODUCES ({failure})" if failure else "fixed"
        print(f"{case.kind} n={case.n} gen_seed={case.gen_seed} s={case.s} "
              f"root={case.root}: {case.what}: {state}")
    print(f"{open_cases} of {len(CASES)} known defects reproduce")
    return 1 if open_cases else 0
