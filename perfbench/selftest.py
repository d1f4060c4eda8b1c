"""Tests of the benchmark itself, outside the repository's test suite. The
file name does not match pytest's test_*.py pattern, so discovery from the
repository root never runs it; name it to run it:

    python3 -m pytest perfbench/selftest.py -q

The smoke runs use every workload at tiny n; the checks tests pin the SPT
certificate to the oracle, the general-position guard on generated inputs and
the digest gate's three outcomes.
"""
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from polyws import geom, oracle  # noqa: E402
from polyws.workspace import SubpolygonView  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--smoke", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    proc, lines = smoke(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    # program failures are the benchmark's findings, not this test's concern
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] == (result["failed"] == 0)
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}")
                   for ln in lines), name
    assert any(ln.startswith("fail_rate = ") and
               ln.endswith(" failed/attempted") for ln in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_trace_reconciles_and_prints_every_layer_metric(workload):
    proc, lines = smoke(workload, 1)
    assert proc.returncode == 0, proc.stderr
    assert any(ln.startswith("# reconciled") for ln in lines)
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = smoke("small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in lines)


def interior_point(poly, rng):
    """An integer point strictly inside the polygon: off every edge and every
    vertex, accepted by geom.point_in_closed."""
    xs = [x for x, _ in poly.points()]
    ys = [y for _, y in poly.points()]
    whole = SubpolygonView.whole(poly)
    pts = poly.points()
    while True:
        p = (rng.randint(min(xs), max(xs)), rng.randint(min(ys), max(ys)))
        if not geom.point_in_closed(whole, p):
            continue
        if any(geom.on_closed_segment(p, pts[k], pts[(k + 1) % poly.n])
               for k in range(poly.n)):
            continue
        return p


def test_certificate_agrees_with_oracle():
    rng = random.Random(5)
    mutants = 0
    for kind in ("random", "comb", "spiral", "monotone"):
        poly = oracle.generate(kind, 50, 11)
        for root in (1 + rng.randrange(poly.n),
                     interior_point(poly, rng)):
            tree = sorted(oracle.ref_spt(poly, root))
            assert check.spt_certificate(poly, root, tree) == []
            for k in rng.sample(range(len(tree)), 6):
                parent, child = tree[k]
                other = 1 + (parent + rng.randrange(1, poly.n - 1)) % poly.n
                if other == child:
                    continue
                mutant = tree[:k] + [(other, child)] + tree[k + 1:]
                assert check.spt_certificate(poly, root, mutant), mutant
                mutants += 1
    assert mutants >= 30


def test_general_polygon_replaces_collinear_input():
    # oracle.generate's comb 4000 for this seed has a collinear triple
    poly = workloads.general_polygon("comb", 4000, 1000)
    assert oracle.check_simple(poly.points(), gp_limit=poly.n).ok
    assert poly.points() != oracle.generate("comb", 4000, 1000).points()


def test_gate_outcomes():
    poly = oracle.generate("comb", 60, 2)
    job = workloads.Job("tri/comb-60", "tri", "comb-60", 16)
    good = workloads.run_job(job, poly).output
    key = check.record_key(job, poly)

    gate = check.Gate({key: {"digest": check.digest(good)}})
    gate.check(job, poly, good)
    assert (gate.failed, gate.outputs_changed) == (0, 0)

    gate = check.Gate({key: {"digest": "0" * 64}})
    gate.check(job, poly, good)
    assert (gate.failed, gate.outputs_changed) == (0, 1)

    bad = {"diagonals": good["diagonals"][:-1]}
    gate = check.Gate({})
    gate.check(job, poly, bad)
    assert gate.failed == 1
