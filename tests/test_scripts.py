"""The scripts/ benchmarks: each worker runs one case in a fresh process and
returns the rows its script writes, and the shared harness alternates the
sides, takes the medians of the times and holds one equality rule against
the parent."""
import importlib
import sys
from pathlib import Path

import pytest

from polyws import geodesic, oracle
from polyws.workspace import MeterMode

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_const_ws  # noqa: E402
import harness  # noqa: E402


def _worker(script, *args):
    return harness.finish(harness.start(ROOT / "scripts" / script,
                                        ROOT / "src", *args))


def test_virtual_worker_row():
    row = _worker("bench_virtual.py", "spiral-500-g1")
    assert set(row) == {"s", "mode", "wall_s", "links", "ms_per_link",
                        "scans", "rounds", "peak_words", "level_peaks",
                        "edges_sha"}
    assert list(row["links"]) == list(row["ms_per_link"]) == \
        list(harness.VIEW_KINDS)
    # this spiral's constant-workspace passes hold two-virtual views
    assert row["links"]["multi_rational"] > 0


def test_const_ws_worker_rows():
    runs = _worker("bench_const_ws.py", "tenth/comb-1000")
    assert [r["run"] for r in runs] == ["tenth", "full"]
    for r in runs:
        assert set(r) == {"run", "s", "wall_s", "calls", "vertices",
                          "rounds", "scans", "ms_per_vertex", "hits",
                          "edges_sha", "peak_words", "level_peaks"}
        assert list(r["hits"]) == list(bench_const_ws.SOURCES)
        assert sum(r["hits"].values()) == r["vertices"]
    # s = ceil(n/10) hands the whole polygon to one pass, s = n to the funnel
    assert (runs[0]["calls"], runs[0]["vertices"]) == (1, 999)
    assert (runs[1]["calls"], runs[1]["vertices"]) == (0, 0)
    assert set(bench_const_ws.summary(runs)) == {
        "calls", "vertices", "rounds", "scans", "hits", "ms_per_vertex",
        "ratio"}


def test_tradeoff_worker_rows():
    runs = _worker("bench_tradeoff.py", "spiral", 2000)
    assert [(r["job"], r["budget"]) for r in runs] == [
        (job, b) for job in ("tri", "spt")
        for b in ("floor", "4floor", "tenth", "n")]
    for r in runs:
        assert set(r) == {"job", "budget", "s", "wall_s", "links", "rounds",
                          "scans", "peak_words", "level_peaks", "digest"}


def test_rep_loop_alternates_the_first_side():
    calls = []
    out = harness.rep_loop({"parent": "P", "change": "C"}, 4,
                           lambda src: calls.append(src) or src)
    assert calls == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert out == {"parent": ["P"] * 4, "change": ["C"] * 4}


ROW = {"run": "a", "wall_s": 1.0, "links": 5, "rounds": 9, "scans": 2,
       "peak_words": 100, "level_peaks": [100, 40], "digest": "ab",
       "edges_sha": "cd"}


def test_medians_of_the_times_only():
    reps = [[dict(ROW, wall_s=w, rounds=r,
                  ms_per_link={"integer": w, "one_rational": None})]
            for w, r in ((3.0, 1), (1.0, 2), (2.0, 3))]
    (row,) = harness.medians(reps)
    assert row["wall_s"] == 2.0
    assert row["ms_per_link"] == {"integer": 2.0, "one_rational": None}
    assert row["rounds"] == 1


def test_rounds_and_scans_alone_may_differ():
    other = dict(ROW, rounds=1, scans=0, wall_s=3.0)
    harness.check_equal(ROW, other, "case")
    harness.check_equal([ROW, ROW], [other, ROW], "case")


@pytest.mark.parametrize("key, value", [
    ("digest", "xx"), ("edges_sha", "xx"), ("links", 6),
    ("peak_words", 101), ("level_peaks", [100, 41])])
def test_outputs_links_and_peaks_must_equal(key, value):
    with pytest.raises(AssertionError, match=f"case: {key} differs"):
        harness.check_equal(ROW, dict(ROW, **{key: value}), "case")
    with pytest.raises(AssertionError, match=f"case run a: {key} differs"):
        harness.check_equal([ROW], [dict(ROW, **{key: value})], "case")


def test_link_log_records_every_link_and_restores_the_bindings():
    spt_mod = importlib.import_module("polyws.spt")
    bindings = (geodesic.first_link, spt_mod.first_link,
                spt_mod.spt_constant_workspace)
    poly = oracle.generate("comb", 200, 1)
    with harness.link_log() as log:
        _, _, stats = spt_mod.spt(poly, 1, 16, mode=MeterMode.PERMISSIVE)
    assert (geodesic.first_link, spt_mod.first_link,
            spt_mod.spt_constant_workspace) == bindings
    callers = {r["caller"] for r in log}
    assert callers == {"cursor", "pass"}
    assert sum(r["caller"] == "cursor" for r in log) == stats.links
    assert sum(r["rounds"] for r in log) == stats.rounds
    assert sum(r["scans"] for r in log) == stats.scans
    passes = [r["pass"] for r in log if r["caller"] == "pass"]
    assert passes == sorted(passes) and passes[0] == 1


def test_tracer_wraps_and_restores_every_library_name(monkeypatch):
    # perfbench's traced run patches library names by attribute; a renamed
    # one would break only `perfbench/run.py --trace 1`, so install() must
    # find and wrap every name it patches and uninstall() put each back
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    tracer = layers.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        assert patched
        for owner, attr, orig in patched:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, (owner, attr)
    names = {(getattr(o, "__name__", o), a) for o, a, _ in patched}
    assert {("polyws.spt", "ear_clip"), ("polyws.spt", "funnel_parents"),
            ("polyws.triangulate", "ear_clip"),
            ("polyws.geodesic", "first_link")} <= names
