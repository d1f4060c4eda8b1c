"""polyws benchmark: three workloads run through the public API, one job at a
time in one process (a closed loop with a single client).

    python3 perfbench/run.py --workload walk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload small --smoke --seconds 0 --trace 1
    python3 perfbench/run.py --ladder --seed 1
    python3 perfbench/run.py --record --workload inmem --seed 1
    python3 perfbench/run.py --known-defects

The seed generates the .poly inputs (oracle.generate, saved under
.perfbench_out/); the program only sees those files, read back with
cli.load_polygon.  A run loads them SETUP_REPS times (setup_s is the median),
then runs passes over all jobs, at least one, and another only while it should
end within --seconds; each job's time is its median over the passes.  Every
output is checked (see check.py).

Times are reported at reference host speed: every timed call (one job, or
one full set-up) is divided by the host slowness around it, the median of the
calibrate() samples (a fixed loop that never calls polyws) taken just before
and just after it.  On a shared host the raw time of one job varies by 15-26%
(quartile spread) within a minute and calibrate() follows that variation, so
the scaled times are what stays comparable between runs; the raw values are
printed as "# raw" lines and kept in the result file.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass and
one traced pass and prints the per-layer metrics (layers.py), writing the spans
to .perfbench_out/trace-<workload>-<seed>.jsonl.  The last line of standard
output is always one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

E2E_UNITS = {
    "tri_vps": "vertices/s", "spt_vps": "vertices/s", "part_vps": "vertices/s",
    "wall_s": "s", "setup_s": "s", "peak_words": "words",
    "budget_frac": "ratio", "rss_mb": "MB",
}
SETUP_REPS = 5
CAL_REF_S = 0.0095  # calibrate() on the 2-core Xeon host the bounds come from
LADDER_N = 8000
LADDER_S = (104, 256, 512, 800)


def import_polyws():
    """Import polyws from this checkout's src/ and nowhere else."""
    if not (SRC / "polyws" / "__init__.py").is_file():
        sys.exit(f"perfbench: no polyws sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyws
    if Path(polyws.__file__).resolve().parent != SRC / "polyws":
        sys.exit(f"perfbench: polyws imported from {polyws.__file__}")


def machine_record(seed, gen_s):
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed, "gen_s": gen_s}


def git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown'
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for ln in (git / "packed-refs").read_text().splitlines():
            if ln.endswith(" " + ref):
                return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate(samples=3) -> list:
    """The host's momentary slowness, `samples` times: the time of a fixed
    mix of interpreter and numpy int64 work, as a multiple of CAL_REF_S.  The
    mix never calls polyws, so no change to the program can move it."""
    slowness = []
    for _ in range(samples):
        t0 = time.perf_counter()
        acc = 0
        for k in range(60000):
            acc += (k * 7) % 13
        # 64 KB arrays stay below malloc's mmap threshold, so the time does
        # not depend on what the allocator did for the job before
        a = numpy.arange(8000, dtype=numpy.int64)
        for _ in range(150):
            acc += int(numpy.count_nonzero((a * 3 - 7) * (a + 1) > 5))
        slowness.append((time.perf_counter() - t0) / CAL_REF_S)
    return slowness


def run_pass(wl, polys, gate, on_job=None):
    """All jobs once, sampling the host's slowness between jobs; returns
    (job, result, slowness around the job) for every job that returned.
    Outputs are checked after the pass, so checking never overlaps a timed
    call."""
    done = []
    after = calibrate()
    for job in wl.jobs:
        gate.attempted += 1
        if on_job is not None:
            on_job(job.name)
        before = after
        try:
            res = workloads.run_job(job, polys[job.poly])
        except Exception as exc:  # a job that raises counts as failed
            res = None
            gate.fail(job, f"{type(exc).__name__}: {exc}")
        if on_job is not None:
            on_job(None)
        after = calibrate()
        if res is not None:
            done.append((job, res, statistics.median(before + after)))
    return done


def check_pass(done, polys, gate):
    for job, res, _slow in done:
        gate.check(job, polys[job.poly], res.output)


def e2e_metrics(runs, walls):
    """End-to-end metrics from each job's median time over the passes; a
    rejected output still did its work, so it stays in the timing (and counts
    in fail_rate)."""
    n = {"tri": 0, "spt": 0, "part": 0}
    wall = {"tri": 0.0, "spt": 0.0, "part": 0.0}
    for name, (job, r) in runs.items():
        n[job.op] += r.n
        wall[job.op] += statistics.median(walls[name])
    vps = {op: n[op] / wall[op] if wall[op] else 0.0 for op in n}
    return {
        "tri_vps": vps["tri"], "spt_vps": vps["spt"], "part_vps": vps["part"],
        "wall_s": sum(wall.values()),
        "peak_words": sum(r.peak_words for _j, r in runs.values()),
        "budget_frac": max((r.peak_words / r.budget_words
                            for _j, r in runs.values()), default=0.0),
    }


def setup(paths, reps):
    """Load and validate every input `reps` times; returns the polygons and
    the median time of one full load, raw and scaled by the host slowness
    around each load."""
    from polyws import cli
    times, scaled = [], []
    after = calibrate()
    for _ in range(reps):
        before = after
        t0 = time.perf_counter()
        polys = {name: cli.load_polygon(p) for name, p in paths.items()}
        times.append(time.perf_counter() - t0)
        after = calibrate()
        scaled.append(times[-1] / statistics.median(before + after))
    return polys, statistics.median(times), statistics.median(scaled)


def emit(gate, metrics, extra_lines):
    for line in extra_lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))


def run_tag(args) -> str:
    return f"{'smoke-' if args.smoke else ''}{args.workload}-{args.seed}"


def run_workload(args) -> int:
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    t0 = time.perf_counter()
    paths = workloads.generate(wl, OUT / run_tag(args))
    gen_s = time.perf_counter() - t0
    gate = check.Gate(check.load_records())
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            polys, setup_s, setup_scaled = setup(paths, 1)
        finally:
            tracer.uninstall()
    else:
        polys, setup_s, setup_scaled = setup(paths, SETUP_REPS)
    workloads.attach_jobs(wl, polys)

    walls = {job.name: [] for job in wl.jobs}
    scaled = {job.name: [] for job in wl.jobs}
    slowness = []
    runs = {}               # job name -> (job, result) of its latest pass
    passes = 0
    start = time.perf_counter()
    rss_mb = None
    while True:
        t_pass = time.perf_counter()
        done = run_pass(wl, polys, gate)
        pass_s = time.perf_counter() - t_pass
        if rss_mb is None:
            # the process peak before any output check allocates
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_pass(done, polys, gate)
        for job, r, slow in done:
            walls[job.name].append(r.wall)
            scaled[job.name].append(r.wall / slow)
            slowness.append(slow)
            runs[job.name] = (job, r)
        passes += 1
        # another pass only if it should still end within --seconds; its
        # outputs are checked against this pass's digests, which takes next
        # to no time, so the estimate leaves out this pass's checking
        if args.trace or time.perf_counter() - start + pass_s > args.seconds:
            break
    raw = e2e_metrics(runs, walls)
    rec = machine_record(args.seed, gen_s)
    rec["host_slowness"] = statistics.median(slowness)
    lines = [f"# workload {args.workload} seed {args.seed} "
             f"passes {passes} jobs/pass {len(wl.jobs)}",
             f"# machine {json.dumps(rec)}"]
    lines += [f"# raw {k} = {raw[k]!r} {E2E_UNITS[k]}"
              for k in ("tri_vps", "spt_vps", "part_vps", "wall_s")]
    lines.append(f"# raw setup_s = {setup_s!r} s")

    if args.trace:
        def on_job(name):
            tracer.job = name
        tracer.install()
        try:
            done = run_pass(wl, polys, gate, on_job)
        finally:
            tracer.uninstall()
        check_pass(done, polys, gate)
        results = {job.name: (job, r) for job, r, _slow in done}
        agg, per_job = tracer.totals()
        errs = layers.reconcile(per_job, results)
        traced_wall = sum(r.wall for _j, r, _slow in done)
        metrics = layers.layer_metrics(tracer, agg, results, traced_wall,
                                      raw["wall_s"])
        tracer.write_jsonl(OUT / f"trace-{run_tag(args)}.jsonl")
        if errs:
            for e in errs:
                print(f"reconcile: {e}", file=sys.stderr)
            return 1
        lines.append(f"# reconciled rounds/links/far_calls with RunStats on "
                     f"{len(results)} jobs")
    else:
        metrics = {k: (v, E2E_UNITS[k])
                   for k, v in e2e_metrics(runs, scaled).items()}
        metrics["setup_s"] = (setup_scaled, "s")
        metrics["rss_mb"] = (rss_mb, "MB")
        fail_rate = gate.failed / gate.attempted
        lines.append(f"fail_rate = {fail_rate!r} failed/attempted")
    lines.append(f"outputs_changed = {gate.outputs_changed} jobs")
    with open(OUT / f"result-{run_tag(args)}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"machine": rec,
                   "jobs": {name: {"raw_walls": walls[name],
                                   "peak_words": r.peak_words,
                                   "budget_words": r.budget_words}
                            for name, (_j, r) in runs.items()},
                   "fail_rate": gate.failed / gate.attempted,
                   "outputs_changed": gate.outputs_changed,
                   "metrics": metrics}, fh, indent=1)
    emit(gate, metrics, lines)
    return 0


def run_record(args) -> int:
    """Back every job of one seed with the thorough checks (including the
    expensive second SPT path and the SPT oracle on small inputs) and store
    the digests in digests.json."""
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    paths = workloads.generate(wl, OUT / run_tag(args))
    polys, _, _ = setup(paths, 1)
    workloads.attach_jobs(wl, polys)
    records = check.load_records()
    bad = 0
    for job in wl.jobs:
        poly = polys[job.poly]
        try:
            res = workloads.run_job(job, poly)
        except Exception as exc:  # nothing to record for a job that raises
            bad += 1
            print(f"RAISED {job.name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            continue
        errs, how = check.back(job, poly, res.output, thorough=True)
        key = check.record_key(job, poly)
        if errs:
            bad += 1
            print(f"REJECTED {job.name}: {errs[:3]}", file=sys.stderr)
            continue
        records[key] = {"digest": check.digest(res.output), "backed_by": how}
        print(f"recorded {job.name} ({how})")
    check.save_records(records)
    return 1 if bad else 0


def run_ladder(args) -> int:
    """Triangulate one comb at several budgets and fit time ~ (n^2/s)^b."""
    from polyws import oracle
    from polyws.triangulate import triangulate_polygon
    poly = oracle.generate("comb", LADDER_N, args.seed)
    rows = []
    print("s time_s links depth peak_words")
    for s in LADDER_S:
        t0 = time.perf_counter()
        _sink, meter, stats = triangulate_polygon(poly, s)
        dt = time.perf_counter() - t0
        rows.append({"s": s, "time_s": dt, "links": stats.links,
                     "depth": stats.depth, "peak_words": meter.peak_words})
        print(f"{s} {dt:.3f} {stats.links} {stats.depth} {meter.peak_words}")
    xs = [math.log(LADDER_N ** 2 / r["s"]) for r in rows]
    ys = [math.log(r["time_s"]) for r in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) \
        / sum((x - mx) ** 2 for x in xs)
    print(f"fitted exponent of time against n^2/s: {slope:.3f}")
    print(json.dumps({"n": LADDER_N, "rows": rows, "exponent": slope,
                      "machine": machine_record(args.seed, None)}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=tuple(workloads.SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs in every workload's regime")
    ap.add_argument("--ladder", action="store_true",
                    help="on-demand comb trade-off ladder (not a workload)")
    ap.add_argument("--known-defects", action="store_true",
                    help="reproduce the program defects that the workloads "
                         "keep out of their inputs (defects.py)")
    ap.add_argument("--record", action="store_true",
                    help="back this seed's outputs thoroughly and store "
                         "their digests in digests.json")
    args = ap.parse_args(argv)
    if not (args.ladder or args.known_defects or args.workload):
        ap.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    if args.known_defects:
        return defects.report(OUT / "defects")
    if args.ladder:
        return run_ladder(args)
    if args.record:
        return run_record(args)
    return run_workload(args)


if __name__ == "__main__":
    import_polyws()
    import check
    import defects
    import layers
    import workloads
    sys.exit(main())
