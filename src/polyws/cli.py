"""Command-line surface: generate / triangulate / spt / partition / verify /
bench, plus the polygon file format, CSV metrics, and SVG figure emission.

Exit codes: 0 ok, 1 invalid input or usage, 2 budget exceeded (strict), 3
internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from typing import List, Optional, Tuple

from . import oracle
from .errors import (BudgetExceededError, InternalInvariantError,
                     PolygonInputError, UsageError)
from .partition import partition, piece_vertex_lists
from .spt import spt
from .triangulate import (AdjacencySink, CollectingSink, required_budget,
                          triangulate_polygon)
from .workspace import BasePolygon, MeterMode


# ---------------------------------------------------------------------------
# polygon file format: line 1 n, then n lines "x y"; '#' comments ignored

def load_polygon(path: str) -> BasePolygon:
    try:
        with open(path) as fh:
            tokens: List[str] = []
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    tokens.append(line)
    except OSError as exc:
        raise PolygonInputError(f"cannot read {path}: {exc}")
    if not tokens:
        raise PolygonInputError(f"{path} is empty")
    try:
        n = int(tokens[0])
        pts = []
        for line in tokens[1:]:
            xs, ys = line.split()
            pts.append((int(xs), int(ys)))
    except ValueError as exc:
        raise PolygonInputError(f"{path}: {exc}")
    if len(pts) != n:
        raise PolygonInputError(f"{path}: expected {n} vertices, got {len(pts)}")
    poly = BasePolygon.clockwise(pts)
    rep = oracle.check_simple(poly.points())
    if not rep.ok:
        raise PolygonInputError(f"{path}: {rep.errors[0]}")
    return poly


@contextmanager
def _output(path: Optional[str]):
    """The file at `path`, opened for writing and closed on exit, or stdout
    (left open) when no path is given."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w") as fh:
        yield fh


def save_polygon(poly: BasePolygon, path: Optional[str]) -> None:
    """Write the polygon file to `path`, or to stdout when path is None."""
    with _output(path) as fh:
        fh.write(f"{poly.n}\n")
        for x, y in poly.points():
            fh.write(f"{x} {y}\n")


# ---------------------------------------------------------------------------
# SVG rendering: the polygon outline plus result segments, nothing interactive

def write_svg(path: str, poly: BasePolygon, segments, seg_color="crimson"):
    xs = [p[0] for p in poly.points()]
    ys = [p[1] for p in poly.points()]
    pad = max(2, (max(xs) - min(xs) + max(ys) - min(ys)) // 50)
    x0, y0 = min(xs) - pad, min(ys) - pad
    w = max(xs) - min(xs) + 2 * pad
    h = max(ys) - min(ys) + 2 * pad
    stroke = max(w, h) / 600.0

    def xy(p):
        """Figure coordinates of a vertex index or a point."""
        if isinstance(p, int):
            p = poly.vertex(p)
        return p[0] - x0, y0 + h - (p[1] - y0)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">']
    ring = " ".join(f"{x},{y}" for x, y in map(xy, poly.points()))
    lines.append(f'<polygon points="{ring}" fill="none" stroke="black" '
                 f'stroke-width="{stroke * 1.5}"/>')
    for (a, b) in segments:
        (ax, ay), (bx, by) = xy(a), xy(b)
        lines.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                     f'stroke="{seg_color}" stroke-width="{stroke}"/>')
    lines.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


# ---------------------------------------------------------------------------
# commands

def _metrics_line(name, poly, s, ms, meter, stats):
    print(f"{name}: n={poly.n} s={s} ms={ms:.1f} peak_words={meter.peak_words} "
          f"depth={stats.depth} links={stats.links} scans={stats.scans} "
          f"farcases={stats.far_calls}",
          file=sys.stderr)


def _mode(args) -> MeterMode:
    return MeterMode.STRICT if args.mode == "strict" else MeterMode.PERMISSIVE


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PolygonInputError(f"{what} must be an integer, not {text!r}")


def _root(text: str):
    """A --root value: a vertex index, or 'x,y' for a point of the polygon."""
    root = tuple(_int(c, "--root") for c in text.split(","))
    if len(root) > 2:
        raise PolygonInputError(f"--root wants a vertex or x,y: {text!r}")
    return root if len(root) == 2 else root[0]


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("POLYWS_SEED")
    return _int(env, "POLYWS_SEED") if env else 0


def cmd_generate(args) -> int:
    save_polygon(oracle.generate(args.kind, args.n, _seed(args)), args.out)
    return 0


def cmd_triangulate(args) -> int:
    poly = load_polygon(args.input)
    s = args.s if args.s is not None else required_budget(poly.n)
    t0 = time.perf_counter()
    if args.format == "triangles-adjacency":
        sink = AdjacencySink()
    else:
        sink = CollectingSink()
    sink, meter, stats = triangulate_polygon(
        poly, s, sink=sink, mode=_mode(args), seed=_seed(args))
    ms = (time.perf_counter() - t0) * 1000
    with _output(args.out) as out:
        if args.format == "edges":
            for a, b in sink.diagonals:
                out.write(f"{a} {b}\n")
        elif args.format == "triangles-adjacency":
            for tid, (i, j, k), (n1, n2, n3) in sink.records:
                out.write(f"T {tid} {i} {j} {k}  {n1} {n2} {n3}\n")
        else:
            payload = {"n": poly.n, "s": s,
                       "diagonals": [list(d) for d in sink.diagonals]}
            if isinstance(sink, AdjacencySink):
                payload["triangles"] = [
                    {"id": tid, "corners": list(c), "neighbors": list(nb)}
                    for tid, c, nb in sink.records]
            json.dump(payload, out, indent=1)
            out.write("\n")
    if args.svg:
        write_svg(args.svg, poly, sink.diagonals)
    _metrics_line("triangulate", poly, s, ms, meter, stats)
    return 0


def cmd_spt(args) -> int:
    poly = load_polygon(args.input)
    s = args.s if args.s is not None else required_budget(poly.n)
    root = _root(args.root)
    t0 = time.perf_counter()
    sink, meter, stats = spt(poly, root, s, mode=_mode(args), seed=_seed(args))
    ms = (time.perf_counter() - t0) * 1000
    with _output(args.out) as out:
        if args.format == "json":
            json.dump({"n": poly.n, "root": args.root,
                       "edges": [list(e) for e in sorted(sink.edge_set())]},
                      out, indent=1)
            out.write("\n")
        else:
            for a, b in sink.edges:
                out.write(f"{a} {b}\n")
    if args.svg:
        segs = [(a, b) for a, b in sink.edges if a != 0]
        if isinstance(root, tuple):
            segs += [(root, poly.vertex(b)) for a, b in sink.edges if a == 0]
        write_svg(args.svg, poly, segs, seg_color="steelblue")
    _metrics_line("spt", poly, s, ms, meter, stats)
    return 0


def cmd_partition(args) -> int:
    poly = load_polygon(args.input)
    s = args.s if args.s is not None else max(1, math.isqrt(poly.n))
    t0 = time.perf_counter()
    pieces, diagonals, meter, stats, _rounds = partition(
        poly, s, mode=_mode(args), seed=_seed(args))
    ms = (time.perf_counter() - t0) * 1000
    with _output(args.out) as out:
        if args.format == "json":
            json.dump({"n": poly.n, "s": s,
                       "diagonals": [list(d) for d in diagonals],
                       "pieces": piece_vertex_lists(pieces)}, out, indent=1)
            out.write("\n")
        else:
            for a, b in diagonals:
                out.write(f"{a} {b}\n")
            for ring in piece_vertex_lists(pieces):
                out.write("P " + " ".join(map(str, ring)) + "\n")
    if args.svg:
        write_svg(args.svg, poly, diagonals, seg_color="darkorange")
    _metrics_line("partition", poly, s, ms, meter, stats)
    return 0


def _pair(path: str, line: str) -> Tuple[int, int]:
    try:
        a, b = line.split()
        return int(a), int(b)
    except ValueError:
        raise PolygonInputError(f"{path}: malformed line {line!r}")


def cmd_verify(args) -> int:
    poly = load_polygon(args.input)
    what = args.what
    path = args.against
    try:
        with open(path) as fh:
            lines = [ln.split("#", 1)[0].strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise PolygonInputError(f"cannot read {path}: {exc}")
    lines = [ln for ln in lines if ln]
    if what == "triangulation":
        diagonals = [_pair(path, ln) for ln in lines
                     if not ln.startswith(("T ", "P "))]
        rep = oracle.validate_triangulation(poly, diagonals)
    elif what == "spt":
        edges = {_pair(path, ln) for ln in lines}
        r = _root(args.root) if args.root is not None else None
        if r is None:
            # infer the root: the vertex that never appears as a child
            children = {b for _a, b in edges}
            cands = [v for v in range(1, poly.n + 1) if v not in children]
            if len(cands) != 1:
                raise PolygonInputError("cannot infer the tree root; use --root")
            r = cands[0]
        rep = oracle.validate_spt(poly, r, edges)
    elif what == "partition":
        if args.s is None:
            raise PolygonInputError("verify partition needs --s")
        diagonals = []
        pieces = []
        for ln in lines:
            if ln.startswith("P "):
                try:
                    pieces.append([int(x) for x in ln.split()[1:]])
                except ValueError:
                    raise PolygonInputError(f"{path}: malformed line {ln!r}")
            else:
                diagonals.append(_pair(path, ln))
        rep = oracle.validate_partition(poly, diagonals, pieces, args.s)
    else:
        raise PolygonInputError(f"unknown verification target {what!r}")
    if rep.ok:
        print("OK", file=sys.stderr)
        return 0
    for err in rep.errors[:20]:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1


def cmd_bench(args) -> int:
    poly = oracle.generate(args.kind, args.n, _seed(args))
    with _output(args.csv) as out:
        out.write("kind,n,s,ms,peak_words,depth,links,farcases\n")
        for s_str in args.s.split(","):
            s = _int(s_str, "--s")
            t0 = time.perf_counter()
            sink, meter, stats = triangulate_polygon(
                poly, s, mode=_mode(args), seed=_seed(args), audit=False)
            ms = (time.perf_counter() - t0) * 1000
            out.write(f"{args.kind},{args.n},{s},{ms:.1f},{meter.peak_words},"
                      f"{stats.depth},{stats.links},{stats.far_calls}\n")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polyws",
        description="memory-budgeted triangulation, shortest-path trees, and "
                    "balanced partitions of simple polygons")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", help="polygon file (line 1: n; then 'x y')")
        p.add_argument("--s", type=int, default=None, help="workspace words")
        p.add_argument("--mode", choices=("strict", "permissive"),
                       default="strict")
        p.add_argument("--seed", type=int, default=None,
                       help="rng seed (fallback: POLYWS_SEED)")
        p.add_argument("--svg", default=None, help="write a figure here")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    g = sub.add_parser("generate", help="emit a test polygon")
    g.add_argument("--kind", default="random",
                   choices=("random", "convex", "comb", "spiral", "monotone"))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("triangulate", help="stream a triangulation")
    common(t)
    t.add_argument("--format", choices=("edges", "triangles-adjacency", "json"),
                   default="edges")
    t.set_defaults(func=cmd_triangulate)

    sp = sub.add_parser("spt", help="shortest-path tree from a root")
    common(sp)
    sp.add_argument("--root", default="1",
                    help="vertex index, or 'x,y' for an interior point")
    sp.add_argument("--format", choices=("edges", "json"), default="edges")
    sp.set_defaults(func=cmd_spt)

    pa = sub.add_parser("partition", help="balanced diagonal partition")
    common(pa)
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.set_defaults(func=cmd_partition)

    v = sub.add_parser("verify", help="check an output file against its input")
    v.add_argument("input")
    v.add_argument("--against", required=True)
    v.add_argument("--what", choices=("triangulation", "spt", "partition"),
                   default="triangulation")
    v.add_argument("--root", default=None,
                   help="vertex index, or 'x,y' for a point root "
                        "(default: the vertex that is no tree child)")
    v.add_argument("--s", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="triangulation metrics across budgets")
    b.add_argument("--kind", default="comb",
                   choices=("random", "convex", "comb", "spiral", "monotone"))
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--s", required=True, help="comma-separated budgets")
    b.add_argument("--mode", choices=("strict", "permissive"),
                   default="permissive")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument("--csv", default=None)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message: a usage error is invalid input
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except PolygonInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (InternalInvariantError, UsageError) as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
