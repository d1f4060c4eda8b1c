#!/usr/bin/env python3
"""Walkthrough: balanced partitioning into same-sized pieces.

A polygon that fits in memory is ear-clipped once, and one pass over the
clip's pop order cuts its dual tree into pieces of at most t vertices; a root
remainder below floor(t/6) is merged with a neighbour (and split at a
balanced cut if the merge passes t).  A polygon too large to fit is first
halved round by round, each round triangulating every oversized piece just
long enough to see one balanced cut stream past; those sizes decay
geometrically until the pieces fit.
"""
import os

from polyws.cli import write_svg
from polyws.oracle import generate, validate_partition
from polyws.partition import partition, piece_vertex_lists

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    n, s = 360, 12
    poly = generate("random", n, seed=8)
    t = max(-(-n // s), 3)
    print(f"random polygon: n={n}, s={s} -> target piece size t={t} "
          f"(window [{t // 6}, {t + 2}])")

    pieces, diagonals, meter, stats, round_maxima = partition(poly, s, seed=1)
    sizes = sorted(p.m for p in pieces)
    print(f"pieces            : {len(pieces)}, sizes {sizes[:8]}...{sizes[-3:]}")
    print(f"cut diagonals     : {len(diagonals)}")
    print(f"round maxima      : {round_maxima}")

    rep = validate_partition(poly, diagonals, piece_vertex_lists(pieces), s)
    print(f"validator         : {'accepted' if rep.ok else rep.errors[:3]}")

    svg = os.path.join(OUT, "partition.svg")
    write_svg(svg, poly, diagonals, seg_color="darkorange")
    print(f"figure            : {svg}")


if __name__ == "__main__":
    main()
