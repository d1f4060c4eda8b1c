"""End-to-end command-line runs on temporary files."""
import importlib
import subprocess
import sys

import pytest

from polyws.cli import load_polygon, main, save_polygon
from polyws.errors import PolygonInputError
from polyws.oracle import generate
from polyws.workspace import _signed_area2

SQUARE_TEXT = "4\n0 0\n0 2\n2 2\n2 0\n"


@pytest.fixture
def square(tmp_path):
    p = tmp_path / "square.poly"
    p.write_text(SQUARE_TEXT)
    return str(p)


def test_roundtrip(tmp_path):
    poly = generate("random", 40, 3)
    path = str(tmp_path / "p.poly")
    save_polygon(poly, path)
    again = load_polygon(path)
    assert again.points() == poly.points()


def test_load_normalizes_orientation(tmp_path):
    p = tmp_path / "ccw.poly"
    p.write_text("4\n0 0\n2 0\n2 2\n0 2\n")   # counterclockwise ring
    poly = load_polygon(str(p))
    assert _signed_area2(poly.points()) < 0
    assert poly.vertex(1) == (0, 0)


def test_load_rejects_bowtie(tmp_path):
    p = tmp_path / "bow.poly"
    p.write_text("4\n0 0\n2 2\n2 0\n0 2\n")
    with pytest.raises(PolygonInputError):
        load_polygon(str(p))


def test_self_crossing_ring_refused_by_every_command(tmp_path, capsys):
    # every command that loads this self-crossing hexagon refuses it with
    # exit 1 and one error line; no flag skips the check
    path = tmp_path / "cross.poly"
    path.write_text("6\n4 0\n5 5\n1 5\n4 2\n2 0\n0 3\n")
    for cmd in ("triangulate", "spt", "partition"):
        assert main([cmd, str(path)]) == 1, cmd
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: edges 1 and 3 cross"], err
        assert main([cmd, str(path), "--no-validate"]) == 1, cmd
        assert "unrecognized arguments: --no-validate" in \
            capsys.readouterr().err


def _faulty_rings(points):
    """Copies of the ring, scaled by 2 so that edge midpoints are lattice
    points, each with vertex v moved: onto the middle of a nearby edge k
    ("touching"), one unit across it, so that v's edges cross edge k
    ("crossing"), onto a vertex of edge k ("duplicate"), and one unit short
    of the middle ("control"), which is simple."""
    from polyws.geom import orient
    from polyws.oracle import check_simple
    pts = [(2 * x, 2 * y) for x, y in points]
    n = len(pts)
    for v in range(n // 3, n // 3 + 60):
        for k in range(v + 2, v + 10):
            a, b = pts[k], pts[k + 1]
            mid = ((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
            side = orient(a, b, pts[v])
            if side == 0:
                continue
            dx, dy = (1, 0) if a[1] != b[1] else (0, 1)   # across the edge
            if orient(a, b, (mid[0] + dx, mid[1] + dy)) != side:
                dx, dy = -dx, -dy
            near = (mid[0] + dx, mid[1] + dy)
            far = (mid[0] - dx, mid[1] - dy)
            rings = {}
            for fault, q in (("control", near), ("touching", mid),
                             ("crossing", far), ("duplicate", a)):
                rings[fault] = pts[:v] + [q] + pts[v + 1:]
            if check_simple(rings["control"], general_position=False).ok:
                return rings
    raise AssertionError("no vertex to move")


@pytest.mark.parametrize("kind,n", [("comb", 4000), ("spiral", 2000)])
def test_large_faulty_polygons_refused(tmp_path, capsys, kind, n):
    # above n = 2048 (comb 4000) only the simplicity sweep stands between
    # these rings and the algorithms; spiral 2000 also meets the
    # general-position test
    from test_oracle import _check_simple_reference
    rings = _faulty_rings(generate(kind, n, 1).points())
    assert _check_simple_reference(rings.pop("control"),
                                   general_position=False).ok
    for fault, pts in rings.items():
        path = tmp_path / f"{kind}-{fault}.poly"
        path.write_text(f"{n}\n" + "".join(f"{x} {y}\n" for x, y in pts))
        assert main(["triangulate", str(path), "--out",
                     str(tmp_path / "tri.out")]) == 1, fault
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err


def test_triangulate_square_cli(square, tmp_path, capsys):
    out = str(tmp_path / "tri.out")
    rc = main(["triangulate", square, "--s", "64", "--out", out,
               "--mode", "permissive"])
    assert rc == 0
    body = open(out).read().split()
    assert body in (["1", "3"], ["2", "4"])


def test_metrics_line_reports_candidate_scans(tmp_path, capsys):
    # the stderr metrics line counts the cone search's candidate scans next
    # to the geodesic links they served
    path = str(tmp_path / "comb.poly")
    save_polygon(generate("comb", 200, 1), path)
    assert main(["triangulate", path, "--s", "16", "--mode", "permissive",
                 "--out", str(tmp_path / "tri.out")]) == 0
    line = capsys.readouterr().err.strip().splitlines()[-1]
    fields = dict(f.split("=") for f in line.split()[1:])
    assert int(fields["links"]) > 0
    assert 0 < int(fields["scans"]) <= 4 * int(fields["links"])


def test_verify_cli(square, tmp_path):
    out = str(tmp_path / "tri.out")
    assert main(["triangulate", square, "--s", "64", "--out", out,
                 "--mode", "permissive"]) == 0
    assert main(["verify", square, "--against", out]) == 0
    bad = str(tmp_path / "bad.out")
    open(bad, "w").write("1 2\n")
    assert main(["verify", square, "--against", bad]) == 1


def test_verify_missing_against_file(square, tmp_path, capsys):
    missing = str(tmp_path / "nope.out")
    assert main(["verify", square, "--against", missing]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_verify_malformed_against_line(square, tmp_path, capsys):
    bad = tmp_path / "bad.out"
    for what, body in (("triangulation", "1 3 5\n"), ("spt", "1 x\n"),
                       ("partition", "P 1 2 x\n")):
        bad.write_text(body)
        assert main(["verify", square, "--against", str(bad), "--what",
                     what, "--root", "1", "--s", "2"]) == 1, what
        assert "malformed line" in capsys.readouterr().err


def test_malformed_root_and_seed(square, tmp_path, capsys, monkeypatch):
    tree = tmp_path / "tree.out"
    tree.write_text("1 2\n1 3\n1 4\n")
    runs = [["spt", square, "--root", "1,x"],
            ["spt", square, "--root", "1,2,3"],
            ["verify", square, "--against", str(tree), "--what", "spt",
             "--root", "abc"]]
    for argv in runs:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: --root"), argv
    assert main(["verify", square, "--against", str(tree), "--what", "spt",
                 "--root", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("POLYWS_SEED", "seven")
    assert main(["generate", "--kind", "convex", "--n", "8"]) == 1
    assert capsys.readouterr().err.startswith("error: POLYWS_SEED")


def test_generate_and_pipeline(tmp_path):
    poly_path = str(tmp_path / "g.poly")
    assert main(["generate", "--kind", "comb", "--n", "42", "--seed", "5",
                 "--out", poly_path]) == 0
    tri = str(tmp_path / "t.out")
    assert main(["triangulate", poly_path, "--s", "48", "--out", tri]) == 0
    assert main(["verify", poly_path, "--against", tri]) == 0
    assert sum(1 for _ in open(tri)) == 42 - 3


def test_spt_cli_and_verify(tmp_path):
    poly_path = str(tmp_path / "g.poly")
    main(["generate", "--kind", "random", "--n", "30", "--seed", "2",
          "--out", poly_path])
    out = str(tmp_path / "spt.out")
    assert main(["spt", poly_path, "--root", "3", "--s", "30",
                 "--mode", "permissive", "--out", out]) == 0
    assert main(["verify", poly_path, "--against", out, "--what", "spt",
                 "--root", "3"]) == 0
    assert sum(1 for _ in open(out)) == 29


def test_spt_cli_and_verify_point_root(tmp_path):
    poly_path = tmp_path / "l.poly"
    poly_path.write_text("6\n0 0\n0 6\n2 6\n2 2\n6 2\n6 0\n")
    out = tmp_path / "spt.out"
    assert main(["spt", str(poly_path), "--root", "1,1", "--s", "6",
                 "--mode", "permissive", "--out", str(out)]) == 0
    verify = ["verify", str(poly_path), "--against", str(out), "--what",
              "spt", "--root", "1,1"]
    assert main(verify) == 0
    # re-parent one tree edge to a vertex that is neither of its ends
    lines = out.read_text().splitlines()
    a, b = map(int, lines[-1].split())
    wrong = next(v for v in range(1, 7) if v not in (a, b))
    out.write_text("\n".join(lines[:-1] + [f"{wrong} {b}"]) + "\n")
    assert main(verify) == 1


def test_partition_cli_and_verify(tmp_path):
    poly_path = str(tmp_path / "g.poly")
    main(["generate", "--kind", "convex", "--n", "60", "--seed", "4",
          "--out", poly_path])
    out = str(tmp_path / "part.out")
    assert main(["partition", poly_path, "--s", "5", "--mode", "permissive",
                 "--out", out]) == 0
    assert main(["verify", poly_path, "--against", out, "--what", "partition",
                 "--s", "5"]) == 0


def test_exit_codes(square, tmp_path):
    missing = str(tmp_path / "nope.poly")
    assert main(["triangulate", missing]) == 1
    big = str(tmp_path / "big.poly")
    main(["generate", "--kind", "comb", "--n", "402", "--seed", "1",
          "--out", big])
    assert main(["triangulate", big, "--s", "12", "--mode", "strict"]) == 1
    # --s 0 is a budget, not "unset": strict runs and partition refuse it
    for cmd in ("triangulate", "spt", "partition"):
        assert main([cmd, square, "--s", "0"]) == 1, cmd
    # usage errors exit 1 (2 means a strict budget refusal); --help is 0
    out = str(tmp_path / "o")
    for extra in (["--kappa", "0.9"], ["--L", "64"], ["--s", "abc"],
                  ["--seed", "x"]):
        assert main(["triangulate", square, *extra, "--out", out]) == 1, extra
    assert main(["bench", "--n", "50", "--s", "8", "--kappa", "0.9"]) == 1
    assert main(["--help"]) == 0
    # the decay is fixed; kappa = 0.3 would run this comb's recursion out
    # of workspace
    comb = str(tmp_path / "comb.poly")
    main(["generate", "--kind", "comb", "--n", "1000", "--seed", "1",
          "--out", comb])
    assert main(["spt", comb, "--kappa", "0.3", "--out", out]) == 1


SQUARE_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 6 6">\n'
    '<polygon points="2,2 2,0 4,0 4,2" fill="none" stroke="black" '
    'stroke-width="0.015"/>\n'
    '<line x1="2" y1="0" x2="4" y2="2" stroke="crimson" '
    'stroke-width="0.01"/>\n'
    '</svg>\n')

# sha256 of the figures for random-120 (generator seed 5) at s = 16,
# permissive, run seed 11; the interior root draws segments from a point
SVG_SHA256 = {
    "triangulate":
        "7847df5e8d0e241688056ae1b22c07ba2fc017ba2edcf0d41909468cb98b9168",
    "spt --root 26983,128353":
        "d7bfcd05a7bef2d6755a016c8dfbceb6944e4d5ed6cffd5a37e71bdd06b43d8f",
    "partition":
        "6676146094aaf080079160c189cbd102ad991e7c9f4b6b63be9b2d84f7849658",
}


def test_svg_emission(square, tmp_path):
    import hashlib
    svg = tmp_path / "fig.svg"
    assert main(["triangulate", square, "--s", "64", "--mode", "permissive",
                 "--svg", str(svg), "--out", str(tmp_path / "o")]) == 0
    assert svg.read_text() == SQUARE_SVG
    poly = str(tmp_path / "r.poly")
    assert main(["generate", "--kind", "random", "--n", "120", "--seed", "5",
                 "--out", poly]) == 0
    got = {}
    for cmd in SVG_SHA256:
        name, *extra = cmd.split()
        assert main([name, poly, *extra, "--s", "16", "--mode", "permissive",
                     "--seed", "11", "--svg", str(svg),
                     "--out", str(tmp_path / "o")]) == 0
        got[cmd] = hashlib.sha256(svg.read_bytes()).hexdigest()
    assert got == SVG_SHA256


def test_bench_csv(tmp_path):
    csv = str(tmp_path / "bench.csv")
    assert main(["bench", "--kind", "comb", "--n", "200",
                 "--s", "48,64", "--seed", "3", "--csv", csv]) == 0
    lines = open(csv).read().strip().splitlines()
    assert lines[0] == "kind,n,s,ms,peak_words,depth,links,farcases"
    assert len(lines) == 3
    for row in lines[1:]:
        kind, n, s, ms, peak, depth, links, far = row.split(",")
        assert kind == "comb" and int(n) == 200
        assert int(peak) <= 64 * int(s)


def test_deterministic_outputs(tmp_path):
    poly_path = str(tmp_path / "g.poly")
    main(["generate", "--kind", "spiral", "--n", "80", "--seed", "7",
          "--out", poly_path])
    o1 = str(tmp_path / "a.out")
    o2 = str(tmp_path / "b.out")
    for out in (o1, o2):
        assert main(["triangulate", poly_path, "--s", "16", "--seed", "11",
                     "--mode", "permissive", "--out", out]) == 0
    assert open(o1).read() == open(o2).read()


def test_env_seed_fallback(tmp_path, monkeypatch):
    a = str(tmp_path / "a.poly")
    b = str(tmp_path / "b.poly")
    monkeypatch.setenv("POLYWS_SEED", "41")
    main(["generate", "--kind", "random", "--n", "20", "--out", a])
    main(["generate", "--kind", "random", "--n", "20", "--out", b])
    assert open(a).read() == open(b).read()
    monkeypatch.setenv("POLYWS_SEED", "42")
    main(["generate", "--kind", "random", "--n", "20", "--out", b])
    assert open(a).read() != open(b).read()


def test_star_import_resolves_every_export():
    # a name left in __all__ after its definition goes fails the import
    import polyws
    names = {}
    exec("from polyws import *", names)
    assert all(name in names for name in polyws.__all__)


def test_console_entrypoint_runs():
    rc = subprocess.run([sys.executable, "-m", "polyws.cli", "generate",
                         "--kind", "convex", "--n", "8", "--seed", "1"],
                        capture_output=True, text=True)
    assert rc.returncode == 0
    assert rc.stdout.splitlines()[0].strip() == "8"


# A fixed corpus whose CLI outputs must stay byte-identical: each polygon is
# (kind, n, generator seed); every command runs at s = 16, permissive, with
# run seed 11.  The interior root on random-120 reaches the reflex repair of
# the root placement.
GOLDEN_POLYGONS = [("random", 120, 5), ("random", 300, 6), ("comb", 200, 7),
                   ("comb", 300, 8), ("spiral", 150, 9), ("spiral", 300, 10)]
GOLDEN_RUNS = [
    ("triangulate", ["--format", "edges"]),
    ("triangulate", ["--format", "triangles-adjacency"]),
    ("spt", ["--root", "1"]),
    ("partition", []),
]
GOLDEN_EXTRA = [("random-120", "spt", ["--root", "26983,128353"])]
GOLDEN_SHA256 = {
    "random-120 triangulate --format edges":
        "81ecd0b0d53b50a36cef31a255975db106f96dff16046c029774b8348d95bb8d",
    "random-120 triangulate --format triangles-adjacency":
        "4abfea4399358d55ff8b60d1537239b4082ae00d6761c7881bbed9e3683cca9f",
    "random-120 spt --root 1":
        "deda737ba3a057dceccd7c272671e3be7b239e4ddecc972a59a765e7594fc9fd",
    "random-120 partition":
        "00da28729db44e07611380ba465d0a4554412899466acc87c3ec268fa3f81936",
    "random-300 triangulate --format edges":
        "5f5ee43471e55eee321519c7cdae8ac99873d9f3342e0c260d8ee4e03197a545",
    "random-300 triangulate --format triangles-adjacency":
        "4812ad098e132436440c33ae1bb6a8773a149391f97cb2e34ee906033648613e",
    "random-300 spt --root 1":
        "3a5cadec8d4dce75147d1b3c71f3a8394e1ca3288c4d73c1f46696281e397c51",
    "random-300 partition":
        "710d0ad25bc43d720e6918cf80a01ae1b1a015ddb8f878477fc763ec7d105143",
    "comb-200 triangulate --format edges":
        "56f412e4189ec23f86b2aae7954415a7347bc0d93cb43fb2757cb28c28636b64",
    "comb-200 triangulate --format triangles-adjacency":
        "366a33a3999cad9bd95700bbfd9b3a115fb6394a19f0946fd107764045a87e9c",
    "comb-200 spt --root 1":
        "00036614e40dda91ce46668fa68b731e6da44d38f4e41de009b65658d7e8138e",
    "comb-200 partition":
        "93113fa95f0835973310e5d034def40c9d57c2cef74a493403dc6888aa6ebe8f",
    "comb-300 triangulate --format edges":
        "c4c5c7e45f160a6ea73879a8d08a1d10a2a782b2d28886993cb1ff06fa512192",
    "comb-300 triangulate --format triangles-adjacency":
        "8862243f4c1a2f516ca84165dfa832df7dedd3954a181a4279853a8d4cbe8378",
    "comb-300 spt --root 1":
        "7c7be764323770f70c4e1cb52e0e967e5c801ed0d16f3f8ab2e2f900f7b4bb49",
    "comb-300 partition":
        "a8b59ac2a66e0c406a0a969a59db3ed94a78b77adb7e07d431fd6705a688560b",
    "spiral-150 triangulate --format edges":
        "a115831e8b09e6abab331d559126292445fe3a50b1ffad1f3abd3a8d18d72b34",
    "spiral-150 triangulate --format triangles-adjacency":
        "325d1d68b8fa496704a0bcea74510d36038c8e02170146ca328f1f30f2457531",
    "spiral-150 spt --root 1":
        "ef7179040b84bf4824e0b47f491642b5910e9f2cb34d1219a51c96867bae69aa",
    "spiral-150 partition":
        "876661a6b8c108dbf2e26bc509e326eae9ceca85d6a923f7dfc488680337b1eb",
    "spiral-300 triangulate --format edges":
        "95b4ff6bb0b82a29a5646239784226bd0f681e46d46981687042db64e9e227bb",
    "spiral-300 triangulate --format triangles-adjacency":
        "b9f55e70a10f98fb5db4279fe9d3887a9460307065957b6c2738dff2fb66c7c7",
    "spiral-300 spt --root 1":
        "49c489fc8c324c49bb38bf00eb5abcd0ded9ff1e3111b2709de8eeb2f30b5b96",
    "spiral-300 partition":
        "09e08b6d072d92da25e54aec0300ec620ef8a1ce7abc59028eda427d97799ef9",
    "random-120 spt --root 26983,128353":
        "bb233d4a04141c728e7c5a83d7cb5ac400e04935657bd68e2807047a8b1e7547",
}


def _golden_outputs(tmp_path):
    import hashlib
    jobs = []
    for kind, n, seed in GOLDEN_POLYGONS:
        name = f"{kind}-{n}"
        assert main(["generate", "--kind", kind, "--n", str(n), "--seed",
                     str(seed), "--out", str(tmp_path / f"{name}.poly")]) == 0
        for cmd, extra in GOLDEN_RUNS:
            jobs.append((name, cmd, extra))
    jobs += GOLDEN_EXTRA
    got = {}
    for name, cmd, extra in jobs:
        key = " ".join([name, cmd] + extra)
        out = tmp_path / "out"
        assert main([cmd, str(tmp_path / f"{name}.poly"), "--s", "16",
                     "--mode", "permissive", "--seed", "11",
                     "--out", str(out)] + extra) == 0, key
        got[key] = hashlib.sha256(out.read_bytes()).hexdigest()
    return got


def test_golden_outputs_byte_identical(tmp_path):
    assert _golden_outputs(tmp_path) == GOLDEN_SHA256


def test_audit_failure_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # the walk's audit checks raise InternalInvariantError instead of using
    # assert, so python -O keeps them and the CLI reports a failed one with
    # exit 3 and one error line; here every piece that an SPT split cuts
    # off is the whole view again, which breaks the split bound
    spt_mod = importlib.import_module("polyws.spt")
    monkeypatch.setattr(spt_mod, "rooted_piece",
                        lambda view, segs, root: view)
    poly = str(tmp_path / "comb.poly")
    assert main(["generate", "--kind", "comb", "--n", "400", "--seed", "1",
                 "--out", poly]) == 0
    capsys.readouterr()
    assert main(["spt", poly, "--root", "1", "--s", "16", "--mode",
                 "permissive", "--out", str(tmp_path / "tree")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "breaks the split bound" in err[0], err
