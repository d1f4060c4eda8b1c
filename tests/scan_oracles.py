"""Exact scalar scans: the oracles that the int64 kernels are tested against.

Each one walks the view's ring of exact points one vertex at a time, on
Python ints or Fractions, so it reads a rational vertex as it stands and
takes a rational free point:

  candidate_scan -- geodesic._candidate_scan, the candidate pick
  ray_hit        -- geom.ray_shoot and geom.ray_scan_light
  visible        -- geom.is_visible and geom.point_sees_vertex
  point_in_ring  -- geom.point_in_closed
  max_angle_reflex -- geom.max_angle_reflex_in_triangle

use_oracles_below swaps the pick and the ray scans for their oracles inside
the library, for tests that compare whole searches.
"""
from fractions import Fraction

from polyws import geodesic, geom
from polyws.geom import RayHit

_PICK, _RAY = geodesic._candidate_scan, geom._ray_kernel


def candidate_scan(view, q, cone, pts=None):
    """Reflex cone candidates of q, in ascending local order: reflex and
    either strictly inside the cone or the boundary neighbor still flagged
    on a cone bound."""
    if pts is None:
        pts = view.scan_points()
    kind = geodesic._cone_kind(cone)
    qx, qy = pts[q - 1]
    ax, ay = cone.a
    bx, by = cone.b
    # strictly inside bound a: a x (v - q) > 0, i.e. ax*y - ay*x > ka;
    # bound b: (v - q) x b > 0, i.e. by*x - bx*y > kb (q is on both)
    ka = ax * qy - ay * qx
    kb = by * qx - bx * qy
    found = []
    i = 0
    px, py = pts[-1]
    for (cx, cy), (nx, ny) in zip(pts, pts[1:] + pts[:1]):
        i += 1
        if (cx - px) * (ny - py) > (cy - py) * (nx - px):
            if ax * cy - ay * cx > ka:
                if kind <= 0 or by * cx - bx * cy > kb:
                    found.append(i)
            elif kind < 0 and by * cx - bx * cy > kb:
                found.append(i)
        px = cx
        py = cy
    if cone.a_edge or cone.b_edge:
        geodesic._bound_candidates(pts, q, cone, found)
    return found


def ray_scan(pts, origin, O, D):
    """Nearest forward boundary crossing of the ray from O (local vertex
    `origin`, 0 for a free point) along D, as (num, den, edge, vertex), the
    ray parameter num/den with den > 0 and exactly one of edge (its start
    vertex) / vertex set; None when the ray crosses nothing."""
    m = len(pts)
    best = None
    ox, oy = O
    dx, dy = D
    px, py = pts[m - 1]
    ps = dx * (py - oy) - dy * (px - ox)
    for k in range(1, m + 1):
        cx, cy = pts[k - 1]
        cs = dx * (cy - oy) - dy * (cx - ox)
        if (ps > 0 and cs < 0) or (ps < 0 and cs > 0):
            best = geom._edge_crossing(best, k - 1 or m, px, py, cx, cy, O, D)
        elif cs == 0 and k != origin:
            best = geom._vertex_crossing(best, pts, k, O, D)
        px, py, ps = cx, cy, cs
    return best


def ray_hit(view, origin, toward):
    """geom.ray_shoot's crossing (None when the ray crosses nothing), from
    an origin and toward a target that are each a local vertex index or an
    exact point."""
    pts = view.scan_points()
    T = pts[toward - 1] if isinstance(toward, int) else toward
    if isinstance(origin, int):
        O = pts[origin - 1]
    else:
        O, origin = origin, 0
    D = (T[0] - O[0], T[1] - O[1])
    found = ray_scan(pts, origin, O, D)
    if found is None:
        return None
    num, den, edge, vertex = found
    t = Fraction(num, den)
    if vertex is not None:
        return RayHit(None, vertex, t, pts[vertex - 1])
    return RayHit(edge, None, t, (O[0] + t * D[0], O[1] + t * D[1]))


def light(hit):
    """A RayHit as geom.ray_scan_light reports it, the parameter as one
    Fraction: (kind, index, parameter)."""
    if hit is None:
        return None
    if hit.vertex is not None:
        return ("vertex", hit.vertex, hit.ray_t)
    return ("edge", hit.edge, hit.ray_t)


def visible(view, i, p, j):
    """Visibility of vertex j from local vertex i, or from the exact point p
    when i is 0."""
    m = view.m
    pts = view.scan_points()
    a = pts[i - 1] if i else p
    b = pts[j - 1]
    ax, ay = a
    ux = b[0] - ax
    uy = b[1] - ay
    px, py = pts[m - 1]
    ps = ux * (py - ay) - uy * (px - ax)
    for k in range(1, m + 1):
        cx, cy = pts[k - 1]
        cs = ux * (cy - ay) - uy * (cx - ax)
        if cs == 0 and k != i and k != j:
            # crossing exactly at vertex k: neighbors strictly opposite
            if _strictly_between(a, b, (cx, cy)):
                kp = pts[k - 2]
                kn = pts[k % m]
                sp = ux * (kp[1] - ay) - uy * (kp[0] - ax)
                sn = ux * (kn[1] - ay) - uy * (kn[0] - ax)
                if (sp > 0 and sn < 0) or (sp < 0 and sn > 0):
                    return False
        elif (ps > 0 and cs < 0) or (ps < 0 and cs > 0):
            # edge (k-1, k) straddles the segment's line: proper test
            ex = cx - px
            ey = cy - py
            o3 = ex * (ay - py) - ey * (ax - px)
            o4 = ex * (b[1] - py) - ey * (b[0] - px)
            if (o3 > 0 and o4 < 0) or (o3 < 0 and o4 > 0):
                return False
        px, py, ps = cx, cy, cs
    return point_in_ring(pts, (a[0] + b[0], a[1] + b[1]), 2)


def _strictly_between(a, b, p):
    # assumes p collinear with ab
    if a[0] != b[0]:
        return min(a[0], b[0]) < p[0] < max(a[0], b[0])
    return min(a[1], b[1]) < p[1] < max(a[1], b[1])


def point_in_ring(pts, p, scale=1):
    """The point p / scale lies inside or on the boundary of the ring."""
    px, py = p
    inside = False
    ax, ay = pts[-1]
    ax *= scale
    ay *= scale
    for bx, by in pts:
        bx *= scale
        by *= scale
        # on-edge counts as inside
        cr = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if cr == 0 and min(ax, bx) <= px <= max(ax, bx) \
                and min(ay, by) <= py <= max(ay, by):
            return True
        if (ay > py) != (by > py):
            if (cr > 0) == (by > ay):
                inside = not inside
        ax, ay = bx, by
    return inside


def max_angle_reflex(view, apex, p_n, hit_point):
    """Reflex vertex strictly inside triangle (apex, p_n, hit_point) whose
    angle at the apex, measured from the apex->p_n direction, is largest;
    None when there is none.  `apex` and `p_n` are each a local vertex
    index or an exact point."""
    m = view.m
    pts = view.scan_points()
    A = pts[apex - 1] if isinstance(apex, int) else apex
    P = pts[p_n - 1] if isinstance(p_n, int) else p_n
    H = hit_point
    ot = geom.orient(A, P, H)
    best = best_dir = None
    for k in range(1, m + 1):
        if k == apex or k == p_n:
            continue
        X = pts[k - 1]
        if geom.orient(A, P, X) != ot or geom.orient(P, H, X) != ot \
                or geom.orient(H, A, X) != ot:
            continue
        if geom.orient(pts[k - 2], X, pts[k % m]) != geom.COUNTERCLOCKWISE:
            continue  # not reflex
        d = (X[0] - A[0], X[1] - A[1])
        if best is None or geom.cross(*best_dir, *d) * ot > 0:
            best, best_dir = k, d
    return best


def use_oracles_below(monkeypatch, cutover):
    """Run the candidate pick and the ray scans of views of fewer than
    `cutover` vertices on their oracles, and the rest on the int64 kernels:
    0 keeps every kernel, 1 << 30 swaps every one."""
    def pick_at(view, q, cone, pts=None):
        return (candidate_scan if view.m < cutover else _PICK)(view, q, cone,
                                                               pts)

    def ray_at(view, pts, origin, O, D):
        if view.m < cutover:
            return ray_scan(pts, origin, O, D)
        return _RAY(view, pts, origin, O, D)
    monkeypatch.setattr(geodesic, "_candidate_scan", pick_at)
    monkeypatch.setattr(geom, "_ray_kernel", ray_at)
