"""Annulus geometry, polar spectral grids and unstructured triangulation.

The annulus a < r < b is the stage for everything else in this package.
Two discretisations live here:

* a tensor grid of Chebyshev-Gauss-Lobatto radii times a uniform periodic
  angular grid, used by the spectral verification of the closed-form
  eigenpairs, and
* an unstructured Delaunay triangulation produced by a signed-distance
  force-equilibrium relaxation (the classic distmesh iteration of Persson
  and Strang), used by the finite element solver.

The mesher is fully deterministic: the initial point set is a fixed
hexagonal lattice, the relaxation has no random component, and boundary
nodes are projected exactly onto the two circles, so identical inputs give
bitwise-identical meshes. The bar forces are scattered onto the nodes by one
np.bincount per coordinate, which adds them in bar order from 0.0 exactly as
a pair of np.add.at calls would, so the meshes are bit-identical to those of
that slower formulation too.

Between retriangulations the points move little, so qhull (scipy's Delaunay)
triangulates only the seed lattice, the final clean-up and the steps a
repair declines. Each other step repairs the last triangulation, hole
triangles included, by edge flips (Lawson, 1977): inverted hull slivers are
dropped, and every edge whose far vertex lies inside the circumcircle by
1e-9 of the determinant's scale is flipped. The repair is kept only under a
certificate (every triangle counter-clockwise, the hull one convex cycle,
every edge of an interior triangle Delaunay by that margin, no centroid
within round-off of the interior threshold), which makes its interior
triangles qhull's. A reflex or straight hull turn, a tie (such as the
co-circular trapezoids of a mirror-symmetric lattice) or any other failed
check leaves the step to qhull, so the bars and every mesh are
byte-identical to qhull at every retriangulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from ._util import SIZE_LIMIT


# Calibrated target edge lengths for the reference annulus (a, b) = (1/2, 1).
# PAPER_FIDELITY_H reproduces the reference discretisation of 6340 triangles
# on 3333 vertices to within half a percent; DESK_SCALE_H gives a coarser
# mesh of about 1600 triangles for quick runs.
PAPER_FIDELITY_H = 0.0286
DESK_SCALE_H = 0.0554


class GeometryError(ValueError):
    """Invalid geometric input (radii, grid sizes, target edge length)."""


class MeshConvergenceError(RuntimeError):
    """Relaxation failed to settle; carries statistics of the last iterate."""

    def __init__(self, message, stats):
        super().__init__(f"{message} ({stats})")
        self.stats = stats


@dataclass(frozen=True)
class AnnulusGeometry:
    """The annular region a < sqrt(x^2 + y^2) < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0):
            raise GeometryError(f"inner radius must be positive, got a={self.a}")
        if not (self.b > self.a):
            raise GeometryError(f"outer radius must exceed inner, got a={self.a}, b={self.b}")
        if not np.isfinite(self.b):
            raise GeometryError(f"outer radius must be finite, got b={self.b}")

    @property
    def rho(self) -> float:
        """Thickness b - a."""
        return self.b - self.a

    @property
    def area(self) -> float:
        return np.pi * (self.b**2 - self.a**2)


def make_annulus(a: float, b: float) -> AnnulusGeometry:
    """Validate radii and build the annulus record."""
    return AnnulusGeometry(float(a), float(b))


@dataclass(frozen=True)
class PolarSpectralGrid:
    """Chebyshev (radial) x uniform Fourier (angular) tensor grid.

    radial_nodes are the N Chebyshev-Gauss-Lobatto points mapped to [a, b],
    sorted ascending with both endpoints included. angular_nodes are
    theta_j = 2 pi j / M for j = 0..M-1, M even.
    """

    a: float
    b: float
    radial_nodes: np.ndarray
    angular_nodes: np.ndarray
    N: int
    M: int


def build_polar_grid(geom: AnnulusGeometry, N: int, M: int) -> PolarSpectralGrid:
    """Build the N x M polar tensor grid on the annulus.

    N is the integer radial node count (N >= 4); M is the even angular node
    count (M >= 4). The radial rule is cos(pi j/(N-1)) affinely mapped to [a, b].
    """
    # checked before the integer cast, so N = 95.7 is refused, not truncated
    if not (float(N).is_integer() and float(M).is_integer()):
        raise GeometryError(f"node counts must be integers, got N={N}, M={M}")
    N, M = int(N), int(M)
    if N < 4:
        raise GeometryError(f"radial node count must be at least 4, got {N}")
    if M < 4 or M % 2 != 0:
        raise GeometryError(f"angular node count must be even and at least 4, got {M}")
    j = np.arange(N)
    x = np.cos(np.pi * j / (N - 1))  # 1 .. -1
    r = geom.a + (geom.b - geom.a) * (1.0 - x) / 2.0  # ascending, endpoints exact
    theta = 2.0 * np.pi * np.arange(M) / M
    r.setflags(write=False)
    theta.setflags(write=False)
    return PolarSpectralGrid(geom.a, geom.b, r, theta, N, M)


# ---------------------------------------------------------------------------
# unstructured triangulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriMesh:
    """Triangulation of the annulus.

    vertices: (n, 2) float array. triangles: (m, 3) int array, positively
    oriented. boundary_flags: per-vertex int8, 0 interior / 1 inner circle /
    2 outer circle.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray
    a: float
    b: float
    h: float


def _signed_distance(r: np.ndarray, a: float, b: float) -> np.ndarray:
    """Signed distance from the annulus of points at radius r, negative inside."""
    return np.maximum(r - b, a - r)


def _centroid_distance(x, y, tri, a, b):
    """Signed distance of each triangle's centroid from the annulus, its
    vertices summed in the triangle's order (bit for bit as np.mean)."""
    cx = (x[tri[:, 0]] + x[tri[:, 1]] + x[tri[:, 2]]) / 3.0
    cy = (y[tri[:, 0]] + y[tri[:, 1]] + y[tri[:, 2]]) / 3.0
    return _signed_distance(np.hypot(cx, cy), a, b)


def _lattice_size(b: float, h: float) -> float:
    """Point count of _hex_lattice(b, h), from its aranges' lengths, unbuilt."""
    dy = h * np.sqrt(3.0) / 2.0
    return (np.ceil((b + h + 0.5 * h - (-b - h)) / h)
            * np.ceil((b + h + 0.5 * dy - (-b - h)) / dy))


def _hex_lattice(b: float, h: float) -> np.ndarray:
    """Deterministic hexagonal seed lattice covering the bounding box."""
    dy = h * np.sqrt(3.0) / 2.0
    xs = np.arange(-b - h, b + h + 0.5 * h, h)
    ys = np.arange(-b - h, b + h + 0.5 * dy, dy)
    X, Y = np.meshgrid(xs, ys)
    X[1::2, :] += h / 2.0  # shift every other row
    return np.column_stack([X.ravel(), Y.ravel()])


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas (positive for counter-clockwise triangles)."""
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def triangle_quality(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Radius ratio quality 2 r_in / r_circ; 1 for equilateral triangles."""
    p = vertices[triangles]
    e1 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
    e2 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
    e3 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
    return ((e2 + e3 - e1) * (e3 + e1 - e2) * (e1 + e2 - e3)) / (e1 * e2 * e3)


def mesh_edges(triangles: np.ndarray) -> np.ndarray:
    """Unique undirected edges of a triangle list, as sorted index pairs.

    Each pair i < j is encoded as the single key i*n + j (n above every
    index), so the sorted keys come out in the lexicographic order of the
    pairs, and a key equal to its predecessor is a repeat; the result has
    the dtype of the triangle list.
    """
    n = int(triangles.max()) + 1 if triangles.size else 1
    t = triangles.astype(np.int64)
    e0 = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    e1 = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    keys = np.minimum(e0, e1) * n + np.maximum(e0, e1)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return np.column_stack(np.divmod(keys, n)).astype(triangles.dtype)


# Relaxation constants of distmesh (Persson and Strang, "A Simple Mesh
# Generator in MATLAB", SIAM Review 46, 2004): bars push apart below _FSCALE
# times the RMS bar length and points move _DELTAT times their net force;
# _TTOL, _DPTOL and _MAX_ITER are explained in triangulate_annulus.
_FSCALE = 1.2
_DELTAT = 0.2
_DPTOL = 1e-3
_TTOL = 0.1
_MAX_ITER = 2000


# Margin of the repair certificate, relative to each determinant's scale
# (the sum of the magnitudes of the products it adds): an orientation or
# incircle determinant within it is a tie that only qhull may decide.
_MARGIN = 1e-9


def _delaunay(p: np.ndarray, a: float, b: float, geps: float):
    """qhull's Delaunay triangulation of p: (triangles, neighbours, interior).

    interior marks the triangles whose centroid lies inside the annulus by
    geps, tested in qhull's vertex order. The triangles (and their rows of
    neighbours, neighbour k opposite vertex k, -1 on the hull) are then
    turned counter-clockwise, as intp arrays. neighbours is None when qhull
    left a point out of the triangulation, which a repair could not put back.
    """
    d = Delaunay(p)
    tri, nbr = d.simplices.astype(np.intp), d.neighbors.astype(np.intp)
    if len(d.coplanar):
        nbr = None
    del d  # qhull's own arrays go before the temporaries below are made
    interior = _centroid_distance(p[:, 0], p[:, 1], tri, a, b) < -geps
    cw = triangle_areas(p, tri) < 0
    if cw.any():
        tri[cw] = tri[cw][:, [0, 2, 1]]
        if nbr is not None:
            nbr[cw] = nbr[cw][:, [0, 2, 1]]
    return tri, nbr, interior


def _orient(x, y, i, j, k):
    """Orientation determinant of (i, j, k), positive counter-clockwise, and its scale."""
    l = (x[j] - x[i]) * (y[k] - y[i])
    r = (y[j] - y[i]) * (x[k] - x[i])
    return l - r, abs(l) + abs(r)


def _incircle(x, y, i, j, k, m):
    """Incircle determinant of m against counter-clockwise (i, j, k), positive
    inside the circle, and its scale."""
    d = [(x[v] - x[m], y[v] - y[m]) for v in (i, j, k)]
    det = scale = 0.0
    # the lifted row of each vertex times the 2x2 minor of the next two
    for (ax, ay), (bx, by), (cx, cy) in (d, d[1:] + d[:1], d[2:] + d[:2]):
        lift, p, q = ax * ax + ay * ay, bx * cy, cx * by
        det = det + lift * (p - q)
        scale = scale + lift * (abs(p) + abs(q))
    return det, scale


def _interior(x, y, tri, a, b, geps):
    """Mask of the triangles whose centroid lies inside the annulus by geps,
    or None when a centroid lies within round-off of -geps, where qhull's
    vertex order could tip the test the other way."""
    dist = _centroid_distance(x, y, tri, a, b)
    if np.any(np.abs(dist + geps) <= 1e-12 * b):
        return None
    return dist < -geps


def _to_flip(x, y, tri, nbr, t, k, interior):
    """Which interior edges, opposite vertex k of triangle t, to flip: those
    whose far vertex D lies inside the circle through t by the margin.

    None when an edge of an interior triangle is within the margin: a tie.
    """
    tf, e = tri.ravel(), 3 * t
    s3 = 3 * nbr.ravel()[e + k]
    quad = (tf[e + k], tf[e + (k + 1) % 3], tf[e + (k + 2) % 3])
    quad += (tf[s3] + tf[s3 + 1] + tf[s3 + 2] - quad[1] - quad[2],)  # s's vertex off the edge
    s = s3 // 3
    det, scale = _incircle(x, y, *quad)
    if np.any((np.abs(det) <= _MARGIN * scale) & (interior[t] | interior[s])):
        return None
    return det > _MARGIN * scale


def _repair_hull(x, y, tri, nbr):
    """Drop the inverted hull slivers of (tri, nbr), or return None.

    An inverted triangle with one hull edge (its third vertex crossed it) is
    dropped. The repair is declined unless every other triangle is
    counter-clockwise by the margin and the hull is then one cycle that
    turns left by the margin at every vertex.
    """
    o, scale = _orient(x, y, tri[:, 0], tri[:, 1], tri[:, 2])
    bad = o <= _MARGIN * scale
    if bad.any():
        if np.any((nbr[bad] < 0).sum(axis=1) != 1) or np.any(o[bad] >= -_MARGIN * scale[bad]):
            return None
        # renumber the rest; a dropped triangle, like the hull's -1 (the
        # table's last entry), becomes -1
        keep = np.flatnonzero(~bad)
        renumber = np.full(len(tri) + 1, -1)
        renumber[keep] = np.arange(len(keep))
        tri, nbr = tri[keep], renumber[nbr[keep]]

    ht, hk = np.nonzero(nbr < 0)
    hu, hv = tri[ht, (hk + 1) % 3], tri[ht, (hk + 2) % 3]  # hull edge hu -> hv, region on its left
    nxt = dict(zip(hu.tolist(), hv.tolist()))
    if len(nxt) != len(hu) or len(nxt) < 3:
        return None
    v = start = int(hu[0])
    for steps in range(1, len(nxt) + 1):
        v = nxt.get(v, -1)
        if v == start:
            break
    if v != start or steps != len(nxt):
        return None
    turn, scale = _orient(x, y, hu, hv, np.array([nxt[w] for w in hv.tolist()]))
    if np.any(turn <= _MARGIN * scale):
        return None
    return tri, nbr


def _lawson(x, y, tri, nbr, stack):
    """Flip, in place, the edges (triangle, opposite vertex) on the stack, and
    the edges each flip exposes, while the far vertex lies inside the
    circumcircle by the margin. Returns the triangles changed, or None past
    one flip per triangle."""
    touched = set()
    flips = 0
    while stack:
        t, k = stack.pop()
        s = int(nbr[t, k])
        if s < 0:
            continue
        # rows as Python lists: a flip touches a few scalars, each cheaper so
        rt, rs, ns = tri[t].tolist(), tri[s].tolist(), nbr[s].tolist()
        ks = ns.index(t)
        quad = [rt[k], rt[(k + 1) % 3], rt[(k + 2) % 3], rs[ks]]
        det, scale = _incircle(x[quad].tolist(), y[quad].tolist(), 0, 1, 2, 3)
        if det <= _MARGIN * scale:
            continue
        flips += 1
        if flips > len(tri):
            return None
        # the quad A B D C trades its diagonal B-C for A-D
        A, B, C, D = quad
        nt = nbr[t].tolist()
        n_ab, n_ca = nt[(k + 2) % 3], nt[(k + 1) % 3]
        n_bd, n_dc = ns[(ks + 1) % 3], ns[(ks + 2) % 3]
        tri[t] = A, B, D
        nbr[t] = n_bd, s, n_ab
        tri[s] = A, D, C
        nbr[s] = n_dc, n_ca, t
        if n_bd >= 0:
            nbr[n_bd, nbr[n_bd].tolist().index(s)] = t
        if n_ca >= 0:
            nbr[n_ca, nbr[n_ca].tolist().index(t)] = s
        touched.update((t, s))
        stack += [(t, 0), (t, 2), (s, 0), (s, 1)]
    return touched


def _repair_delaunay(x, y, tri, nbr, a, b, geps):
    """Repair the last Delaunay triangulation (tri, nbr) for moved points.

    Inverted hull slivers are dropped (_repair_hull), then every edge whose far
    vertex lies inside the circumcircle by the margin is flipped (Lawson's
    algorithm). The result is accepted only under a certificate: every
    triangle counter-clockwise, the hull one convex cycle, every edge of an
    interior triangle Delaunay by the margin, and no centroid within
    round-off of -geps. Such a triangulation covers the convex hull once,
    and each of its interior triangles is a triangle of the Delaunay
    subdivision, so qhull would return the same interior triangles, hence
    the same bars. The checks run over every triangle and edge before any
    flip, and afterwards over what the flips touched.

    Returns (triangles, neighbours, interior), or None for qhull to decide.
    """
    hull = _repair_hull(x, y, tri, nbr)
    if hull is None:
        return None
    interior = _interior(x, y, hull[0], a, b, geps)
    if interior is None:
        return None
    t, k = np.nonzero(hull[1] > np.arange(len(hull[1]))[:, None])
    flip = _to_flip(x, y, *hull, t, k, interior)
    if flip is None:
        return None
    if not flip.any():
        return *hull, interior

    tri, nbr = (hull[0].copy(), hull[1].copy()) if hull[0] is tri else hull
    touched = _lawson(x, y, tri, nbr, list(zip(t[flip].tolist(), k[flip].tolist())))
    if not touched:
        return None
    # the checks again on what the flips changed; all else kept its verdict
    t = np.fromiter(touched, np.intp, len(touched))
    o, scale = _orient(x, y, *tri[t].T)
    inner = _interior(x, y, tri[t], a, b, geps)
    if np.any(o <= _MARGIN * scale) or inner is None:
        return None
    interior[t] = inner
    t, k = np.repeat(t, 3), np.tile([0, 1, 2], len(t))
    t, k = t[nbr[t, k] >= 0], k[nbr[t, k] >= 0]
    flip = _to_flip(x, y, tri, nbr, t, k, interior)
    if flip is None or flip.any():
        return None
    return tri, nbr, interior


def triangulate_annulus(geom: AnnulusGeometry, h: float) -> TriMesh:
    """Force-equilibrium triangulation with target edge length h.

    Starting from a fixed hexagonal lattice clipped to the annulus, bars of
    the Delaunay triangulation push their endpoints apart when shorter than
    the scaled target length; points leaving the annulus are projected back
    along the signed-distance gradient (radially, which is exact for two
    concentric circles). The mesh is re-triangulated whenever any point has
    drifted more than _TTOL*h since the last triangulation, and the
    iteration terminates when no interior point moves more than _DPTOL*h in
    one step. A cap of _MAX_ITER iterations guards against stagnation; on
    failure the last iterate's statistics are attached to the error. An h
    whose seed lattice would hold more than SIZE_LIMIT points is refused
    before the lattice is built.
    """
    a, b = geom.a, geom.b
    h = float(h)
    if not (0.0 < h < geom.rho):
        raise GeometryError(f"target edge length must lie in (0, rho), got h={h}")
    if _lattice_size(b, h) > SIZE_LIMIT:
        raise GeometryError(f"target edge length h={h} seeds {_lattice_size(b, h):.3g} "
                            f"lattice points, over the limit {SIZE_LIMIT:,}")
    geps = 1e-3 * h

    p = _hex_lattice(b, h)
    p = p[_signed_distance(np.hypot(p[:, 0], p[:, 1]), a, b) < geps]

    # the relaxation works on x and y as contiguous columns; p is formed
    # from them only for qhull and for the final clean-up
    x, y = p[:, 0].copy(), p[:, 1].copy()
    n = len(x)
    xold = yold = np.full(n, np.inf)
    maxdp = np.inf
    # the last triangulation, kept counter-clockwise with its neighbours
    # (hole triangles included) for the next retriangulation to repair
    tri = nbr = None
    retriangulations = qhull_calls = 0
    for iteration in range(_MAX_ITER):
        if np.max(np.hypot(x - xold, y - yold)) > _TTOL * h:
            xold, yold = x, y
            retriangulations += 1
            repaired = None
            if nbr is not None:
                repaired = _repair_delaunay(x, y, tri, nbr, a, b, geps)
            if repaired is None:
                # free the declined triangulation before qhull builds one
                tri = nbr = None
                qhull_calls += 1
                repaired = _delaunay(np.column_stack([x, y]), a, b, geps)
            tri, nbr, interior = repaired
            bars = mesh_edges(tri[interior])
            i, j = bars[:, 0].astype(np.intp), bars[:, 1].astype(np.intp)
            # each bar pushes +f onto node i and -f onto node j; bincount
            # adds in this order from 0.0, bit for bit as np.add.at at i
            # followed by np.add.at at j
            idx = np.concatenate([i, j])

        dx = x[i] - x[j]
        dy = y[i] - y[j]
        L = np.hypot(dx, dy)
        L0 = _FSCALE * np.sqrt(np.sum(L**2) / len(L))
        c = np.maximum(L0 - L, 0.0) / L
        fx = dx * c
        fy = dy * c
        tx = np.bincount(idx, np.concatenate([fx, -fx]), minlength=n)
        ty = np.bincount(idx, np.concatenate([fy, -fy]), minlength=n)
        x = x + _DELTAT * tx
        y = y + _DELTAT * ty

        # pull points that left the annulus radially back onto the nearest
        # circle (exact for two concentric circles); the others keep their
        # radius, and a projected point is not interior either way, so the
        # interior test can use the radius from before the projection
        r = np.hypot(x, y)
        out = (r > b) | (r < a)
        ro = r[out]
        s = np.where(ro > b, b, a) / np.maximum(ro, 1e-300)
        x[out] *= s
        y[out] *= s

        interior = _signed_distance(r, a, b) < -geps
        move = _DELTAT * np.hypot(tx, ty)
        maxdp = move[interior].max() if interior.any() else 0.0
        if maxdp < _DPTOL * h:
            break
    else:
        stats = {"iterations": _MAX_ITER, "max_displacement_over_h": float(maxdp / h),
                 "vertices": n, "retriangulations": retriangulations,
                 "qhull_calls": qhull_calls}
        raise MeshConvergenceError("mesh relaxation did not settle", stats)

    p = np.column_stack([x, y])
    # final clean-up: snap boundary nodes exactly onto the circles,
    # re-triangulate once, drop exterior triangles, orient positively
    r = np.hypot(p[:, 0], p[:, 1])
    snap_in = np.abs(r - a) < 10 * geps
    snap_out = np.abs(r - b) < 10 * geps
    p[snap_in] *= (a / r[snap_in])[:, None]
    p[snap_out] *= (b / r[snap_out])[:, None]

    tri, _, interior = _delaunay(p, a, b, geps)
    tri = tri[interior]
    retriangulations += 1
    qhull_calls += 1

    used = np.unique(tri)
    remap = -np.ones(len(p), dtype=np.int64)
    remap[used] = np.arange(len(used))
    p = p[used]
    tri = remap[tri]

    r = np.hypot(p[:, 0], p[:, 1])
    flags = np.zeros(len(p), dtype=np.int8)
    flags[np.abs(r - a) < 1e-9] = 1
    flags[np.abs(r - b) < 1e-9] = 2

    mesh = TriMesh(p, tri, flags, a, b, h)
    q = triangle_quality(p, tri)
    if q.min() < 0.3:
        stats = {"iterations": iteration + 1, "min_quality": float(q.min()),
                 "vertices": int(len(p)), "triangles": int(len(tri)),
                 "retriangulations": retriangulations, "qhull_calls": qhull_calls}
        raise MeshConvergenceError("mesh quality below 0.3", stats)
    return mesh


def export_mesh(mesh: TriMesh, node_path, ele_path) -> None:
    """Write the plain-text node and element files.

    Node file: one `x y flag` line per vertex. Element file: one `i j k`
    line per triangle, 0-based indices. Both start with a header comment
    recording geometry and target edge length.
    """
    from ._util import fmt, write_text

    head = (f"# annulus mesh: a={fmt(mesh.a)} b={fmt(mesh.b)} h={fmt(mesh.h)} "
            f"vertices={len(mesh.vertices)} triangles={len(mesh.triangles)}\n")
    lines = [head]
    for (x, y), f in zip(mesh.vertices, mesh.boundary_flags):
        lines.append(f"{fmt(x)} {fmt(y)} {int(f)}\n")
    write_text(node_path, "".join(lines))
    lines = [head]
    for i, j, k in mesh.triangles:
        lines.append(f"{int(i)} {int(j)} {int(k)}\n")
    write_text(ele_path, "".join(lines))


def _data_rows(path, lines):
    """(line number, fields) of each non-comment line of a mesh file, each
    of which must hold three fields."""
    rows = []
    for no, ln in enumerate(lines, 1):
        if ln.strip() and not ln.startswith("#"):
            fields = ln.split()
            if len(fields) != 3:
                raise GeometryError(f"{path}:{no}: expected 3 fields, got {len(fields)}")
            rows.append((no, fields))
    return rows


def read_mesh(node_path, ele_path) -> TriMesh:
    """Read mesh files written by export_mesh.

    Header comments are optional; without one the radii are inferred from
    the vertex coordinates and h is reported as 0. A line that does not hold
    three numbers, a flag other than 0, 1 or 2, or a vertex index outside
    the node file raises GeometryError naming the file and line; a node
    file without vertex lines raises it naming the file.
    """
    with open(node_path, encoding="utf-8") as f:
        node_lines = f.readlines()
    with open(ele_path, encoding="utf-8") as f:
        ele_lines = f.readlines()

    fields = {}
    for ln in node_lines:
        if ln.startswith("#"):
            for token in ln.lstrip("# ").split():
                if "=" in token:
                    key, _, val = token.partition("=")
                    fields[key] = val

    verts, flags, tris = [], [], []
    for no, (x, y, flag) in _data_rows(node_path, node_lines):
        try:
            verts.append([float(x), float(y)])
            flags.append(int(flag))
        except ValueError as exc:
            raise GeometryError(f"{node_path}:{no}: {exc}") from None
        if flags[-1] not in (0, 1, 2):
            raise GeometryError(f"{node_path}:{no}: boundary flag {flags[-1]} is not 0, 1 or 2")
    if not verts:
        raise GeometryError(f"{node_path}: no vertex lines")
    for no, row in _data_rows(ele_path, ele_lines):
        try:
            tris.append([int(v) for v in row])
        except ValueError as exc:
            raise GeometryError(f"{ele_path}:{no}: {exc}") from None
        if not all(0 <= v < len(verts) for v in tris[-1]):
            raise GeometryError(f"{ele_path}:{no}: vertex index outside [0, {len(verts)})")
    verts = np.array(verts, dtype=np.float64).reshape(-1, 2)
    flags = np.array(flags, dtype=np.int8)
    tris = np.array(tris, dtype=np.int64).reshape(-1, 3)

    radii = np.hypot(verts[:, 0], verts[:, 1])
    a = float(fields.get("a", radii.min()))
    b = float(fields.get("b", radii.max()))
    return TriMesh(verts, tris, flags, a, b, float(fields.get("h", 0.0)))
