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

    N is the radial node count (N >= 4); M is the even angular node count
    (M >= 4). The radial rule is cos(pi j/(N-1)) affinely mapped to [a, b].
    """
    N = int(N)
    M = int(M)
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


def _signed_distance(p: np.ndarray, a: float, b: float) -> np.ndarray:
    r = np.hypot(p[:, 0], p[:, 1])
    return np.maximum(r - b, a - r)


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
    index), so the unique keys come out in the lexicographic order of the
    pairs; the result has the dtype of the triangle list.
    """
    n = int(triangles.max()) + 1 if triangles.size else 1
    t = triangles.astype(np.int64)
    e0 = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    e1 = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    keys = np.unique(np.minimum(e0, e1) * n + np.maximum(e0, e1))
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


def _interior_triangles(p: np.ndarray, a: float, b: float, geps: float) -> np.ndarray:
    """Delaunay triangles of p whose centroid lies inside the annulus by geps."""
    tri = Delaunay(p).simplices
    return tri[_signed_distance(p[tri].mean(axis=1), a, b) < -geps]


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
    p = p[_signed_distance(p, a, b) < geps]

    # the relaxation works on x and y as contiguous columns; p is formed
    # from them only for qhull and for the final clean-up
    x, y = p[:, 0].copy(), p[:, 1].copy()
    n = len(x)
    xold = yold = np.full(n, np.inf)
    maxdp = np.inf
    for iteration in range(_MAX_ITER):
        if np.max(np.hypot(x - xold, y - yold)) > _TTOL * h:
            xold, yold = x, y
            bars = mesh_edges(_interior_triangles(np.column_stack([x, y]), a, b, geps))
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

        interior = np.maximum(r - b, a - r) < -geps
        move = _DELTAT * np.hypot(tx, ty)
        maxdp = move[interior].max() if interior.any() else 0.0
        if maxdp < _DPTOL * h:
            break
    else:
        stats = {"iterations": _MAX_ITER, "max_displacement_over_h": float(maxdp / h),
                 "vertices": n}
        raise MeshConvergenceError("mesh relaxation did not settle", stats)

    p = np.column_stack([x, y])
    # final clean-up: snap boundary nodes exactly onto the circles,
    # re-triangulate once, drop exterior triangles, orient positively
    r = np.hypot(p[:, 0], p[:, 1])
    snap_in = np.abs(r - a) < 10 * geps
    snap_out = np.abs(r - b) < 10 * geps
    p[snap_in] *= (a / r[snap_in])[:, None]
    p[snap_out] *= (b / r[snap_out])[:, None]

    tri = _interior_triangles(p, a, b, geps)

    used = np.unique(tri)
    remap = -np.ones(len(p), dtype=np.int64)
    remap[used] = np.arange(len(used))
    p = p[used]
    tri = remap[tri]

    areas = triangle_areas(p, tri)
    flip = areas < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]

    r = np.hypot(p[:, 0], p[:, 1])
    flags = np.zeros(len(p), dtype=np.int8)
    flags[np.abs(r - a) < 1e-9] = 1
    flags[np.abs(r - b) < 1e-9] = 2

    mesh = TriMesh(p, tri, flags, a, b, h)
    q = triangle_quality(p, tri)
    if q.min() < 0.3:
        stats = {"iterations": iteration + 1, "min_quality": float(q.min()),
                 "vertices": int(len(p)), "triangles": int(len(tri))}
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


def read_mesh(node_path, ele_path) -> TriMesh:
    """Read mesh files written by export_mesh.

    Header comments are optional; without one the radii are inferred from
    the vertex coordinates and h is reported as 0.
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

    rows = [ln.split() for ln in node_lines if ln.strip() and not ln.startswith("#")]
    verts = np.array([[float(r[0]), float(r[1])] for r in rows])
    flags = np.array([int(r[2]) for r in rows], dtype=np.int8)
    tris = np.array([[int(v) for v in ln.split()] for ln in ele_lines
                     if ln.strip() and not ln.startswith("#")], dtype=np.int64)

    radii = np.hypot(verts[:, 0], verts[:, 1])
    a = float(fields.get("a", radii.min()))
    b = float(fields.get("b", radii.max()))
    return TriMesh(verts, tris, flags, a, b, float(fields.get("h", 0.0)))
