"""Geometry: annulus records, polar grids, triangulation, mesh files."""

import hashlib

import numpy as np
import pytest

from annulus_rd import geometry
from annulus_rd.geometry import (
    DESK_SCALE_H,
    PAPER_FIDELITY_H,
    GeometryError,
    MeshConvergenceError,
    build_polar_grid,
    export_mesh,
    make_annulus,
    mesh_edges,
    read_mesh,
    triangle_areas,
    triangle_quality,
    triangulate_annulus,
)


def test_annulus_validation():
    with pytest.raises(GeometryError):
        make_annulus(0.0, 1.0)
    with pytest.raises(GeometryError):
        make_annulus(-0.5, 1.0)
    with pytest.raises(GeometryError):
        make_annulus(1.0, 1.0)
    with pytest.raises(GeometryError):
        make_annulus(1.0, 0.5)
    geom = make_annulus(0.5, 1.0)
    assert geom.rho == 0.5
    assert geom.area == pytest.approx(np.pi * 0.75, rel=1e-15)


def test_polar_grid_nodes():
    geom = make_annulus(0.5, 1.0)
    grid = build_polar_grid(geom, N=17, M=20)
    r = grid.radial_nodes
    assert r[0] == 0.5 and r[-1] == 1.0
    assert np.all(np.diff(r) > 0)
    # Chebyshev-Gauss-Lobatto spacing clusters at both ends
    assert np.diff(r)[0] < np.diff(r)[len(r) // 2]
    theta = grid.angular_nodes
    assert theta[0] == 0.0
    assert len(theta) == 20


def test_angular_grid_periodicity():
    # theta_{j+M} = theta_j mod 2 pi, exactly as floats
    geom = make_annulus(0.5, 1.0)
    grid = build_polar_grid(geom, N=8, M=12)
    wrapped = np.mod(grid.angular_nodes + 2.0 * np.pi, 2.0 * np.pi)
    assert np.allclose(wrapped, grid.angular_nodes, rtol=0, atol=1e-15)


def test_polar_grid_reproducible():
    geom = make_annulus(0.7, 2.1)
    g1 = build_polar_grid(geom, N=33, M=16)
    g2 = build_polar_grid(geom, N=33, M=16)
    assert np.array_equal(g1.radial_nodes, g2.radial_nodes)
    assert np.array_equal(g1.angular_nodes, g2.angular_nodes)


def test_polar_grid_validation():
    geom = make_annulus(0.5, 1.0)
    with pytest.raises(GeometryError):
        build_polar_grid(geom, N=3, M=10)
    with pytest.raises(GeometryError):
        build_polar_grid(geom, N=10, M=7)  # odd angular count


@pytest.mark.parametrize("N, M", [(95.7, 90), (95, 90.9), (np.nan, 90), (95, np.inf)])
def test_polar_grid_refuses_non_integer_sizes(N, M):
    # refused before the integer cast, which would truncate 95.7 to 95
    with pytest.raises(GeometryError, match="node counts must be integers"):
        build_polar_grid(make_annulus(0.5, 1.0), N=N, M=M)
    grid = build_polar_grid(make_annulus(0.5, 1.0), N=95.0, M=np.int64(90))
    assert (grid.N, grid.M, len(grid.radial_nodes)) == (95, 90, 95)


def test_triangulation_deterministic():
    geom = make_annulus(0.5, 1.0)
    m1 = triangulate_annulus(geom, 0.15)
    m2 = triangulate_annulus(geom, 0.15)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.boundary_flags, m2.boundary_flags)


# sha256 of vertices, triangles and boundary_flags, as recorded from the
# mesher's earlier formulations (np.add.at scatter, 2-D np.unique of edges,
# (n, 2) point array; the last three entries from qhull at every
# retriangulation, before the edge-flip repair); the current loop must
# reproduce their meshes byte for byte
MESH_GOLDEN = {
    (0.5, 1.0, 0.2): ("87e472adf2216b235a824074f8f01de74094ecf28eac52e9b2c94198cf4370d8",
                      "fb36894e3226f13fa6d729a9199b3e772f12953896834263b4fd6260f019c8e8",
                      "b2254aa2f9a72be371333d8b4234558eab908f5de07fac0156433856b036fa5b"),
    (0.5, 1.0, 0.15): ("3481b5fc25ea6926c4c191c4ee25866b6102a073597d6c56e2c0cb0061c6e3a8",
                       "4a9448f4674a6b9e33a4f2d1b05a05288014ba219593740532b697528832b240",
                       "8a4c4e62f76c3f1d556ec0b450fb3f383a0db4d612ba39c0cd7f15f6c5f50c88"),
    (0.5, 1.0, DESK_SCALE_H): (
        "9f13e5d6dafe4845694b38dbf885bf0f309e37ff8424c239e25c386a943c3746",
        "50faf423af0075d51ba3f42c201c6f28d2d49c669af15133b902aedbaefb7fff",
        "e12b7e74fc9486b304a7eb3cae095e3540a0680aefdf9222ccf873b88c6fdeb6"),
    (1.0, 2.0, 0.2): ("cb6059a88b468a152a1adf0d668ef120acf57f07b41c3ae41aa2738c0ac9bddc",
                      "eebd07521f1fd8dfad40b0f908cd02b4c5cdd337c148db0e27b5f8fd1e576423",
                      "84dfc6b259ef88e1b688d9574e89fec8ab6d5cea26f358692c3b58fcd527aed3"),
    # the hopf-split and criterion-10 mesh
    (0.5, 1.0, PAPER_FIDELITY_H): (
        "1af2e9407735f21c72855f9d6eb93cf43c60b46d482f1910cdd237a61e4d5d91",
        "797e308d0a60f905a10313bfa6587d7c7983a0617e7953e5f7082d9293212202",
        "0601a6dc8da8403398b7306c2e548f62eee55c7f2290c6981d5ee4dc33889afb"),
    # a thin and a thick annulus: repairs declined for ties, and accepted
    (0.5, 0.7, 0.05): ("d9cb1d21c70dc2bc6cb85c3393a9f9c174e867c8748b58faa880c7d2af3df0ec",
                       "b9d21faeb1d73d623ec1eefa8bb6e2d42f168ae497878f15b467c07f857cf70e",
                       "bd834913151ae83de0e5bc6f22a17ce1fdb067b1b73e47b5aec4126516f9941e"),
    (0.5, 2.1, 0.1): ("1417a145b6c6d2790346c671efb2caee7eaf60b583667679c7ae7665230fcbb8",
                      "1291b33da26e896e7639f4afe40b082b370404b50ee379ba685de8739347edee",
                      "4d106cff7a83f1341f4c169d37a83df008afeb468d30cecbab9b8ddd5ea1c6c1"),
    # a thin annulus with ties: the mesh whose repair path depends most on
    # how the repair treats ties and reflex hull turns
    (1.0, 1.5, 0.05): ("28313ac64ca7b29445e033dcf3dd8cc09f70ef4a38d65362ce42d17f3ce21f1b",
                       "d38f59ff9cf6812e70740d199c16d108b1d7fb8aad4956468c17af0470c23c7c",
                       "c504b79476efd5e781f2bb5acd88d68c325bd106cd7c10b4f090dbb24fe9649e"),
}


def _digests(mesh):
    return tuple(hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
                 for arr in (mesh.vertices, mesh.triangles, mesh.boundary_flags))


@pytest.mark.parametrize("a, b, h", list(MESH_GOLDEN))
def test_triangulation_golden_bytes(a, b, h):
    mesh = triangulate_annulus(make_annulus(a, b), h)
    assert (mesh.vertices.dtype, mesh.triangles.dtype, mesh.boundary_flags.dtype) == (
        np.float64, np.int64, np.int8)
    assert _digests(mesh) == MESH_GOLDEN[(a, b, h)]


@pytest.mark.parametrize("a, b, h", list(MESH_GOLDEN))
def test_golden_bytes_with_qhull_at_every_retriangulation(monkeypatch, a, b, h):
    # with every repair declined, qhull triangulates at every step: the
    # reference that the accepted repairs must reproduce
    monkeypatch.setattr(geometry, "_repair_delaunay", lambda *args: None)
    assert _digests(triangulate_annulus(make_annulus(a, b), h)) == MESH_GOLDEN[(a, b, h)]


def _qhull_bars(x, y, a, b, geps):
    """mesh_edges of qhull's triangles with centroid inside by geps, computed
    here independently of the mesher's helpers."""
    p = np.column_stack([x, y])
    tri = geometry.Delaunay(p).simplices
    c = p[tri].mean(axis=1)
    r = np.hypot(c[:, 0], c[:, 1])
    return mesh_edges(tri[np.maximum(r - b, a - r) < -geps])


def test_accepted_repairs_give_qhull_bars(monkeypatch):
    accepted = []
    real = geometry._repair_delaunay

    def spy(x, y, tri, nbr, a, b, geps):
        out = real(x, y, tri, nbr, a, b, geps)
        if out is not None:
            tri, _, interior = out
            accepted.append(np.array_equal(mesh_edges(tri[interior]),
                                           _qhull_bars(x, y, a, b, geps)))
        return out

    monkeypatch.setattr(geometry, "_repair_delaunay", spy)
    triangulate_annulus(make_annulus(0.5, 1.0), DESK_SCALE_H)
    assert len(accepted) == 20 and all(accepted)


def test_cocircular_ties_are_left_to_qhull(monkeypatch):
    # the mirror-symmetric lattice of (1, 2, 0.2) keeps trapezoids inside the
    # annulus co-circular to round-off, where either diagonal is Delaunay and
    # qhull's choice is arbitrary: the repair must decline, and qhull decide
    events = []
    real_to_flip, real_qhull = geometry._to_flip, geometry.Delaunay

    def to_flip(x, y, tri, nbr, t, k, interior):
        out = real_to_flip(x, y, tri, nbr, t, k, interior)
        if out is None:
            # the quadruples (vertices of t, then the far vertex of its
            # neighbour s) of the edges checked that touch the interior
            s = nbr[t, k]
            quad = np.column_stack([tri[t, k], tri[t, (k + 1) % 3], tri[t, (k + 2) % 3],
                                    tri[s].sum(axis=1) - tri[t, (k + 1) % 3] - tri[t, (k + 2) % 3]])
            events.append(("tie", quad[interior[t] | interior[s]], x.copy(), y.copy()))
        return out

    def qhull(points):
        events.append(("qhull", points.copy()))
        return real_qhull(points)

    monkeypatch.setattr(geometry, "_to_flip", to_flip)
    monkeypatch.setattr(geometry, "Delaunay", qhull)
    triangulate_annulus(make_annulus(1.0, 2.0), 0.2)
    tied = [i for i, event in enumerate(events) if event[0] == "tie"]
    assert len(tied) >= 10
    for i in tied:
        _, quad, x, y = events[i]
        det, scale = geometry._incircle(x, y, *quad.T)
        assert np.any(np.abs(det) <= geometry._MARGIN * scale)
        assert events[i + 1][0] == "qhull"
        assert np.array_equal(events[i + 1][1], np.column_stack([x, y]))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_mesh_edges_matches_pairwise_unique(dtype):
    # the 1-D key encoding must give the values, order and dtype of a
    # row-wise unique of the sorted pairs
    rng = np.random.default_rng(7)
    for n_nodes, n_tri in ((3, 1), (40, 60), (5000, 20000)):
        tri = rng.integers(0, n_nodes, size=(n_tri, 3)).astype(dtype)
        want = np.unique(np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]),
                                 axis=1), axis=0)
        got = mesh_edges(tri)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("a, b, h, qhull_calls, retriangulations", [
    pytest.param(0.5, 1.0, DESK_SCALE_H, 9, 29, id="desk"),
    pytest.param(0.5, 1.0, 0.2, 5, 19, id="70-points"),
    pytest.param(1.0, 1.5, 0.05, 16, 37, id="thin-with-ties"),
])
def test_delaunay_calls(monkeypatch, a, b, h, qhull_calls, retriangulations):
    # pins the re-triangulation schedule (the lattice, the steps in the loop
    # and the final clean-up) and the qhull calls among them, and that every
    # Delaunay call goes through the module-global name (the benchmark's
    # per-layer hook wraps it)
    calls, repairs = [], []
    real_qhull, real_repair = geometry.Delaunay, geometry._repair_delaunay

    def counting(points):
        calls.append(len(points))
        return real_qhull(points)

    def repair(*args):
        out = real_repair(*args)
        repairs.append(out is not None)
        return out

    monkeypatch.setattr(geometry, "Delaunay", counting)
    monkeypatch.setattr(geometry, "_repair_delaunay", repair)
    triangulate_annulus(make_annulus(a, b), h)
    assert len(calls) + sum(repairs) == retriangulations
    assert len(calls) == qhull_calls


def test_convergence_error_reports_retriangulations(monkeypatch):
    monkeypatch.setattr(geometry, "_MAX_ITER", 40)
    with pytest.raises(MeshConvergenceError) as err:
        triangulate_annulus(make_annulus(0.5, 1.0), DESK_SCALE_H)
    stats = err.value.stats
    assert stats["iterations"] == 40
    assert stats["retriangulations"] > stats["qhull_calls"] >= 1


def test_triangulation_quality_and_area():
    geom = make_annulus(0.5, 1.0)
    mesh = triangulate_annulus(geom, 0.15)
    q = triangle_quality(mesh.vertices, mesh.triangles)
    assert q.min() >= 0.3
    area = triangle_areas(mesh.vertices, mesh.triangles).sum()
    assert abs(area - geom.area) / geom.area < 0.01


def test_triangulation_euler_relation():
    # V - E + T = 0 on an annulus; with every boundary edge on one triangle
    # this pins T = 2V - B where B counts boundary vertices
    geom = make_annulus(0.5, 1.0)
    mesh = triangulate_annulus(geom, DESK_SCALE_H)
    edges = mesh_edges(mesh.triangles)
    n_v = len(mesh.vertices)
    n_e = len(edges)
    n_t = len(mesh.triangles)
    assert n_v - n_e + n_t == 0
    n_b = int(np.sum(mesh.boundary_flags > 0))
    assert n_t == 2 * n_v - n_b


def test_boundary_flags_sit_on_circles():
    geom = make_annulus(0.5, 1.0)
    mesh = triangulate_annulus(geom, 0.15)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    inner = mesh.boundary_flags == 1
    outer = mesh.boundary_flags == 2
    assert inner.any() and outer.any()
    assert np.abs(r[inner] - geom.a).max() < 1e-9
    assert np.abs(r[outer] - geom.b).max() < 1e-9
    interior = mesh.boundary_flags == 0
    assert r[interior].min() > geom.a and r[interior].max() < geom.b


def test_triangulation_h_validation():
    geom = make_annulus(0.5, 1.0)
    with pytest.raises(GeometryError):
        triangulate_annulus(geom, 0.0)
    with pytest.raises(GeometryError):
        triangulate_annulus(geom, 0.5)  # h must be below the thickness


def test_seed_lattice_size_refused_before_it_is_built(monkeypatch):
    # the count the limit is checked on is the lattice's own point count
    for b, h in ((1.0, 0.0286), (1.0, 0.2), (2.3, 0.013), (1.0, 0.005)):
        assert geometry._lattice_size(b, h) == len(geometry._hex_lattice(b, h))

    # h = 1e-5 would seed about 4.6e10 points
    def unreached(b, h):
        raise AssertionError("the seed lattice was built")

    monkeypatch.setattr(geometry, "_hex_lattice", unreached)
    with pytest.raises(GeometryError, match="lattice points, over the limit 4,000,000"):
        triangulate_annulus(make_annulus(0.5, 1.0), 1e-5)


def test_mesh_roundtrip(tmp_path):
    geom = make_annulus(0.5, 1.0)
    mesh = triangulate_annulus(geom, 0.18)
    node, ele = tmp_path / "m.node", tmp_path / "m.ele"
    export_mesh(mesh, node, ele)
    back = read_mesh(node, ele)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_flags, mesh.boundary_flags)
    assert back.a == mesh.a and back.b == mesh.b and back.h == mesh.h


@pytest.mark.parametrize("which, line, text, message", [
    ("node", 3, "0.5 0.0\n", "expected 3 fields, got 2"),
    ("node", 3, "0.5 0.0 1 4\n", "expected 3 fields, got 4"),
    ("node", 3, "0.5 0.0 7\n", "boundary flag 7 is not 0, 1 or 2"),
    ("node", 3, "0.5 0.0 -1\n", "boundary flag -1 is not 0, 1 or 2"),
    ("node", 3, "0.5 zero 1\n", "could not convert"),
    ("ele", 2, "0 1\n", "expected 3 fields, got 2"),
    ("ele", 2, "-1 1 2\n", "vertex index outside"),
    ("ele", 2, "0 1 99999\n", "vertex index outside"),
    ("ele", 2, "0 1 2.5\n", "invalid literal"),
    # text None: the file is cut after `line` lines, leaving no data line
    ("node", 1, None, "no vertex lines"),
    ("node", 0, None, "no vertex lines"),
], ids=["node-2-fields", "node-4-fields", "flag-7", "flag-minus-1", "node-not-a-number",
        "ele-2-fields", "index-minus-1", "index-99999", "index-not-an-integer",
        "node-header-only", "node-empty"])
def test_read_mesh_rejects_malformed_lines(tmp_path, which, line, text, message):
    mesh = triangulate_annulus(make_annulus(0.5, 1.0), 0.2)
    files = {"node": tmp_path / "m.node", "ele": tmp_path / "m.ele"}
    export_mesh(mesh, files["node"], files["ele"])
    # replace file line `line` (1-based; line 1 is the header)
    lines = files[which].read_text().splitlines(keepends=True)
    if text is None:
        lines = lines[:line]
        where = rf"m\.{which}: "
    else:
        lines[line - 1] = text
        where = rf"m\.{which}:{line}: .*"
    files[which].write_text("".join(lines))
    with pytest.raises(GeometryError, match=where + message):
        read_mesh(files["node"], files["ele"])


def test_mesh_export_stable_bytes(tmp_path):
    geom = make_annulus(0.5, 1.0)
    mesh = triangulate_annulus(geom, 0.2)
    export_mesh(mesh, tmp_path / "a.node", tmp_path / "a.ele")
    export_mesh(mesh, tmp_path / "b.node", tmp_path / "b.ele")
    assert (tmp_path / "a.node").read_bytes() == (tmp_path / "b.node").read_bytes()
    assert (tmp_path / "a.ele").read_bytes() == (tmp_path / "b.ele").read_bytes()


def test_triangles_positively_oriented():
    geom = make_annulus(0.5, 1.0)
    mesh = triangulate_annulus(geom, 0.15)
    p = mesh.vertices[mesh.triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    assert np.all(cross > 0)
