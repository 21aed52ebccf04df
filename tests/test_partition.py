"""Partition: parameter-plane sweeps, curve extraction, exports."""

import hashlib
import os
import sys

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from annulus_rd import _util, partition
from annulus_rd.geometry import make_annulus
from annulus_rd.partition import (
    CODE_LABELS,
    CURVE_CSV_HEADER,
    CurveSet,
    LABEL_CODES,
    PartitionError,
    PartitionInputError,
    REGION_CSV_HEADER,
    SweepSpec,
    build_curves,
    discriminant_curve,
    export_curves,
    export_region_map,
    first_principles_labels,
    import_region_labels,
    sweep_classify,
    transcritical_curve,
)
from annulus_rd.spectrum import ModeIndex
from annulus_rd.stability import (
    KineticParams,
    StabilityLabel,
    classify_point,
    hopf_admissibility,
    trace_det,
)

GEOM = make_annulus(0.5, 1.0)
MODE = ModeIndex(0, 0.27)


def _spec(gamma, d, n=100):
    return SweepSpec(0.005, 1.0, 0.005, 1.0, n, n, gamma, d, MODE, GEOM)


def test_spec_validation():
    with pytest.raises(PartitionError):
        SweepSpec(0.0, 1.0, 0.005, 1.0, 10, 10, 1.0, 1.0, MODE, GEOM)
    with pytest.raises(PartitionError):
        SweepSpec(0.5, 0.1, 0.005, 1.0, 10, 10, 1.0, 1.0, MODE, GEOM)
    with pytest.raises(PartitionError):
        SweepSpec(0.005, 1.0, 0.005, 1.0, 1, 10, 1.0, 1.0, MODE, GEOM)
    with pytest.raises(PartitionError):
        SweepSpec(0.005, 1.0, 0.005, 1.0, 10, 10, -2.0, 1.0, MODE, GEOM)
    with pytest.raises(PartitionError):
        SweepSpec(0.005, 1.0, 0.005, 1.0, 10, 10, 1.0, 1.0, MODE, GEOM, form="other")


@pytest.mark.parametrize("n_alpha, n_beta", [(10.5, 10), (10, 10.0), (10, "10")])
def test_spec_refuses_non_integer_grid_counts(n_alpha, n_beta):
    # n_alpha = 10.5 constructed, and the sweep then failed in linspace
    with pytest.raises(PartitionError, match="grid counts must be integers"):
        SweepSpec(0.005, 1.0, 0.005, 1.0, n_alpha, n_beta, 1.0, 1.0, MODE, GEOM)
    assert SweepSpec(0.005, 1.0, 0.005, 1.0, np.int64(10), 10, 1.0, 1.0, MODE, GEOM).n_alpha == 10


def test_refused_inputs_are_value_errors(tmp_path):
    # a refused input is a ValueError, so the CLI exits 4, and still a
    # PartitionError; a failed cross-check stays a RuntimeError only
    spec = _spec(21.0, 8.0, n=10)
    literal = SweepSpec(0.005, 1.0, 0.005, 1.0, 10, 10, 21.0, 8.0, MODE, GEOM,
                        form="paper-literal")
    region_csv = tmp_path / "region.csv"
    region_csv.write_text("alpha,beta,colour\n")
    refusals = (
        lambda: SweepSpec(0.0, 1.0, 0.005, 1.0, 10, 10, 1.0, 1.0, MODE, GEOM),
        lambda: transcritical_curve(spec, [2.0]),
        lambda: first_principles_labels(literal),
        lambda: import_region_labels(region_csv, 2, 2),
    )
    for refuse in refusals:
        with pytest.raises(PartitionInputError) as info:
            refuse()
        assert isinstance(info.value, ValueError) and isinstance(info.value, PartitionError)


def test_quiet_configuration_is_temporally_stable():
    counts = sweep_classify(_spec(1.0, 1.4)).counts()
    assert counts["HopfInstability"] == 0
    assert counts["TranscriticalCurve"] == 0
    assert counts["StableNode"] + counts["StableSpiral"] == 100 * 100


def test_active_configuration_counts():
    counts = sweep_classify(_spec(21.0, 8.0, n=200)).counts()
    assert counts["HopfInstability"] == 121
    assert counts["TuringInstability"] == 1773
    assert counts["StableNode"] == 1896
    assert sum(counts.values()) == 200 * 200


def test_sweep_matches_first_principles():
    spec = _spec(21.0, 8.0)
    assert np.array_equal(sweep_classify(spec).labels, first_principles_labels(spec))
    quiet = _spec(1.0, 1.4)
    assert np.array_equal(sweep_classify(quiet).labels, first_principles_labels(quiet))


def test_first_principles_requires_consistent_form():
    spec = SweepSpec(0.005, 1.0, 0.005, 1.0, 10, 10, 21.0, 8.0, MODE, GEOM,
                     form="paper-literal")
    with pytest.raises(PartitionError):
        first_principles_labels(spec)


def test_sweep_thread_determinism():
    spec = _spec(21.0, 8.0, n=50)
    lab1 = sweep_classify(spec, threads=1).labels
    lab4 = sweep_classify(spec, threads=4).labels
    assert np.array_equal(lab1, lab4)


def test_sweep_workers_past_the_cores_fill_every_block(monkeypatch):
    # eight workers on blocks of 7 cells, the interpreter switching threads
    # every microsecond: each block written into the uninitialized map once,
    # so a block lost or misplaced shows against the oracle
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(_util, "BLOCK", 7)
    spec = _spec(21.0, 8.0, n=40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        labels = sweep_classify(spec, threads=8).labels
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(labels, first_principles_labels(spec))


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts asked of a stand-in pool that maps in this thread.

    No thread is started whatever count is asked for.
    """
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(partition, "ThreadPoolExecutor", SerialPool)
    return seen


def test_sweep_threads_capped_at_rows(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    spec = _spec(21.0, 8.0, n=20)
    region = sweep_classify(spec, threads=1000)
    assert pool_sizes == [20]
    assert np.array_equal(region.labels, sweep_classify(spec).labels)


@pytest.mark.parametrize("cores, pools", [(3, [3]), (None, [])])
def test_sweep_threads_capped_at_cores(monkeypatch, pool_sizes, cores, pools):
    # threads past the core count only wait; an unknown count means one
    # worker, which runs in this thread without a pool
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    spec = _spec(21.0, 8.0, n=20)
    region = sweep_classify(spec, threads=1000)
    assert pool_sizes == pools
    assert np.array_equal(region.labels, sweep_classify(spec).labels)


@pytest.mark.parametrize("threads", [1.5, 2.5, 0, -3, True, "2", None])
def test_sweep_refuses_threads_that_are_not_counts(threads):
    # 1.5 raised the pool's TypeError, 2.5 ran, 0 and -3 ran serially
    with pytest.raises(PartitionInputError, match="threads must be an integer of at least 1"):
        sweep_classify(_spec(21.0, 8.0, n=20), threads=threads)


def test_sweep_accepts_numpy_thread_counts():
    spec = _spec(21.0, 8.0, n=20)
    assert np.array_equal(sweep_classify(spec, threads=np.int64(2)).labels,
                          sweep_classify(spec).labels)


def test_turing_cells_nest_with_increasing_d():
    code = LABEL_CODES[StabilityLabel.TURING]
    prev = None
    for d in (8.0, 11.0, 14.0, 17.0, 20.0):
        mask = sweep_classify(_spec(21.0, d)).labels == code
        if prev is not None:
            assert int((prev & ~mask).sum()) == 0
        prev = mask


@pytest.mark.xfail(strict=True,
                   reason="stable-node cells migrate to spiral as d grows; "
                          "the nesting claim does not hold for this label")
def test_stable_node_cells_nest_with_increasing_d():
    code = LABEL_CODES[StabilityLabel.STABLE_NODE]
    prev = None
    lost = []
    for d in (8.0, 11.0, 14.0, 17.0, 20.0):
        mask = sweep_classify(_spec(21.0, d)).labels == code
        if prev is not None:
            lost.append(int((prev & ~mask).sum()))
        prev = mask
    assert lost == [0, 0, 0, 0]


def test_discriminant_curve_flips_sign():
    spec = _spec(21.0, 8.0)
    eta_sq = spec.eta_sq
    for alpha in (0.1, 0.4):
        pts = discriminant_curve(spec, [alpha])
        assert len(pts) > 0
        for al, be in pts:
            Tm, Dm = trace_det(KineticParams(al, be - 1e-3, 21.0, 8.0), eta_sq)
            Tp, Dp = trace_det(KineticParams(al, be + 1e-3, 21.0, 8.0), eta_sq)
            assert (Tm * Tm - 4.0 * Dm) * (Tp * Tp - 4.0 * Dp) < 0.0


def test_transcritical_points():
    spec = _spec(21.0, 8.0)
    pts = transcritical_curve(spec, np.linspace(0.005, 0.995, 100))
    assert pts.shape == (6, 2)
    assert pts[0, 0] == pytest.approx(0.005)
    assert pts[0, 1] == pytest.approx(0.70152592, abs=1e-6)
    # onset beta decreases as alpha grows along this branch
    assert np.all(np.diff(pts[:, 1]) < 0)
    eta_sq = spec.eta_sq
    for al, be in pts:
        v = classify_point(KineticParams(al, be, 21.0, 8.0), eta_sq)
        assert v.label is StabilityLabel.TRANSCRITICAL_CURVE
        assert v.determinant > 0.0


def test_transcritical_empty_when_not_admissible():
    quiet = _spec(1.0, 1.4)
    pts = transcritical_curve(quiet, np.linspace(0.05, 0.9, 5))
    assert pts.shape == (0, 2)
    adm = hopf_admissibility(1.4, 1.0, MODE, 0.5, 0.5)
    assert not adm.exact_admissible

    active_adm = hopf_admissibility(8.0, 21.0, MODE, 0.5, 0.5)
    assert active_adm.exact_admissible
    assert sweep_classify(_spec(21.0, 8.0)).counts()["HopfInstability"] > 0


def test_curve_sample_outside_window():
    spec = _spec(21.0, 8.0)
    with pytest.raises(PartitionError):
        discriminant_curve(spec, [2.0])
    with pytest.raises(PartitionError):
        transcritical_curve(spec, [0.0])


@pytest.mark.parametrize("curve, samples, bad", [
    (discriminant_curve, [0.4, 2.0], "2.0"),
    (transcritical_curve, [0.5, 0.7, np.nan], "nan"),
    (discriminant_curve, [0.0], "0.0"),
])
def test_curve_refuses_sample_before_evaluating(monkeypatch, unreached, curve, samples, bad):
    # every sample is checked first: no polynomial is built and no T/D
    # evaluated for the good samples ahead of the bad one
    spec = _spec(21.0, 8.0)
    for name in ("_cleared_trace", "_cleared_discriminant", "_trace_det"):
        monkeypatch.setattr(partition, name, unreached(name))
    with pytest.raises(PartitionInputError, match=f"alpha sample np.float64\\({bad}\\) outside"):
        curve(spec, samples)


def _scalar_bisect_roots(fn, lo, hi, samples=2001):
    """Bisection of one alpha's brackets, one bracket and one point at a time."""
    grid = np.linspace(lo, hi, samples)
    vals = fn(grid)
    roots = []
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
        x0, x1 = grid[i], grid[i + 1]
        f0 = vals[i]
        for _ in range(200):
            xm = 0.5 * (x0 + x1)
            fm = fn(xm)
            if fm == 0.0 or (x1 - x0) < 1e-15 * max(1.0, abs(xm)):
                x0 = x1 = xm
                break
            if (f0 < 0) == (fm < 0):
                x0, f0 = xm, fm
            else:
                x1 = xm
        roots.append(0.5 * (x0 + x1))
    for i in np.nonzero(vals == 0.0)[0]:
        roots.append(grid[i])
    return partition._merge_close(np.sort(np.array(roots))) if roots else np.empty(0)


_GRID = np.linspace(0.005, 1.0, 2001)


@pytest.mark.parametrize("fn, alphas", [
    # three roots per alpha, one of them sliding with alpha
    (lambda alpha, beta: (beta - 0.3 * alpha) * (beta - 0.61) * (beta - 0.9 + 0.05 * alpha),
     [0.1, 0.45, 0.9, 1.0]),
    # roots exactly on grid points, met as zero grid values, next to one that is not
    (lambda alpha, beta: (beta - alpha) * (beta - _GRID[1400]),
     [_GRID[3], _GRID[700], 0.41234, _GRID[1400]]),
    # no sign change at all, and a double root that bisection cannot see
    (lambda alpha, beta: 1.0 + alpha * beta * beta, [0.2, 0.8]),
    (lambda alpha, beta: (beta - alpha) * (beta - alpha), [0.2, 0.8]),
    # roots at both window ends only
    (lambda alpha, beta: (beta - 0.005) * (beta - 1.0) * alpha, [0.25, 0.75]),
    # no samples: no root arrays
    (lambda alpha, beta: beta - alpha, []),
])
def test_bisect_roots_matches_scalar_bisection(fn, alphas):
    # fn multiplies and adds only, so an array and a scalar evaluation round
    # alike and the batched brackets must end where the scalar ones do
    alphas = np.array(alphas)
    batched = partition._bisect_roots(fn, alphas, 0.005, 1.0)
    assert len(batched) == len(alphas)
    for alpha, roots in zip(alphas, batched):
        want = _scalar_bisect_roots(lambda beta: fn(alpha, beta), 0.005, 1.0)
        assert roots.tobytes() == want.tobytes(), alpha


def test_bisect_roots_of_the_discriminant():
    # the curves' own defining function, against the scalar reference; a
    # scalar s**3 (C pow) and an array one round one unit apart on about 5%
    # of arguments, so the roots may differ by a few units, far inside the
    # cross-check's 1e-6
    spec = _spec(21.0, 8.0)
    eta_sq = spec.eta_sq

    def fn(alpha, beta):
        T, D = partition._trace_det(alpha, beta, spec.gamma, spec.d, eta_sq, spec.form)
        return T * T - 4.0 * D

    alphas = np.linspace(0.005, 0.995, 25)
    batched = partition._bisect_roots(fn, alphas, 0.005, 1.0)
    assert sum(len(roots) for roots in batched) > len(alphas)
    for alpha, roots in zip(alphas, batched):
        want = _scalar_bisect_roots(lambda beta: fn(alpha, beta), 0.005, 1.0)
        assert len(roots) == len(want)
        assert np.allclose(roots, want, rtol=0.0, atol=1e-13), alpha


# beta roots at piece boundaries of a row cut into blocks of 7: a sign
# change from grid[13] to grid[14], a zero at grid[21], and one that no
# block boundary meets
def _boundary_roots(alpha, beta):
    return (beta - 0.5 * (_GRID[13] + _GRID[14])) * (beta - _GRID[21]) * (beta - alpha)


@pytest.mark.parametrize("block", [7, 2 * 2001 + 1])
def test_block_size_changes_no_output(monkeypatch, block):
    # rows cut into pieces (7), and blocks of whole rows that do not divide
    # the grid (two beta grids and one value): the same labels, curve points
    # and bisection roots as the default blocks, for one thread and for two
    spec = _spec(21.0, 8.0, n=50)
    alphas = np.linspace(0.005, 0.995, 25)
    fn_alphas = np.array([0.1, 0.41234, _GRID[600]])

    def outputs():
        curves = build_curves(spec, alphas)
        roots = partition._bisect_roots(_boundary_roots, fn_alphas, 0.005, 1.0)
        return (sweep_classify(spec).labels.tobytes(),
                sweep_classify(spec, threads=2).labels.tobytes(),
                curves.discriminant.tobytes(), curves.transcritical.tobytes(),
                [r.tobytes() for r in roots])

    want = outputs()
    assert all(len(r) == 3 * 8 for r in want[-1])  # three float64 roots per alpha
    monkeypatch.setattr(_util, "BLOCK", block)
    assert outputs() == want


def test_blocks_tile_the_grid_in_row_major_order(monkeypatch):
    for block, n_rows, n_cols in ((7, 3, 20), (40, 5, 8), (40, 3, 40), (16384, 2, 2001)):
        monkeypatch.setattr(_util, "BLOCK", block)
        seen = []
        for rows, cols in _util.blocks(n_rows, n_cols):
            cells = np.arange(n_rows * n_cols).reshape(n_rows, n_cols)[rows, cols]
            assert 0 < cells.size <= block
            seen.extend(cells.ravel())
        assert seen == list(range(n_rows * n_cols))


def test_empty_alpha_set_gives_no_curve_points():
    curves = build_curves(_spec(21.0, 8.0), [])
    assert curves.discriminant.shape == curves.transcritical.shape == (0, 2)


def test_sweep_memory_stays_in_blocks(traced_peak_mb):
    # whole-grid temporaries took 57 MB of traced memory at 1000 x 1000;
    # the 1 MB label map and the blocks' temporaries take about 2
    spec = _spec(21.0, 8.0, n=1000)
    assert traced_peak_mb(lambda: sweep_classify(spec, threads=1)) < 6.0


def test_curve_memory_stays_in_blocks(traced_peak_mb):
    # a batch of 256 beta grids took 15.8 MB of traced memory; one block takes about 1
    spec = SweepSpec(0.005, 0.995, 0.005, 1.0, 2, 2, 21.0, 8.0, MODE, GEOM)
    assert traced_peak_mb(lambda: build_curves(spec, np.linspace(0.005, 0.995, 256))) < 4.0


def _random_coefs(rows, width):
    return np.random.default_rng(20261019).normal(size=(rows, width))


@pytest.mark.parametrize("polys", [
    _random_coefs(3, 4),
    np.vstack([_random_coefs(2, 7),
               partition._cleared_discriminant(_spec(21.0, 8.0), 3.7, np.array([0.4]))]),
    np.empty((0, 7)),
])
def test_companion_roots_match_polynomial_roots(polys):
    # each row of roots equals Polynomial(row).roots(), whose domain map
    # 0 + 1*r can only differ in the sign of a zero part
    got = partition._companion_roots(polys)
    assert got.shape == (len(polys), polys.shape[1] - 1)
    for row, roots in zip(polys, got):
        want = Polynomial(row).roots()
        assert np.array_equal(roots, want), row


@pytest.mark.parametrize("curve", [discriminant_curve, transcritical_curve])
def test_curve_batches_bound_the_bisection_grid(monkeypatch, curve):
    # the beta grids are scanned in blocks of whole rows, at most BLOCK grid
    # values each, and the brackets halved in batches, so no T/D evaluation
    # spans more than one block; the points are those of a single batch;
    # shuffled, every batch holds points of both curves
    spec = _spec(21.0, 8.0)
    batch = partition._CURVE_BATCH
    alphas = np.random.default_rng(7).permutation(np.linspace(0.005, 1.0, 2 * batch + batch // 2))
    trace_det, sizes = partition._trace_det, []

    def spy(alpha, beta, *args):
        sizes.append(np.broadcast(alpha, beta).size)
        assert sizes[-1] <= _util.BLOCK
        return trace_det(alpha, beta, *args)

    monkeypatch.setattr(partition, "_trace_det", spy)
    batched = curve(spec, alphas)
    assert max(sizes) == _util.BLOCK // 2001 * 2001
    assert all(np.isin(part, batched[:, 0]).any() for part in np.split(alphas, [batch, 2 * batch]))
    monkeypatch.setattr(partition, "_trace_det", trace_det)
    monkeypatch.setattr(partition, "_CURVE_BATCH", len(alphas))
    assert batched.tobytes() == curve(spec, alphas).tobytes()


def _row_by_row(cleared, operation):
    """cleared with operation applied to each row's Polynomial."""
    return lambda *args: np.array([operation(Polynomial(row)).coef for row in cleared(*args)])


def _shifted(cleared):
    """cleared with every root moved up by 1e-3."""
    return _row_by_row(cleared, lambda p: p(Polynomial([-1e-3, 1.0])))


def _extra_root(cleared):
    """cleared with one more root, at beta = 0.25, where neither curve passes."""
    return _row_by_row(cleared, lambda p: p * Polynomial([-0.25, 1.0]))


@pytest.mark.parametrize("fault, message", [
    (_shifted, "methods disagree"),
    (_extra_root, "no bisection partner"),
])
@pytest.mark.parametrize("builder, curve, alpha", [
    ("_cleared_discriminant", discriminant_curve, 0.4),
    ("_cleared_trace", transcritical_curve, 0.005),
])
def test_curve_cross_check_failures(monkeypatch, fault, message, builder, curve, alpha):
    # a polynomial whose roots disagree with bisection must abort the run
    spec = _spec(21.0, 8.0)
    assert len(curve(spec, [alpha])) == 1
    monkeypatch.setattr(partition, builder, fault(getattr(partition, builder)))
    with pytest.raises(PartitionError, match=message) as info:
        curve(spec, [alpha])
    assert not isinstance(info.value, ValueError)  # a failed computation, exit 5


@pytest.mark.parametrize("builder, curve", [
    ("_cleared_discriminant", discriminant_curve),
    ("_cleared_trace", transcritical_curve),
])
def test_curve_builds_each_batch_once(monkeypatch, builder, curve):
    # one builder call per batch of samples, in sample order
    spec = _spec(21.0, 8.0)
    batch = partition._CURVE_BATCH
    alphas = np.linspace(0.005, 1.0, 2 * batch + batch // 2)
    cleared, calls = getattr(partition, builder), []

    def spy(spec, eta_sq, batch_alphas, *args):
        calls.append(batch_alphas.copy())
        return cleared(spec, eta_sq, batch_alphas, *args)

    monkeypatch.setattr(partition, builder, spy)
    curve(spec, alphas)
    assert [len(c) for c in calls] == [batch, batch, batch // 2]
    assert np.concatenate(calls).tobytes() == alphas.tobytes()


def _reference_trace(spec, eta_sq, alpha):
    beta = Polynomial([0.0, 1.0])
    s = beta + alpha
    return spec.gamma * (beta - alpha - s**3) - (spec.d + 1.0) * eta_sq * s


def _reference_discriminant(spec, eta_sq, alpha):
    beta = Polynomial([0.0, 1.0])
    s = beta + alpha
    gamma = spec.gamma
    c = spec.d if spec.form == "consistent" else spec.d + 1.0
    sD = (gamma * (beta - alpha) - eta_sq * s) * (-gamma * s**2 - c * eta_sq) \
        + 2.0 * gamma * gamma * beta * s**2
    return _reference_trace(spec, eta_sq, alpha)**2 - 4.0 * s * sD


@pytest.mark.parametrize("form", ["consistent", "paper-literal"])
def test_cleared_polynomials_match_polynomial_arithmetic(form):
    # each row of the batched builders against the same formula written with
    # numpy.polynomial operators, one alpha at a time: the same degree, and
    # every coefficient within round-off, 1e-14 of the row's largest one;
    # eta_sq = gamma zeroes the leading term of the first factor of s*D
    rng = np.random.default_rng(20261018)
    alphas = np.array([0.005, 1.0, *rng.uniform(0.005, 1.0, 5)])
    for gamma, d in ((21.0, 8.0), (1.0, 1.4), (730.0, 5.0), *rng.uniform(0.1, 300.0, (3, 2))):
        spec = SweepSpec(0.005, 1.0, 0.005, 1.0, 2, 2, gamma, d, MODE, GEOM, form)
        for eta_sq in (0.0, spec.eta_sq, gamma, *rng.uniform(0.0, 60.0, 2)):
            for built, reference, width in ((partition._cleared_trace, _reference_trace, 4),
                                            (partition._cleared_discriminant,
                                             _reference_discriminant, 7)):
                rows = built(spec, eta_sq, alphas)
                assert rows.shape == (len(alphas), width)
                for alpha, got in zip(alphas, rows):
                    want = reference(spec, eta_sq, alpha).coef
                    assert len(want) == width and got[-1] != 0.0
                    bound = 1e-14 * np.abs(want).max()
                    assert np.all(np.abs(got - want) <= bound), (built.__name__, gamma, d,
                                                                 eta_sq, alpha)


# sha256 of build_curves(...).discriminant / .transcritical bytes over the
# curves window and 100 alpha samples, mode (0, 0.27): the four (gamma, d)
# pairs of the plane-analysis benchmark, and the first in paper-literal form
CURVE_GOLDEN = {
    (21.0, 8.0, "consistent"): (
        "7ef30e54058c0fcb779a8d5401fb19cb12e0671be67294fb47a7192845a06206",
        "ea0f76a34a7dbc3e852b04bbf681c3c9814651284d28522737707448607e5b4f"),
    (1.0, 1.4, "consistent"): (
        "386c279235de5b849c114a507cff802274a02fe7a40fb3ff7a2566c65c76be8b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (250.0, 10.0, "consistent"): (
        "14c2d55eeb6a8414171a7686aa9ef4594bdfca47ee5b66f03a6fce57ae302bfa",
        "630fbff88c1e79dfcde07769e148e03448452b7dd71bb517be18f2aea7496532"),
    (730.0, 5.0, "consistent"): (
        "83478a82358bd0c2840cb43cfad4df6501040a56cf50f97849d667480bba1794",
        "725adc72df7a697bd3d5d3cdec7a5b16df121c6040df594d69696cc6619e80d9"),
    (21.0, 8.0, "paper-literal"): (
        "a1d737ae2936ec9f88e1b06654de8c4c256a91dda2748ba78a23e47f294df6b1",
        "aa80c8a85554cb2accaf80917d87fc6a5dd98e09fb6c330b5ce9d396acee9416"),
}


@pytest.mark.parametrize("gamma, d, form", list(CURVE_GOLDEN))
def test_curves_golden_bytes(gamma, d, form):
    spec = SweepSpec(0.005, 0.995, 0.005, 1.0, 2, 2, gamma, d, MODE, GEOM, form)
    curves = build_curves(spec, np.linspace(0.005, 0.995, 100))
    digests = tuple(hashlib.sha256(points.tobytes()).hexdigest()
                    for points in (curves.discriminant, curves.transcritical))
    assert digests == CURVE_GOLDEN[(gamma, d, form)]



# beta roots of T^2 = 4D (discriminant) and of T = 0 with D > 0
# (transcritical) on the curves window at mode (0, 0.27), computed at 50
# digits by tools/oracle_goldens.py ("partitioning curves"):
# (gamma, d, form) -> alpha -> (discriminant betas, transcritical betas)
CURVE_ORACLE = {
    (21.0, 8.0, "consistent"): {
        0.005: ((0.61516039780654772689,),
                (0.70152592449130119591,)),
        0.1: ((0.027892875577899463455, 0.092794538211958063339, 0.36438586762533800384),
              ()),
        0.2: ((0.035999447711450187865,),
              ()),
        0.3: ((0.034451089825162504339,),
              ()),
        0.4: ((0.027804373245039441181,),
              ()),
        0.6: ((0.0097260922062353361746,),
              ()),
        0.8: ((),
              ()),
    },
    (730.0, 5.0, "consistent"): {
        0.005: ((0.0051430530107946025663, 0.40365118944552487833),
                (0.0050952513275756036199, 0.9852363628930205536)),
        0.1: ((0.054909251614719906735,),
              (0.11142396386384055579, 0.77262414848550955643)),
        0.2: ((0.071424186876625492415,),
              ()),
        0.3: ((0.072606554062448596332,),
              ()),
        0.4: ((0.065700121911509922894,),
              ()),
        0.6: ((0.040650087793729523325,),
              ()),
        0.8: ((0.013657976046713385524,),
              ()),
    },
    (21.0, 8.0, "paper-literal"): {
        0.005: ((0.6513349121456967334,),
                (0.70152592449130119591,)),
        0.1: ((0.0087946422652401171076, 0.098920111992535165266, 0.41023627961294879579),
              ()),
        0.2: ((0.010934925705898689368,),
              ()),
        0.3: ((0.006574468549812957066,),
              ()),
        0.4: ((),
              ()),
        0.6: ((),
              ()),
        0.8: ((),
              ()),
    },
}


@pytest.mark.parametrize("gamma, d, form", list(CURVE_ORACLE))
def test_curves_match_mpmath_roots(gamma, d, form):
    # accuracy against an independent high-precision root, not against the
    # bits of an earlier build: every point, within 1e-13 in beta
    spec = SweepSpec(0.005, 0.995, 0.005, 1.0, 2, 2, gamma, d, MODE, GEOM, form)
    for alpha, roots in CURVE_ORACLE[(gamma, d, form)].items():
        curves = build_curves(spec, [alpha])
        for points, want in zip((curves.discriminant, curves.transcritical), roots):
            assert np.array_equal(points[:, 0], np.full(len(want), alpha)), alpha
            assert np.abs(points[:, 1] - want).max(initial=0.0) <= 1e-13, (alpha, points)

def test_frozen_cell_values():
    spec = _spec(21.0, 8.0)
    T, D = trace_det(KineticParams(0.005, 0.65, 21.0, 8.0), spec.eta_sq)
    assert T == pytest.approx(1.4498498429983636, rel=1e-12)
    assert D == pytest.approx(21.885746880209195, rel=1e-12)
    v = classify_point(KineticParams(0.005, 0.65, 21.0, 8.0), spec.eta_sq)
    assert v.label is StabilityLabel.HOPF


def test_region_map_roundtrip(tmp_path):
    spec = _spec(21.0, 8.0, n=20)
    region = sweep_classify(spec)
    csv, pgm, legend = tmp_path / "r.csv", tmp_path / "r.pgm", tmp_path / "r.txt"
    export_region_map(region, csv, pgm, legend)

    back = import_region_labels(csv, 20, 20)
    assert np.array_equal(back, region.labels)

    data = pgm.read_bytes()
    assert data.startswith(b"P5\n20 20\n255\n")
    assert len(data) == len(b"P5\n20 20\n255\n") + 20 * 20

    lines = legend.read_text().splitlines()
    assert len(lines) == len(LABEL_CODES)
    assert lines[0] == "40 StableNode"

    first = csv.read_text().splitlines()
    assert first[0] == REGION_CSV_HEADER
    assert len(first) == 1 + 20 * 20


def test_region_csv_matches_per_cell_reference(tmp_path):
    # a non-square grid holding every label code, so a transposed or
    # mis-ordered row shows; the reference formats each cell on its own
    spec = SweepSpec(0.1, 0.7, 0.2, 0.9, 7, 5, 21.0, 8.0, MODE, GEOM)
    labels = (np.arange(35, dtype=np.int8) % len(CODE_LABELS)).reshape(5, 7)
    csv = tmp_path / "region.csv"
    export_region_map(partition.RegionMap(spec, labels), csv)

    lines = [REGION_CSV_HEADER + "\n"]
    for j in range(spec.n_beta):
        for i in range(spec.n_alpha):
            lines.append(f"{float(spec.alphas[i])!r},{float(spec.betas[j])!r},"
                         f"{CODE_LABELS[int(labels[j, i])].value}\n")
    assert csv.read_bytes() == "".join(lines).encode("utf-8")
    assert np.array_equal(import_region_labels(csv, 7, 5), labels)


def test_import_rejects_bad_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,beta\n0.1,0.2\n")
    with pytest.raises(PartitionError):
        import_region_labels(bad, 1, 1)


@pytest.mark.parametrize("tail, line, message", [
    (["0.5,0.5,StableNode", "0.9,0.9,StableNode"], 6, "more than 4 rows"),
    (["0.5,0.5,Wobble"], 5, "unknown label 'Wobble'"),
    (["0.5,StableNode"], 5, "expected 3 fields"),
])
def test_import_region_labels_malformed(tmp_path, tail, line, message):
    # three good cells of a 2x2 grid, then the rows under test
    rows = [REGION_CSV_HEADER, "0.1,0.1,StableNode", "0.5,0.1,StableNode",
            "0.1,0.5,StableNode", *tail]
    path = tmp_path / "r.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(PartitionError, match=f"line {line}: {message}"):
        import_region_labels(path, 2, 2)


def test_export_curves(tmp_path):
    spec = _spec(21.0, 8.0)
    curves = build_curves(spec, [0.4])
    path = tmp_path / "curves.csv"
    export_curves(curves, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CURVE_CSV_HEADER
    assert any(line.startswith("discriminant,0.4,") for line in lines[1:])

    empty = CurveSet(1.0, 1.4, np.empty((0, 2)), np.empty((0, 2)))
    empty_path = tmp_path / "empty.csv"
    export_curves(empty, empty_path)
    assert empty_path.read_text() == CURVE_CSV_HEADER + "\n"


def test_label_code_tables():
    assert sorted(LABEL_CODES.values()) == list(range(6))
    for label, code in LABEL_CODES.items():
        assert CODE_LABELS[code] is label
