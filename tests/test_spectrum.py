"""Spectrum: closed-form eigenvalues, weighting, series, collocation, rendering."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gamma, jv

from annulus_rd.geometry import make_annulus, build_polar_grid
from annulus_rd.spectrum import (
    ModeIndex,
    SpectrumError,
    TruncationRangeError,
    WeightingProfile,
    build_series,
    collocation_residual,
    eigenfunction_value,
    eigenpair,
    eigenvalue,
    eigenvalue_components,
    export_spectrum_csv,
    radial_part,
    render_phase_plot,
    spectrum_table,
    telescoping_residual,
    weighting,
    weighting_supremum,
)

GEOM = make_annulus(0.5, 1.0)

# strategies that keep l safely away from half-integers
_l_values = st.builds(
    lambda n, off: n / 2.0 + off,
    st.integers(min_value=0, max_value=23),
    st.floats(min_value=0.06, max_value=0.44),
)
_k_values = st.integers(min_value=0, max_value=8)
_a_values = st.floats(min_value=0.1, max_value=2.0)
_rho_values = st.floats(min_value=0.05, max_value=2.0)


def test_mode_index_validation():
    ModeIndex(0, 0.3)
    ModeIndex(12, 11.3)
    with pytest.raises(SpectrumError):
        ModeIndex(-1, 0.3)
    with pytest.raises(SpectrumError):
        ModeIndex(0, 0.5)
    with pytest.raises(SpectrumError):
        ModeIndex(0, 2.0)
    with pytest.raises(SpectrumError):
        ModeIndex(1, 1.5 + 1e-10)
    # non-finite indices are refused by name, not by a failing round()/int()
    for k, l, name in ((0, float("inf"), "l"), (0, float("nan"), "l"),
                       (float("inf"), 0.3, "k"), (float("nan"), 0.3, "k")):
        with pytest.raises(SpectrumError, match=f"mode index {name}=.* is not finite"):
            ModeIndex(k, l)


def test_eigenvalue_known_values():
    assert eigenvalue(ModeIndex(0, 1.3), GEOM) == pytest.approx(
        5.4594326958265842, rel=1e-12)
    assert eigenvalue(ModeIndex(1, 1.3), GEOM) == pytest.approx(
        56.432980449218388, rel=1e-12)
    assert np.sqrt(eigenvalue(ModeIndex(1, 0.3), GEOM)) == pytest.approx(
        7.102693615644246, rel=1e-12)


def test_eigenvalue_matches_reference_table():
    from annulus_rd.verify import REFERENCE_ETA, REFERENCE_K, REFERENCE_L

    for i, j in ((0, 0), (0, 11), (5, 3), (11, 11)):
        mode = ModeIndex(int(REFERENCE_K[i]), float(REFERENCE_L[j]))
        eta = np.sqrt(eigenvalue(mode, GEOM))
        assert eta == pytest.approx(REFERENCE_ETA[i, j], abs=5e-5)


def test_eta_strictly_increasing_in_k():
    for l in (0.3, 1.3, 7.3):
        vals = [eigenvalue(ModeIndex(k, l), GEOM) for k in range(13)]
        assert np.all(np.diff(vals) > 0)


@given(k=_k_values, l=_l_values, a=_a_values, rho=_rho_values)
def test_superposition(k, l, a, rho):
    geom = make_annulus(a, a + rho)
    mode = ModeIndex(k, l)
    total = eigenvalue(mode, geom)
    e1, e2 = eigenvalue_components(mode, geom)
    assert abs(total - (e1 + e2)) <= 1e-12 * abs(total)
    pair = eigenpair(mode, geom)
    assert pair.eta_sq == total and pair.eta1_sq == e1 and pair.eta2_sq == e2


@given(k=_k_values, l=_l_values, a=_a_values, rho=_rho_values)
def test_weighting_composition(k, l, a, rho):
    # weighting x order factor, formed in log space, against the closed
    # form as printed, evaluated in plain powers
    b = a + rho
    printed = (4.0 * (a**l * b + a * b**l) * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k)
               / (a * b * (a**(l + 1) + b**(l + 1)) * (l + 4 * k + 2)))
    direct = eigenvalue(ModeIndex(k, l), make_annulus(a, b))
    assert abs(direct - printed) <= 1e-12 * abs(printed)


def test_weighting_exact_values():
    assert weighting(WeightingProfile(0.5, 0.5, 0.0)) == 2.0
    assert weighting(WeightingProfile(0.25, 1.0, 0.0)) == 1.0 / (0.25 * 1.25)
    assert weighting(WeightingProfile(0.5, 0.5, 1.0)) == pytest.approx(1.6, rel=1e-14)
    with pytest.raises(SpectrumError):
        WeightingProfile(0.0, 0.5, 1.0)
    with pytest.raises(SpectrumError):
        WeightingProfile(0.5, -0.1, 1.0)


def test_weighting_decreasing_in_thickness():
    for l in (0.3, 1.3, 2.7):
        for rho in (0.2, 1.0):
            f0 = weighting(WeightingProfile(0.5, rho, l))
            for eps in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
                assert weighting(WeightingProfile(0.5, rho + eps, l)) < f0


def test_weighting_supremum_branches():
    sup = weighting_supremum(0.5, 1.5, "negative-l")
    assert sup.printed == 2.0
    assert sup.numeric_estimate == pytest.approx(4.0, rel=1e-12)
    assert sup.discrepancy == pytest.approx(2.0, rel=1e-12)

    matched = weighting_supremum(0.5, 0.5, "negative-l")
    assert matched.printed == 4.0
    assert matched.discrepancy < 1e-9

    pos = weighting_supremum(0.7, 1.1, "positive-l")
    assert pos.printed == pytest.approx(1.0 / (0.7 * 1.8), rel=1e-15)
    assert pos.discrepancy < 1e-5

    with pytest.raises(SpectrumError):
        weighting_supremum(0.5, 0.5, "sideways")


def test_series_matches_bessel_combination():
    # independent route: R(x) = 2^l G(l+1) J_l(x) + 2^-l G(1-l) J_-l(x)
    for l, x in ((0.3, 2.0), (0.3, 5.3270), (1.3, 7.0), (1.3, 22.3758)):
        series = build_series(ModeIndex(0, l))
        got, tail = radial_part(series, 1.0, np.array([x]))
        t1 = 2.0**l * gamma(l + 1) * jv(l, x)
        t2 = 2.0**(-l) * gamma(1 - l) * jv(-l, x)
        assert tail < 1e-13
        assert abs(got[0] - (t1 + t2)) < 1e-12 * (abs(t1) + abs(t2))


def test_series_range_guards():
    series = build_series(ModeIndex(0, 0.3))
    with pytest.raises(SpectrumError):
        radial_part(series, 1.0, np.array([0.0]))
    for x in (134.0, 5000.0, 1e152):
        with pytest.raises(TruncationRangeError):
            radial_part(series, 1.0, np.array([x]))
    with pytest.raises(TruncationRangeError):
        # prefactor x^-l overflows long before the series terms do
        radial_part(build_series(ModeIndex(0, 1.3)), 1.0, np.array([1e-250]))
    with pytest.raises(SpectrumError):
        build_series(ModeIndex(0, 0.3), truncation=0)


def test_collocation_residual_small():
    grid = build_polar_grid(GEOM, N=48, M=8)
    for k, l in ((0, 0.3), (1, 0.3), (0, 1.3), (1, 1.3), (3, 0.3)):
        mode = ModeIndex(k, l)
        eta = float(np.sqrt(eigenvalue(mode, GEOM)))
        series = build_series(mode)
        assert collocation_residual(series, eta, grid) < 1e-6


def test_collocation_grid_too_coarse():
    grid = build_polar_grid(GEOM, N=6, M=8)
    series = build_series(ModeIndex(0, 0.3))
    with pytest.raises(SpectrumError):
        collocation_residual(series, 1.0, grid)


def test_eigenfunction_angular_wrap():
    mode = ModeIndex(1, 1.3)
    eta = float(np.sqrt(eigenvalue(mode, GEOM)))
    series = build_series(mode)
    r = np.array([0.55, 0.7, 0.95])
    for theta in (0.0, 1.234, 4.0):
        w0 = eigenfunction_value(series, eta, r, theta)
        wp = eigenfunction_value(series, eta, r, theta + 2.0 * np.pi)
        wm = eigenfunction_value(series, eta, r, theta - 2.0 * np.pi)
        assert np.abs(w0 - wp).max() < 1e-12
        assert np.abs(w0 - wm).max() < 1e-12


def test_render_phase_plot_pure(tmp_path):
    mode = ModeIndex(1, 1.3)
    eta = float(np.sqrt(eigenvalue(mode, GEOM)))
    series = build_series(mode)
    grid = build_polar_grid(GEOM, N=16, M=8)
    p1, p2 = tmp_path / "m1.ppm", tmp_path / "m2.ppm"
    img1 = render_phase_plot(series, eta, grid, p1, resolution=64)
    img2 = render_phase_plot(series, eta, grid, p2, resolution=64)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    assert data.startswith(b"P6\n64 64\n255\n")
    assert len(data) == len(b"P6\n64 64\n255\n") + 3 * 64 * 64
    assert img1.shape == (64, 64, 3) and img1.dtype == np.uint8
    assert np.array_equal(img1, img2)
    assert data.endswith(img1.tobytes())


def test_spectrum_csv_export(tmp_path):
    table = spectrum_table(range(1, 3), [0.3, 1.3], GEOM)
    assert table.eta.shape == (2, 2)
    path = tmp_path / "spec.csv"
    export_spectrum_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,0.3,1.3"
    assert lines[1].startswith("1,")
    got = float(lines[1].split(",")[1])
    assert got == pytest.approx(7.102693615644246, abs=1e-4)


@pytest.mark.parametrize("k_range, l_list, k, l", [
    (range(1, 3), [0.3, 1.5], 1, 1.5),            # half-integer order
    (range(0, 3), [0.3, -0.3], 0, -0.3),          # negative eta^2
    (range(-1, 2), [0.3], -1, 0.3),               # negative k
    (range(1, 3), [0.3, float("nan")], 1, float("nan")),
    ([1.5, 2.7], [0.3], 1.5, 0.3),               # non-integer k, not truncated
    ([1, float("inf")], [0.3], float("inf"), 0.3),
])
def test_spectrum_table_rejects_like_eigenvalue(k_range, l_list, k, l):
    with pytest.raises(ValueError) as scalar:
        eigenvalue(ModeIndex(k, l), GEOM)
    with pytest.raises(ValueError) as table:
        spectrum_table(k_range, l_list, GEOM)
    assert type(table.value) is type(scalar.value)
    assert str(table.value) == str(scalar.value)


def test_telescoping_residual():
    # pairwise cancellation holds only for the fundamental mode
    assert abs(telescoping_residual(ModeIndex(0, 0.3), GEOM, 0)) < 1e-12
    assert abs(telescoping_residual(ModeIndex(0, 1.3), GEOM, 0)) < 1e-12
    r1 = telescoping_residual(ModeIndex(1, 0.3), GEOM, 0)
    assert np.isfinite(r1) and abs(r1) > 1.0
