"""Spectrum: closed-form eigenvalues, weighting, series, collocation, rendering."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulus_rd.geometry import make_annulus, build_polar_grid
from annulus_rd.spectrum import (
    ModeIndex,
    SpectrumError,
    WeightingProfile,
    build_series,
    collocation_residual,
    eigenfunction_value,
    eigenvalue,
    eigenvalue_components,
    export_spectrum_csv,
    radial_part,
    render_phase_plot,
    spectrum_table,
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


@pytest.mark.parametrize("name", ["a", "rho", "l"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_weighting_profile_refuses_non_finite(name, value):
    # a = inf gave a weighting of 0.0 and l = nan gave nan
    args = {"a": 0.5, "rho": 0.5, "l": 1.0, name: value}
    with pytest.raises(SpectrumError):
        WeightingProfile(**args)


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
    # a = 0 divided by zero before the geometry was checked
    for branch in ("positive-l", "negative-l"):
        with pytest.raises(SpectrumError, match="a > 0"):
            weighting_supremum(0.0, 0.5, branch)


# R = R1 + R2 = 2^l G(l+1) J_l(x) + 2^-l G(1-l) J_-l(x) at 50 digits, printed
# by tools/oracle_goldens.py ("radial profile R = R1 + R2 by besselj")
_RADIAL_GOLDENS = (
    (0.3, 2.0, 0.42412609228526020042),
    (0.3, 5.3270, -0.13033199328493799928),
    (1.3, 7.0, -0.11178252148192265856),
    (1.3, 22.3758, 0.33064109112686594903),
    # x = eta(12, 0.3) r for r = 0.5, 0.6, ..., 1, where the terms of the
    # power series reach 9e26 and a floating-point sum keeps no digit
    (0.3, 33.6690895656802, 0.030972039104802578056),
    (0.3, 40.4029074788162, -0.079103165326675707096),
    (0.3, 47.1367253919522, -0.15798304449793127187),
    (0.3, 53.8705433050882, -0.1975078404032042255),
    (0.3, 60.6043612182243, -0.19588458961195218022),
    (0.3, 67.3381791313603, -0.15788226703114874939),
    # x = eta(12, 11.3) r for the same radii
    (11.3, 29.6380444913886, 24259698901.046247823),
    (11.3, 35.5656533896663, 28882134873.809705265),
    (11.3, 41.493262287944, 21450824652.528849222),
    (11.3, 47.4208711862218, 9401830944.317535164),
    (11.3, 53.3484800844995, -2700978900.0791673069),
    (11.3, 59.2760889827772, -12284309643.089523071),
    # negative orders with x < |l|, where the terms of the reflection
    # J_-nu = cos(pi nu) J_nu - sin(pi nu) Y_nu cancel to 1e-37 relative
    (-10.7, 3.3, 279315.31965212933221),
    (-40.7, 6.8, 5.7852781328214124381e+33),
    # x = eta(1, 160.3) r at r = a and b, where 2^l G(l+1) overflows float64
    (160.3, 22.0001872292913, 7.3180759150270587449e+214),
    (160.3, 44.0003744585826, 1.350607360435448931e+262),
)


def test_series_matches_bessel_combination():
    bad = []
    for l, x, expected in _RADIAL_GOLDENS:
        got = radial_part(build_series(ModeIndex(0, l)), 1.0, np.array([x]))[0]
        if not abs(got - expected) < 1e-12 * abs(expected):
            bad.append((l, x, got, expected))
    assert not bad


def test_series_range_guards():
    series = build_series(ModeIndex(0, 0.3))
    for x in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(SpectrumError, match="positive and finite"):
            radial_part(series, 1.0, np.array([x]))
    with pytest.raises(SpectrumError, match="not finite"):
        # Y_l(x) ~ -(G(l)/pi) (2/x)^l overflows near x = 0
        radial_part(build_series(ModeIndex(0, 1.3)), 1.0, np.array([1e-250]))
    # scipy returns J_149.3(1.02) = 1.3e-305 as 0, and its term is most of R
    with pytest.raises(SpectrumError, match="underflows"):
        radial_part(build_series(ModeIndex(0, 149.3)), 1.0, np.array([1.02]))
    # Gamma(1-l) has its poles at the positive integers
    for l in (1.0, 2.0, -1.0):
        with pytest.raises(SpectrumError, match="multiple of 1/2"):
            ModeIndex(0, l)


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


# sha256 of render_phase_plot's PPM bytes, (a, b), k, l, resolution; no
# pixel centre of the 8 px grid falls inside the 0.96-1 annulus
RENDER_GOLDEN = {
    ((0.5, 1.0), 1, 0.3, 400): "38110cd6903850318e347b1f6b96072e5456959322eb90ab114f12e987f70173",
    ((0.5, 1.0), 2, 1.3, 400): "51a167ee9e5a2ed31157643912bc7596c5284b9531bccf6ab6fbe0c814488ab5",
    ((0.5, 1.0), 3, -2.7, 400): "922649dfbd0781bf25447eca3c38acb7b5fae9b0b56679a261cebd0f0fea9a03",
    ((0.5, 1.0), 1, 0.3, 8): "5420fd07d11c3345e70b6544901f74d43b62f25fc9e2976c179c5f7ec5a9ee20",
    ((0.5, 1.0), 4, 5.3, 8): "a5091b7227986acdc70ccffb05032db12ecea83fa8a7366349c8bdbaf69565e7",
    ((0.96, 1.0), 2, 1.3, 8): "a783f4c781e7a5a4b287fc2c253d08364ec6c2cd8313994700dbc0c2039704b5",
    ((0.96, 1.0), 1, 0.3, 400): "3b0f2cad17ff6050312c38db3e9dbde937b23f364b5ef20f0317df21b3461f10",
}


@pytest.mark.parametrize("radii, k, l, resolution", list(RENDER_GOLDEN))
def test_render_golden_bytes(tmp_path, radii, k, l, resolution):
    geom = make_annulus(*radii)
    mode = ModeIndex(k, l)
    eta = float(np.sqrt(eigenvalue(mode, geom)))
    path = tmp_path / "mode.ppm"
    img = render_phase_plot(build_series(mode), eta, build_polar_grid(geom, N=16, M=8),
                            path, resolution=resolution)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RENDER_GOLDEN[radii, k, l, resolution]
    # every pixel whose centre lies outside the annulus is black
    a, b = radii
    coords = -b + 2.0 * b * (np.arange(resolution) + 0.5) / resolution
    rr = np.hypot(*np.meshgrid(coords, -coords))
    outside = (rr < a) | (rr > b)
    assert outside.any() and not img[outside].any()
    assert img[~outside].any() == (~outside).any()


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
    (range(0, 4), [0.3, 1e308], 0, 1e308),        # eta^2 overflows
])
def test_spectrum_table_rejects_like_eigenvalue(k_range, l_list, k, l):
    with pytest.raises(ValueError) as scalar:
        eigenvalue(ModeIndex(k, l), GEOM)
    with pytest.raises(ValueError) as table:
        spectrum_table(k_range, l_list, GEOM)
    assert type(table.value) is type(scalar.value)
    assert str(table.value) == str(scalar.value)


def test_negative_eigenvalue_message():
    # l < -4k turns the order factor and eta^2 negative; one check refuses it
    with pytest.raises(SpectrumError, match=r"^eta\^2 = -\d.* is negative for mode \(k=0, l=-0\.3\)$"):
        eigenvalue(ModeIndex(0, -0.3), GEOM)
    with pytest.raises(SpectrumError, match=r"is negative for mode \(k=0, l=-0\.3\)$"):
        spectrum_table(range(0, 2), [0.3, -0.3], GEOM)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k, l", [(2, 1e308), (1e200, 0.3)])
def test_overflowing_eigenvalue_refused(k, l):
    # a valid mode whose eta^2 overflows: the order factor and the
    # half-integer test overflow without a warning, and the mode is refused
    # by its own message, not tabulated as inf. (-1e308 is refused as
    # negative, 1e200 as a multiple of 1/2.)
    message = "^" + re.escape(f"eta^2 is not finite for mode (k={k}, l={l}): it overflows") + "$"
    with pytest.raises(SpectrumError, match=message):
        eigenvalue(ModeIndex(k, l), GEOM)
    with pytest.raises(SpectrumError, match=message):
        spectrum_table([k], [0.3, l], GEOM)
