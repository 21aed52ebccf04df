"""Stability: linearization, root classification, thickness thresholds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulus_rd import stability
from annulus_rd.geometry import GeometryError, make_annulus
from annulus_rd.spectrum import ModeIndex, SpectrumError, eigenvalue
from annulus_rd.stability import (
    FORMS,
    HopfAdmissibility,
    KineticParams,
    StabilityError,
    StabilityLabel,
    classify_multimode,
    classify_point,
    hopf_admissibility,
    negative_l_bound,
    reaction_jacobian,
    reaction_terms,
    repeated_root_thresholds,
    roots,
    steady_state,
    trace_det,
    turing_only_bound,
)

TURING = KineticParams(0.09, 0.45, 250.0, 10.0)
HOPF = KineticParams(0.05, 0.55, 730.0, 5.0)

ETA_SQ_K0 = 5.4594326958265842   # (k=0, l=1.3) on the half-unit annulus
ETA_SQ_K1 = 56.432980449218388   # (k=1, l=1.3)

_pos = st.floats(min_value=1e-3, max_value=50.0)
_eta = st.floats(min_value=0.0, max_value=500.0)


def test_params_validation():
    with pytest.raises(StabilityError):
        KineticParams(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(StabilityError):
        KineticParams(0.1, -0.5, 1.0, 1.0)
    with pytest.raises(StabilityError):
        KineticParams(0.1, 0.5, 0.0, 1.0)
    with pytest.raises(StabilityError):
        KineticParams(0.1, 0.5, 1.0, float("nan"))


def test_steady_state_values():
    s = steady_state(TURING)
    assert s.u_s == pytest.approx(0.54, rel=1e-15)
    assert s.v_s == pytest.approx(1.5432098765432099, rel=1e-15)
    s2 = steady_state(KineticParams(1.0, 2.0, 1.0, 1.0))
    assert s2.u_s == 3.0
    assert s2.v_s == pytest.approx(2.0 / 9.0, rel=1e-15)


@given(alpha=_pos, beta=_pos)
def test_steady_state_kills_kinetics(alpha, beta):
    p = KineticParams(alpha, beta, 1.0, 1.0)
    s = steady_state(p)
    f, g = reaction_terms(p, s.u_s, s.v_s)
    scale = max(1.0, alpha, beta)
    assert abs(f) < 1e-12 * scale
    assert abs(g) < 1e-12 * scale


def test_reaction_jacobian_matches_central_differences():
    # f and g are quadratic in u and linear in v, so a central difference is
    # exact up to round-off, about 1e-16 |f| / step
    rng = np.random.default_rng(20261019)
    u, v = rng.uniform(-3.0, 15.0, (2, 200))
    step = 1e-5
    jac = reaction_jacobian(u, v)
    for p in (TURING, HOPF):
        for which, (du, dv) in enumerate(((step, 0.0), (0.0, step))):
            plus, minus = reaction_terms(p, u + du, v + dv), reaction_terms(p, u - du, v - dv)
            for species in (0, 1):
                diff = (plus[species] - minus[species]) / (2.0 * step)
                exact = jac[2 * species + which]
                assert np.abs(diff - exact).max() <= 1e-7 * max(1.0, np.abs(exact).max())


def test_trace_det_hand_values():
    p = KineticParams(0.1, 0.9, 1.0, 1.0)
    T, D = trace_det(p, 0.0)
    assert T == pytest.approx(-0.2, rel=1e-12)
    assert D == pytest.approx(1.0, rel=1e-12)
    Tp, Dp = trace_det(p, 0.0, form="paper-literal")
    assert Tp == T and Dp == D  # forms agree at eta^2 = 0


def test_trace_det_frozen_values():
    T, D = trace_det(TURING, ETA_SQ_K0)
    assert T == pytest.approx(33.712907012574241, rel=1e-12)
    assert D == pytest.approx(9821.9922040840542, rel=1e-12)
    _, Dp = trace_det(TURING, ETA_SQ_K0, form="paper-literal")
    assert Dp == pytest.approx(8941.8921601398839, rel=1e-12)

    T1, D1 = trace_det(TURING, ETA_SQ_K1)
    assert T1 == pytest.approx(-526.9961182747356, rel=1e-12)
    assert D1 == pytest.approx(-39869.190316797311, rel=1e-12)

    Th, Dh = trace_det(HOPF, ETA_SQ_K0)
    assert Th == pytest.approx(312.77673715837383, rel=1e-12)
    assert Dh == pytest.approx(176821.99148945867, rel=1e-12)


def test_trace_det_validation():
    with pytest.raises(StabilityError):
        trace_det(TURING, -1.0)
    with pytest.raises(StabilityError):
        trace_det(TURING, 1.0, form="folk")
    assert FORMS == ("consistent", "paper-literal")


def test_transcritical_hand_point():
    # beta - alpha = (alpha+beta)^3 exactly in binary: T = 0, D = 25
    p = KineticParams(0.1875, 0.3125, 10.0, 1.0)
    T, D = trace_det(p, 0.0)
    assert T == 0.0
    assert D == 25.0
    v = classify_point(p, 0.0)
    assert v.label is StabilityLabel.TRANSCRITICAL_CURVE


def _two_branch_roots(T, D):
    """The scalar root formula roots() replaced, kept as its bitwise reference."""
    disc = T * T - 4.0 * D
    if disc >= 0.0:
        sq = np.sqrt(disc)
        return complex((T + sq) / 2.0), complex((T - sq) / 2.0)
    sq = np.sqrt(-disc)
    return complex(T / 2.0, sq / 2.0), complex(T / 2.0, -sq / 2.0)


def _bits(z):
    return np.array([z.real, z.imag]).view(np.uint64).tolist()


@given(T=st.floats(min_value=-1e6, max_value=1e6),
       D=st.floats(min_value=-1e6, max_value=1e6))
def test_roots_identities(T, D):
    s1, s2 = roots(T, D)
    scale = max(1.0, abs(T), abs(D))
    assert abs((s1 + s2) - T) <= 1e-10 * scale
    assert abs((s1 * s2) - D) <= 1e-10 * scale
    assert s2.imag == -s1.imag
    assert s1.real >= s2.real


def test_roots_arrays_match_scalar_calls():
    rng = np.random.default_rng(20261019)
    T = np.concatenate([rng.uniform(-1e6, 1e6, 500), rng.standard_normal(500),
                        rng.uniform(-1e-300, 1e-300, 200),
                        [0.0, -0.0, 2.0, -2.0, 1e200, -1e200, 3.0, np.nan]])
    D = np.concatenate([rng.uniform(-1e6, 1e6, 500), rng.standard_normal(500),
                        rng.uniform(-1e-300, 1e-300, 200),
                        [1.0, 1.0, 1.0, 1.0, 1.0, np.inf, np.inf, 1.0]])
    D[-8:-4] = T[-8:-4] ** 2 / 4.0   # exact zero discriminant at +-0 and +-2
    # T^2 overflows: an infinite discriminant at 1e200, inf - inf = NaN at -1e200
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = roots(T.reshape(2, -1), D.reshape(2, -1))
        assert s1.shape == s2.shape == (2, T.size // 2)
        for i, (t, d) in enumerate(zip(T.tolist(), D.tolist())):
            scalar, reference = roots(t, d), _two_branch_roots(t, d)
            assert all(isinstance(z, complex) for z in scalar)
            got = (s1.ravel()[i], s2.ravel()[i])
            # bitwise, so signs of zero and NaN parts are compared too
            assert [_bits(z) for z in got] == [_bits(z) for z in scalar], (t, d)
            assert [_bits(z) for z in scalar] == [_bits(z) for z in reference], (t, d)


@given(alpha=_pos, beta=_pos,
       gamma=st.floats(min_value=0.1, max_value=1000.0),
       d=st.floats(min_value=0.1, max_value=50.0),
       eta_sq=_eta)
def test_label_is_sign_function(alpha, beta, gamma, d, eta_sq):
    p = KineticParams(alpha, beta, gamma, d)
    v = classify_point(p, eta_sq)
    T, D = trace_det(p, eta_sq)
    assert v.trace == T and v.determinant == D
    assert v.discriminant == T * T - 4.0 * D
    scale = max(1.0, abs(T), np.sqrt(abs(D)))
    tol = 1e-6 * scale
    if v.label is StabilityLabel.STABLE_SPIRAL:
        assert v.discriminant < 0 and T < 0
    elif v.label is StabilityLabel.HOPF:
        assert v.discriminant < 0 and T > 0
    elif v.label is StabilityLabel.TRANSCRITICAL_CURVE:
        assert v.discriminant < 0 and abs(T) <= tol
    elif v.label is StabilityLabel.STABLE_NODE:
        assert v.discriminant > 0 and T < 0 and D > 0
    elif v.label is StabilityLabel.TURING:
        assert v.discriminant > tol * scale and (T >= 0 or D <= 0)
    else:
        assert abs(v.discriminant) <= tol * scale


@given(alpha=_pos, beta=_pos,
       gamma=st.floats(min_value=0.1, max_value=1000.0),
       d=st.floats(min_value=0.1, max_value=50.0),
       eta_sq=_eta)
def test_label_symmetric_in_roots(alpha, beta, gamma, d, eta_sq):
    # the verdict depends on (T, D) only, never on the root ordering
    p = KineticParams(alpha, beta, gamma, d)
    v = classify_point(p, eta_sq)
    swapped = sorted([v.sigma1, v.sigma2], key=lambda z: (z.real, z.imag))
    assert {v.sigma1, v.sigma2} == set(swapped)
    assert v.label is classify_point(p, eta_sq).label


@given(alpha=_pos, beta=_pos,
       gamma=st.floats(min_value=0.1, max_value=1000.0),
       d=st.floats(min_value=0.1, max_value=50.0))
def test_stable_kinetics_never_pattern_at_zero_mode(alpha, beta, gamma, d):
    p = KineticParams(alpha, beta, gamma, d)
    T, D = trace_det(p, 0.0)
    scale = max(1.0, abs(T), np.sqrt(abs(D)))
    if T < -1e-5 * scale and D > 1e-5 * scale * scale:
        v = classify_point(p, 0.0)
        assert v.label in (StabilityLabel.STABLE_NODE,
                           StabilityLabel.STABLE_SPIRAL,
                           StabilityLabel.DISCRIMINANT_CURVE)


def test_headline_mode_labels():
    k0 = classify_point(TURING, ETA_SQ_K0)
    assert k0.label is StabilityLabel.HOPF
    k1 = classify_point(TURING, ETA_SQ_K1)
    assert k1.label is StabilityLabel.TURING
    assert max(k1.sigma1.real, k1.sigma2.real) == pytest.approx(
        67.108077354314837, rel=1e-10)

    h0 = classify_point(HOPF, ETA_SQ_K0)
    assert h0.label is StabilityLabel.HOPF
    assert h0.sigma1.real == pytest.approx(312.77673715837383 / 2.0, rel=1e-12)


def _leading_mode(params, l, k_max, a, rho, form="consistent"):
    """classify_point per k; the first k whose leading growth rate is maximal."""
    geom = make_annulus(a, a + rho)
    verdicts = [classify_point(params, eigenvalue(ModeIndex(k, l), geom), form)
                for k in range(k_max + 1)]
    growth = [v.sigma1.real for v in verdicts]
    k = growth.index(max(growth))
    return k, verdicts


def test_multimode_selection():
    res = classify_multimode(TURING, 1.3, 4, 0.5, 0.5)
    assert res.selected_k == 1
    assert res.verdict.label is StabilityLabel.TURING
    _, verdicts = _leading_mode(TURING, 1.3, 4, 0.5, 0.5)
    assert verdicts[0].label is StabilityLabel.HOPF
    assert verdicts[2].label is StabilityLabel.STABLE_NODE
    assert res.verdict == verdicts[1]

    # the temporal-oscillation parameter set still picks a faster
    # spatial mode over the oscillatory fundamental one
    hres = classify_multimode(HOPF, 1.3, 4, 0.5, 0.5)
    assert hres.selected_k == 2
    assert hres.verdict.label is StabilityLabel.TURING
    _, hverdicts = _leading_mode(HOPF, 1.3, 4, 0.5, 0.5)
    assert hverdicts[0].label is StabilityLabel.HOPF
    assert not hasattr(hres, "per_mode")

    with pytest.raises(StabilityError):
        classify_multimode(TURING, 1.3, -1, 0.5, 0.5)
    # a fractional mode count raised range()'s TypeError
    with pytest.raises(StabilityError, match="integer"):
        classify_multimode(TURING, 1.3, 2.5, 0.5, 0.5)


_SCAN = np.random.default_rng(20261018).uniform(0.02, 0.98, size=(2, 2))


@pytest.mark.parametrize("params", [
    TURING, HOPF,
    *(KineticParams(alpha, beta, 250.0, 10.0) for alpha, beta in _SCAN)])
@pytest.mark.parametrize("form", FORMS)
def test_multimode_equals_per_mode_classify_point(params, form):
    # the array selection must reproduce the scalar path exactly, not approximately
    res = classify_multimode(params, l=1.3, k_max=12, a=0.5, rho=0.5, form=form)
    k, verdicts = _leading_mode(params, 1.3, 12, 0.5, 0.5, form)
    assert res.selected_k == k
    # dataclass equality: every field compared with ==
    assert res.verdict == verdicts[k]


def test_multimode_builds_one_verdict(monkeypatch):
    # the selected mode's verdict is read off the 13-mode arrays: one roots
    # and one sign-table call on those, one verdict built
    calls = {"StabilityVerdict": 0, "roots": 0, "_label_codes": 0}
    for name in calls:
        original = getattr(stability, name)

        def spy(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(stability, name, spy)
    classify_multimode(TURING, 1.3, 12, 0.5, 0.5)
    assert calls == {"StabilityVerdict": 1, "roots": 1, "_label_codes": 1}


def test_multimode_tie_selects_lowest_k(monkeypatch):
    # the fastest eigenvalue (k = 1 for TURING) repeated at k = 1 and 2
    eta_sq = stability._mode_eigenvalues(1.3, 4, 0.5, 0.5).copy()
    eta_sq[2] = eta_sq[1]
    monkeypatch.setattr(stability, "_mode_eigenvalues", lambda *args: eta_sq)
    res = classify_multimode(TURING, 1.3, 4, 0.5, 0.5)
    assert res.selected_k == 1
    assert res.verdict == classify_point(TURING, eta_sq[1])


@pytest.mark.parametrize("first, second", [
    ((1.3, 12, 0.5, 0.5), (1.3, 12, 0.5, 0.75)),    # rho differs
    ((1.3, 12, 0.5, 0.5), (0.27, 12, 0.5, 0.5)),    # l differs
])
def test_multimode_eigenvalue_cache_keys(first, second):
    # a scan caches the eigenvalue vector; a changed l or rho must not reuse it
    for l, k_max, a, rho in (first, second, first):
        eta_sq = stability._mode_eigenvalues(l, k_max, a, rho)
        geom = make_annulus(a, a + rho)
        assert eta_sq.tolist() == [eigenvalue(ModeIndex(k, l), geom) for k in range(k_max + 1)]
        assert not eta_sq.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            eta_sq[0] = 0.0
        res = classify_multimode(TURING, l, k_max, a, rho)
        k, verdicts = _leading_mode(TURING, l, k_max, a, rho)
        assert res.selected_k == k and res.verdict == verdicts[k]


@pytest.mark.parametrize("l, rho, error", [
    (1.3, 0.0, GeometryError),     # b = a is no annulus
    (1.5, 0.5, SpectrumError),     # half-integer order
])
def test_multimode_rejection_not_cached(l, rho, error):
    for _ in range(2):
        with pytest.raises(error):
            classify_multimode(TURING, l, 4, 0.5, rho)


def test_admissibility_frozen_values():
    adm = hopf_admissibility(8.0, 21.0, ModeIndex(0, 0.27), 0.5, 0.5)
    assert adm.paper_threshold == pytest.approx(0.53582127123977344, rel=1e-12)
    assert not adm.paper_admissible   # 0.5 < threshold
    assert adm.exact_admissible       # 21 > (d+1) eta^2 = 10.22

    quiet = hopf_admissibility(1.4, 1.0, ModeIndex(0, 0.27), 0.5, 0.5)
    assert not quiet.paper_admissible
    assert not quiet.exact_admissible  # (d+1) eta^2 = 2.725 > 1


def test_exact_admissibility_monotone():
    mode = ModeIndex(0, 0.27)
    prev = False
    for gamma in (0.5, 1.0, 3.0, 11.0, 30.0, 100.0):
        cur = hopf_admissibility(8.0, gamma, mode, 0.5, 0.5).exact_admissible
        assert cur or not prev  # once admissible, stays admissible as gamma grows
        prev = cur
    assert prev  # admissible at the top of the ladder
    prev = True
    for d in (0.5, 2.0, 8.0, 32.0, 128.0):
        cur = hopf_admissibility(d, 21.0, mode, 0.5, 0.5).exact_admissible
        assert prev or not cur  # growing d can only lose admissibility
        prev = cur


def test_thickness_bounds_frozen():
    b8 = negative_l_bound(8.0, 21.0, ModeIndex(0, 0.27), 0.5)
    assert b8.bound == pytest.approx(0.53582127123977344, rel=1e-12)
    assert b8.feasible

    b4 = turing_only_bound(10.0, 250.0, ModeIndex(0, 1.3), 0.5)
    assert b4.bound == pytest.approx(-0.18106666666666667, rel=1e-12)
    assert not b4.feasible

    assert negative_l_bound(1.4, 1.0, ModeIndex(0, 0.27), 0.5).bound == pytest.approx(
        5.3005991189427313, rel=1e-12)
    assert turing_only_bound(1.4, 1.0, ModeIndex(0, 0.27), 0.5).bound == pytest.approx(
        2.4002995594713656, rel=1e-12)


def test_repeated_root_thresholds():
    mode = ModeIndex(0, 1.3)
    pos = repeated_root_thresholds(HOPF, mode, 0.5, "positive-l")
    assert pos.restriction_ok
    assert pos.rho_stable_below == pytest.approx(-0.37413396944556505, rel=1e-12)
    neg = repeated_root_thresholds(HOPF, mode, 0.5, "negative-l")
    assert neg.rho_stable_below == pytest.approx(-0.24826793889113009, rel=1e-12)

    # restriction beta > alpha + (alpha+beta)^3 fails: threshold is NaN
    bad = repeated_root_thresholds(KineticParams(0.9, 0.1, 10.0, 1.0),
                                   mode, 0.5, "positive-l")
    assert not bad.restriction_ok
    assert np.isnan(bad.rho_stable_below)

    with pytest.raises(StabilityError):
        repeated_root_thresholds(HOPF, mode, 0.5, "diagonal")


BOUNDS = {
    "turing_only_bound": lambda a, gamma, d: turing_only_bound(d, gamma, ModeIndex(0, 0.27), a),
    "negative_l_bound": lambda a, gamma, d: negative_l_bound(d, gamma, ModeIndex(0, 0.27), a),
    "hopf_admissibility": lambda a, gamma, d: hopf_admissibility(
        d, gamma, ModeIndex(0, 0.27), a, 0.5),
    # the restriction fails for these params at every a; a bad a still raises
    "repeated_root_thresholds": lambda a, gamma, d: repeated_root_thresholds(
        KineticParams(0.9, 0.1, gamma, d), ModeIndex(0, 1.3), a, "positive-l"),
}


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("name,value", [
    ("a", -0.5), ("a", 0.0), ("a", np.inf), ("a", np.nan),
    ("gamma", -21.0), ("gamma", np.inf), ("d", -1.0), ("d", np.nan),
])
def test_thickness_bound_inputs_refused(bound, name, value):
    # a <= 0 or gamma <= 0 returned a bound, a = 0 or d = -1 divided by zero;
    # KineticParams refuses a non-positive gamma or d first, the bound the rest
    args = {"a": 0.5, "gamma": 21.0, "d": 8.0, name: value}
    with pytest.raises(StabilityError, match=f"{name} must be"):
        BOUNDS[bound](**args)


def test_restriction_quantity_bounded():
    rng = np.random.default_rng(20260814)
    alpha = rng.uniform(1e-9, 50.0, size=1_000_000)
    beta = rng.uniform(1e-9, 50.0, size=1_000_000)
    s = alpha + beta
    q = (beta - alpha - s**3) / s
    assert q.max() < 1.0
