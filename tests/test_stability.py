"""Stability: linearization, root classification, thickness thresholds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from annulus_rd.geometry import make_annulus
from annulus_rd.spectrum import ModeIndex, eigenvalue
from annulus_rd.stability import (
    FORMS,
    HopfAdmissibility,
    KineticParams,
    StabilityError,
    StabilityLabel,
    VERDICT_CSV_HEADER,
    classify_multimode,
    classify_point,
    hopf_admissibility,
    negative_l_bound,
    reaction_terms,
    repeated_root_thresholds,
    roots,
    steady_state,
    trace_det,
    turing_only_bound,
    verdict_csv_row,
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


@given(T=st.floats(min_value=-1e6, max_value=1e6),
       D=st.floats(min_value=-1e6, max_value=1e6))
def test_roots_identities(T, D):
    s1, s2 = roots(T, D)
    scale = max(1.0, abs(T), abs(D))
    assert abs((s1 + s2) - T) <= 1e-10 * scale
    assert abs((s1 * s2) - D) <= 1e-10 * scale
    assert s2.imag == -s1.imag


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


def test_multimode_selection():
    res = classify_multimode(TURING, 1.3, 4, 0.5, 0.5)
    assert res.selected_k == 1
    assert res.verdict.label is StabilityLabel.TURING
    labels = {k: v.label for k, v in res.per_mode}
    assert labels[0] is StabilityLabel.HOPF
    assert labels[2] is StabilityLabel.STABLE_NODE

    # the temporal-oscillation parameter set still picks a faster
    # spatial mode over the oscillatory fundamental one
    hres = classify_multimode(HOPF, 1.3, 4, 0.5, 0.5)
    assert hres.selected_k == 2
    assert hres.verdict.label is StabilityLabel.TURING
    hl = {k: v.label for k, v in hres.per_mode}
    assert hl[0] is StabilityLabel.HOPF

    with pytest.raises(StabilityError):
        classify_multimode(TURING, 1.3, -1, 0.5, 0.5)


_SCAN = np.random.default_rng(20261018).uniform(0.02, 0.98, size=(2, 2))


@pytest.mark.parametrize("params", [
    TURING, HOPF,
    *(KineticParams(alpha, beta, 250.0, 10.0) for alpha, beta in _SCAN)])
@pytest.mark.parametrize("form", FORMS)
def test_multimode_equals_per_mode_classify_point(params, form):
    # the vectorized scan must reproduce the scalar path exactly, not approximately
    res = classify_multimode(params, l=1.3, k_max=12, a=0.5, rho=0.5, form=form)
    geom = make_annulus(0.5, 1.0)
    assert [k for k, _ in res.per_mode] == list(range(13))
    for k, verdict in res.per_mode:
        # dataclass equality: every field compared with ==
        assert verdict == classify_point(params, eigenvalue(ModeIndex(k, 1.3), geom), form), k
    assert res.verdict is dict(res.per_mode)[res.selected_k]


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


def test_verdict_csv_row():
    v = classify_point(TURING, ETA_SQ_K1)
    row = verdict_csv_row(TURING, ModeIndex(1, 1.3), ETA_SQ_K1, v)
    cells = row.split(",")
    assert len(cells) == len(VERDICT_CSV_HEADER.split(","))
    assert cells[-1] == "TuringInstability"
    assert float(cells[0]) == 0.09 and float(cells[5]) == 1.3
