"""Closed-form Neumann Laplacian spectrum on the annulus.

The eigenvalue for mode (k, l) is

    eta^2 = 4 (a^l b + a b^l) (2k+1) (l+2k+1) (l+4k)
            -------------------------------------------
            a b (a^(l+1) + b^(l+1)) (l+4k+2)

with k a non-negative integer and l a real Bessel order away from the
half-integer lattice. The matching eigenfunction is a superposition of two
power series (Bessel functions of orders l and -l up to constants) times a
phase factor exp(i l theta).

Evaluating those power series at arguments x = eta*r in the tens is the one
genuinely delicate computation in this module: the alternating terms grow to
around 10^8 before they decay, while the sum itself is order one, so plain
double precision loses eight digits to cancellation. The series are therefore
accumulated in double-double arithmetic (see _ddouble), which keeps the
cancellation error near 10^-22 per unit term magnitude. The smooth prefactors
x^l and x^-l are applied in ordinary doubles afterwards; they only scale the
result and cannot cancel.

The collocation residual check differentiates the radial profile with a
barycentric Chebyshev matrix and applies the angular derivative analytically
(the mode is a single Fourier harmonic, so d^2/dtheta^2 contributes exactly
-l^2 w / r^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._ddouble import dd_add, dd_div, dd_from, dd_mul, dd_neg, two_prod, two_sum
from .geometry import AnnulusGeometry, PolarSpectralGrid

HALF_INTEGER_TOL = 1e-9


class SpectrumError(ValueError):
    """Invalid mode index or eigenvalue outside the supported range."""


class TruncationRangeError(SpectrumError):
    """Series argument too large: a term exceeded the overflow guard."""


@dataclass(frozen=True)
class ModeIndex:
    """Mode index (k, l): k >= 0 integer, l real and not a half-integer."""

    k: int
    l: float

    def __post_init__(self):
        for name, value in (("k", self.k), ("l", self.l)):
            if not np.isfinite(value):
                raise SpectrumError(f"mode index {name}={value} is not finite")
        if int(self.k) != self.k or self.k < 0:
            raise SpectrumError(f"k must be a non-negative integer, got {self.k}")
        nearest = round(2.0 * self.l) / 2.0
        if abs(self.l - nearest) <= HALF_INTEGER_TOL:
            raise SpectrumError(
                f"order l={self.l} is within {HALF_INTEGER_TOL} of the "
                f"half-integer {nearest}; the series coefficients degenerate there")


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue eta^2 with its two boundary-wise components."""

    mode: ModeIndex
    eta_sq: float
    eta1_sq: float
    eta2_sq: float

    @property
    def eta(self) -> float:
        return float(np.sqrt(self.eta_sq))


def _closed_form(k, l, a, b):
    """The closed form in its pieces, broadcast over k, l, a and b.

    Returns (weight, order, inner, outer): the thickness weighting
    (a^(l-1) + b^(l-1)) / (a^(l+1) + b^(l+1)), exactly 1/(ab) at l = 0; the
    order factor 4 (2k+1)(l+2k+1)(l+4k)/(l+4k+2); and the inner- and
    outer-radius parts of eta^2 = weight * order, whose sum is eta^2 up to
    round-off. Powers are taken in log space, safe for large |l|. Nothing
    is validated and no warning raised: callers reject the modes where the
    result is not finite.
    """
    l = np.asarray(l, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        la, lb = np.log(a), np.log(b)
        order = 4.0 * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k) / (l + 4 * k + 2)
        log_inner, log_outer = (l - 1) * la, (l - 1) * lb
        log_den = np.logaddexp((l + 1) * la, (l + 1) * lb)
        weight = np.where(l == 0.0, 1.0 / (a * b),
                          np.exp(np.logaddexp(log_inner, log_outer) - log_den))
        return (weight, order, np.exp(log_inner - log_den) * order,
                np.exp(log_outer - log_den) * order)


def _eigenvalues(k, l, a, b) -> np.ndarray:
    """eta^2 over broadcast arrays of modes and radii, checked like eigenvalue().

    The first entry in row-major order that ModeIndex or eigenvalue() would
    reject is handed to them, so it raises their error and message.
    """
    k, l, a, b = np.broadcast_arrays(k, l, a, b)
    weight, order, _, _ = _closed_form(k, l, a, b)
    eta_sq = weight * order
    # negated comparisons also flag NaN (and the order test flags +-inf),
    # which ModeIndex refuses as well
    bad = (~(np.isfinite(k) & (k >= 0)) | (k != np.trunc(k))
           | ~(np.abs(l - np.round(2.0 * l) / 2.0) > HALF_INTEGER_TOL) | (eta_sq < 0.0))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        eigenvalue(ModeIndex(k[i].item(), l[i].item()), AnnulusGeometry(a[i].item(), b[i].item()))
    return eta_sq


def eigenvalue(mode: ModeIndex, geom: AnnulusGeometry, *,
               allow_negative: bool = False) -> float:
    """Closed-form eigenvalue eta^2 for the given mode and annulus.

    For l < -4k the order factor turns negative and so does eta^2; that
    regime is rejected unless allow_negative is set, since a negative
    eta^2 has no oscillatory eigenmode attached to it.
    """
    weight, order, _, _ = _closed_form(mode.k, mode.l, geom.a, geom.b)
    value = float(weight * order)
    if value < 0.0 and not allow_negative:
        raise SpectrumError(
            f"eta^2 = {value} is negative for mode (k={mode.k}, l={mode.l}); "
            f"pass allow_negative=True to accept it")
    return value


def eigenvalue_components(mode: ModeIndex, geom: AnnulusGeometry) -> tuple[float, float]:
    """The two component eigenvalues whose sum is eigenvalue().

    The first carries the inner-radius weight a^(l-1), the second the
    outer-radius weight b^(l-1), both over the shared denominator
    a^(l+1) + b^(l+1).
    """
    _, _, inner, outer = _closed_form(mode.k, mode.l, geom.a, geom.b)
    return float(inner), float(outer)


def eigenpair(mode: ModeIndex, geom: AnnulusGeometry) -> Eigenpair:
    """Bundle the eigenvalue and its components for one mode."""
    e1, e2 = eigenvalue_components(mode, geom)
    return Eigenpair(mode, eigenvalue(mode, geom), e1, e2)


# ---------------------------------------------------------------------------
# thickness weighting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightingProfile:
    """Arguments of the thickness weighting f = (a^(l-1)+b^(l-1))/(a^(l+1)+b^(l+1)).

    Here b = a + rho. Unlike ModeIndex, any real l is admitted: the
    weighting is studied as a function of l, including integers.
    """

    a: float
    rho: float
    l: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.rho > 0.0):
            raise SpectrumError(f"need a > 0 and rho > 0, got a={self.a}, rho={self.rho}")


def weighting(profile: WeightingProfile) -> float:
    """Evaluate the weighting function, exactly 1/(a(rho+a)) at l = 0."""
    a = profile.a
    return float(_closed_form(0, profile.l, a, a + profile.rho)[0])


@dataclass(frozen=True)
class WeightingSupremum:
    """A quoted supremum of the weighting next to a numerical limit estimate.

    printed is the closed-form value 2/(a(rho+a)) (branch negative-l) or
    1/(a(rho+a)) (branch positive-l). numeric_estimate evaluates the
    weighting at l = -10^3 resp. l = 10^-6. The two agree on the positive
    branch for every geometry, but on the negative branch only when
    rho = a: the true l -> -inf limit is a^-2, and the discrepancy field
    surfaces the difference rather than hiding it.
    """

    branch: str
    printed: float
    numeric_estimate: float
    discrepancy: float


def weighting_supremum(a: float, rho: float, branch: str) -> WeightingSupremum:
    """Quoted supremum of f over l < 0 or l > 0, with a numeric cross-check."""
    if branch == "negative-l":
        printed = 2.0 / (a * (rho + a))
        numeric = weighting(WeightingProfile(a, rho, -1e3))
    elif branch == "positive-l":
        printed = 1.0 / (a * (rho + a))
        numeric = weighting(WeightingProfile(a, rho, 1e-6))
    else:
        raise SpectrumError(f"branch must be 'negative-l' or 'positive-l', got {branch!r}")
    return WeightingSupremum(branch, printed, numeric, abs(printed - numeric))


# ---------------------------------------------------------------------------
# eigenfunction series
# ---------------------------------------------------------------------------

_OVERFLOW_GUARD = 1e300


@dataclass(frozen=True)
class EigenfunctionSeries:
    """Truncated power-series representation of the radial eigenfunction.

    The radial profile is R(x) = R1(x) + R2(x) with

        R1(x) = x^l    * sum_j u_j (x^2)^j,
        R2(x) = x^(-l) * sum_j v_j (x^2)^j,

    where u_0 = v_0 = c0 and the coefficients obey

        u_{j+1}/u_j = -1 / (4 (j+1) (l+j+1)),
        v_{j+1}/v_j = -1 / (4 (j+1) (-l+j+1)).

    Coefficients are generated once, in double-double precision, and cached
    as (hi, lo) pairs; the hi parts are exposed as u and v for inspection.
    """

    mode: ModeIndex
    c0: float
    truncation: int
    u_hi: np.ndarray
    u_lo: np.ndarray
    v_hi: np.ndarray
    v_lo: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.u_hi

    @property
    def v(self) -> np.ndarray:
        return self.v_hi


def _coefficients(l: float, c0: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    hi = np.empty(count)
    lo = np.empty(count)
    c = dd_from(np.float64(c0))
    hi[0], lo[0] = c
    for j in range(count - 1):
        den = dd_mul(dd_from(np.float64(4.0 * (j + 1))), two_sum(np.float64(l), np.float64(j + 1)))
        c = dd_neg(dd_div(c, den))
        hi[j + 1], lo[j + 1] = c
    return hi, lo


def build_series(mode: ModeIndex, c0: float = 1.0, truncation: int = 80) -> EigenfunctionSeries:
    """Generate and cache the series coefficients for one mode."""
    if truncation < 1:
        raise SpectrumError(f"truncation must be at least 1, got {truncation}")
    uh, ul = _coefficients(mode.l, c0, truncation)
    vh, vl = _coefficients(-mode.l, c0, truncation)
    for arr in (uh, ul, vh, vl):
        arr.setflags(write=False)
    return EigenfunctionSeries(mode, float(c0), int(truncation), uh, ul, vh, vl)


def radial_part(series: EigenfunctionSeries, eta: float, r) -> tuple[np.ndarray, float]:
    """Evaluate R1 + R2 at radii r, returning (values, tail estimate).

    The two power series in x^2 = (eta r)^2 are summed in double-double
    arithmetic up to the cached truncation, stopping early once the current
    term of both series falls below 10^-14 of its partial sum at every
    point. The tail estimate is the largest ratio |term|/|sum| at the stop.
    Terms beyond the 10^300 guard abort the evaluation: the truncation
    cannot represent the function there.
    """
    x = np.asarray(r, dtype=np.float64) * float(eta)
    if np.any(x <= 0.0):
        raise SpectrumError("series argument eta*r must be positive")
    l = series.mode.l

    # overflow inside the loop is handled by the guard below, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        t = two_prod(x, x)
        p = (np.ones_like(x), np.zeros_like(x))
        s1 = (np.full_like(x, series.u_hi[0]), np.full_like(x, series.u_lo[0]))
        s2 = (np.full_like(x, series.v_hi[0]), np.full_like(x, series.v_lo[0]))
        tail = 1.0
        for j in range(1, series.truncation):
            p = dd_mul(p, t)
            term1 = dd_mul((series.u_hi[j], series.u_lo[j]), p)
            term2 = dd_mul((series.v_hi[j], series.v_lo[j]), p)
            m1, m2 = np.abs(term1[0]), np.abs(term2[0])
            # guard the running power as well as the terms: p overflows the
            # double-double splitter first when the coefficients are small,
            # and a NaN from that would slip past a bare > comparison
            worst = max(float(m1.max()), float(m2.max()), float(np.abs(p[0]).max()))
            if worst > _OVERFLOW_GUARD or not np.isfinite(worst):
                raise TruncationRangeError(
                    f"series term exceeded {_OVERFLOW_GUARD:g} at term {j}; "
                    f"argument eta*r = {x.max():g} is outside the convergent range")
            s1 = dd_add(s1, term1)
            s2 = dd_add(s2, term2)
            r1 = m1 / np.maximum(np.abs(s1[0]), 1e-300)
            r2 = m2 / np.maximum(np.abs(s2[0]), 1e-300)
            tail = float(max(r1.max(), r2.max()))
            if tail < 1e-14:
                break

    with np.errstate(over="raise"):
        try:
            pref1 = np.power(x, l)
            pref2 = np.power(x, -l)
        except FloatingPointError as exc:
            raise TruncationRangeError(f"prefactor x^(+-{l}) overflowed") from exc
    values = pref1 * (s1[0] + s1[1]) + pref2 * (s2[0] + s2[1])
    return values, tail


def eigenfunction_value(series: EigenfunctionSeries, eta: float, r, theta):
    """w(r, theta) = [R1 + R2](eta r) exp(i l theta); broadcasts over arrays.

    theta is reduced to the principal angle in [0, 2 pi) first, so the
    value depends only on the geometric point: w(r, theta + 2 pi) equals
    w(r, theta) even for non-integer l, where the raw phase factor alone
    would not be periodic.
    """
    r = np.asarray(r, dtype=np.float64)
    theta = np.mod(np.asarray(theta, dtype=np.float64), 2.0 * np.pi)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    radial, _ = radial_part(series, eta, np.broadcast_to(r, shape).ravel())
    w = radial.reshape(shape) * np.exp(1j * series.mode.l * theta)
    if w.shape == ():
        return complex(w)
    return w


# ---------------------------------------------------------------------------
# collocation verification
# ---------------------------------------------------------------------------

def chebyshev_diff_matrix(n: int) -> np.ndarray:
    """Differentiation matrix on the n Chebyshev points cos(pi j/(n-1)).

    Barycentric form with the negative-sum trick on the diagonal, which
    keeps each row summing to zero exactly (constants differentiate to 0).
    """
    if n < 2:
        raise SpectrumError(f"need at least 2 nodes, got {n}")
    j = np.arange(n)
    x = np.cos(np.pi * j / (n - 1))
    c = np.where((j == 0) | (j == n - 1), 2.0, 1.0) * np.where(j % 2 == 0, 1.0, -1.0)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (c[:, None] / c[None, :]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def collocation_residual(series: EigenfunctionSeries, eta: float,
                         grid: PolarSpectralGrid) -> float:
    """Relative interior residual of the eigenvalue equation.

    Computes || R'' + R'/r - l^2 R / r^2 + eta^2 R || / || eta^2 R || over
    the interior radial nodes, with radial derivatives from the spectral
    differentiation matrix and the angular part exact for a single
    harmonic. Small values certify that the series solves the equation in
    the interior at this eta.
    """
    if grid.N < 8:
        raise SpectrumError(f"grid too coarse for differentiation: N={grid.N} < 8")
    r = grid.radial_nodes
    R, _ = radial_part(series, eta, r)
    # nodes ascend in r; cos(pi j/(N-1)) descends in x, so the classical
    # matrix already matches the node order and the affine map to [a, b]
    # contributes the factor dx/dr = -2/(b-a)
    D = chebyshev_diff_matrix(grid.N) * (-2.0 / (grid.b - grid.a))
    dR = D @ R
    d2R = D @ dR
    l = series.mode.l
    res = d2R + dR / r - (l * l) * R / (r * r) + (eta * eta) * R
    ref = (eta * eta) * R
    inner = slice(1, grid.N - 1)
    return float(np.linalg.norm(res[inner]) / np.linalg.norm(ref[inner]))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB, all channels in [0, 1]."""
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def render_phase_plot(series: EigenfunctionSeries, eta: float,
                      grid: PolarSpectralGrid, path, resolution: int = 400) -> np.ndarray:
    """Render the eigenmode as an HSV phase plot and write a binary PPM.

    Hue encodes the argument of w mapped by (arg w + pi)/(2 pi), value
    encodes |w| relative to its maximum, saturation is 1. Pixels outside
    the annulus are black. The function is pure: identical inputs produce
    byte-identical files. Returns the (resolution, resolution, 3) uint8
    image array.
    """
    if resolution < 8:
        raise SpectrumError(f"resolution too small: {resolution}")
    a, b = grid.a, grid.b
    n = int(resolution)
    coords = -b + 2.0 * b * (np.arange(n) + 0.5) / n
    X = coords[None, :]
    Y = -coords[:, None]  # image rows run top to bottom
    rr = np.hypot(X, Y) + np.zeros((n, n))
    inside = (rr >= a) & (rr <= b)

    w = np.zeros((n, n), dtype=np.complex128)
    if inside.any():
        radial, _ = radial_part(series, eta, rr[inside])
        theta = np.mod(np.arctan2(np.broadcast_to(Y, (n, n))[inside],
                                  np.broadcast_to(X, (n, n))[inside]), 2.0 * np.pi)
        w[inside] = radial * np.exp(1j * series.mode.l * theta)

    mag = np.abs(w)
    peak = mag.max() if mag.max() > 0.0 else 1.0
    hue = (np.angle(w) + np.pi) / (2.0 * np.pi)
    val = np.where(inside, mag / peak, 0.0)
    rgb = _hsv_to_rgb(hue, np.ones_like(hue), val)
    img = np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)

    from ._util import replacing

    with replacing(path, "wb") as f:
        f.write(f"P6\n{n} {n}\n255\n".encode("ascii"))
        f.write(img.tobytes())
    return img


# ---------------------------------------------------------------------------
# tables and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumTable:
    """Matrix of eta values, rows indexed by k and columns by l."""

    k_values: np.ndarray
    l_values: np.ndarray
    eta: np.ndarray


def spectrum_table(k_range, l_list, geom: AnnulusGeometry) -> SpectrumTable:
    """Tabulate eta_{k,l} = sqrt(eta^2) over a rectangle of modes."""
    ks = np.array(sorted(k_range))
    ls = np.array([float(l) for l in l_list])
    # checked before the integer cast, so k = 1.5 is refused, not truncated
    table = np.sqrt(_eigenvalues(ks[:, None], ls[None, :], geom.a, geom.b))
    return SpectrumTable(ks.astype(np.int64), ls, table)


def export_spectrum_csv(table: SpectrumTable, path) -> None:
    """Write the table as CSV: header row of l values, first column k."""
    from ._util import write_text

    lines = ["k," + ",".join(format(l, ".6g") for l in table.l_values) + "\n"]
    for i, k in enumerate(table.k_values):
        row = ",".join(format(v, ".6g") for v in table.eta[i])
        lines.append(f"{int(k)},{row}\n")
    write_text(path, "".join(lines))


def telescoping_residual(mode: ModeIndex, geom: AnnulusGeometry, j: int) -> float:
    """Relative residual (F_j + F_{j+1}) / F_j of the pairwise-cancellation claim.

    F_j is the j-th term of the summed boundary-derivative series

        F_j = u_j (l+2j) [(eta a)^(l+2j-1) + (eta b)^(l+2j-1)],

    evaluated at the closed-form eta of the given mode. The pairwise sum
    vanishes only for the fundamental mode with j = 0; for higher modes the
    residual is order one. This is a diagnostic, not an identity: callers
    should log it, not assert on it.
    """
    l = mode.l
    eta = float(np.sqrt(eigenvalue(mode, geom)))

    def F(idx: int) -> float:
        coef = 1.0
        for m in range(1, idx + 1):
            coef *= -1.0 / (4.0 * m * (l + m))
        powers = (eta * geom.a) ** (l + 2 * idx - 1) + (eta * geom.b) ** (l + 2 * idx - 1)
        return coef * (l + 2 * idx) * powers

    fj = F(j)
    return (fj + F(j + 1)) / fj
