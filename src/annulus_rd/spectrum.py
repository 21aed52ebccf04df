"""Closed-form Neumann Laplacian spectrum on the annulus.

The eigenvalue for mode (k, l) is

    eta^2 = 4 (a^l b + a b^l) (2k+1) (l+2k+1) (l+4k)
            -------------------------------------------
            a b (a^(l+1) + b^(l+1)) (l+4k+2)

with k a non-negative integer and l a real Bessel order away from the
half-integer lattice. The matching eigenfunction is the paper's Frobenius
series R(x) = R1(x) + R2(x), a sum of two power series in x = eta r, times
the phase factor exp(i l theta). Those series are the Bessel functions

    R(x) = 2^l Gamma(l+1) J_l(x) + 2^-l Gamma(1-l) J_-l(x)    (DLMF 10.2.2),

and with J_-l = cos(pi l) J_l - sin(pi l) Y_l (DLMF 10.4.7) the profile is
evaluated as one fixed combination of scipy's J_nu and Y_nu at nu = |l|.
Y_nu is taken as Im H1_nu (DLMF 10.4.3), one AMOS evaluation where scipy's
yv runs two, and it is computed on a worker thread while J_nu runs on the
calling thread (scipy's ufunc loops release the GIL).
R is even in l, and at l < 0 the two terms would cancel for x < |l|. Summing the
alternating series term by term in floating point cannot do this: at
x = eta(12, 0.3) = 67.3 its terms reach 9e26 against a sum of 0.16.

The collocation residual check differentiates the radial profile with a
barycentric Chebyshev matrix and applies the angular derivative analytically
(the mode is a single Fourier harmonic, so d^2/dtheta^2 contributes exactly
-l^2 w / r^2).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaln, hankel1, jv, yv

from .geometry import AnnulusGeometry, PolarSpectralGrid

HALF_INTEGER_TOL = 1e-9
# scipy 1.17's jv returns 0 for |J_nu(x)| below about 5e-305; below
# this bound the J_nu term of the radial profile is known only to c_j * bound
_J_FLOOR = 1e-300


class SpectrumError(ValueError):
    """Invalid mode index or eigenvalue outside the supported range."""


@dataclass(frozen=True)
class ModeIndex:
    """Mode index (k, l): k >= 0 integer, l real and not a multiple of 1/2."""

    k: int
    l: float

    def __post_init__(self):
        for name, value in (("k", self.k), ("l", self.l)):
            if not np.isfinite(value):
                raise SpectrumError(f"mode index {name}={value} is not finite")
        if int(self.k) != self.k or self.k < 0:
            raise SpectrumError(f"k must be a non-negative integer, got {self.k}")
        # np.round, unlike round, takes the inf that 2 l overflows to near
        # 1e308; such an order passes here and its eta^2 is refused as not finite
        nearest = float(np.round(2.0 * self.l)) / 2.0
        if abs(self.l - nearest) <= HALF_INTEGER_TOL:
            raise SpectrumError(
                f"order l={self.l} is within {HALF_INTEGER_TOL} of {nearest}, a "
                f"multiple of 1/2; the series coefficients degenerate there")


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
    """eta^2 over broadcast arrays of modes and radii; the radii are taken as valid.

    The first entry in row-major order with a mode index that ModeIndex
    rejects raises its error. For l < -4k the order factor turns negative
    and so does eta^2; that regime is rejected too, since a negative eta^2
    has no oscillatory eigenmode attached to it. A valid mode whose eta^2
    overflows (|l| near 1e308) is refused last, as not finite.
    """
    k, l, a, b = np.broadcast_arrays(k, l, a, b)
    # overflow is reported by the finiteness test below, not by a warning
    with np.errstate(over="ignore", invalid="ignore"):
        weight, order, _, _ = _closed_form(k, l, a, b)
        eta_sq = weight * order
        # negated comparisons also flag NaN (and the order test flags +-inf,
        # where inf - inf is a NaN that needs no warning), which ModeIndex
        # refuses as well
        bad = (~(np.isfinite(k) & (k >= 0)) | (k != np.trunc(k))
               | ~(np.abs(l - np.round(2.0 * l) / 2.0) > HALF_INTEGER_TOL) | (eta_sq < 0.0))
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        mode = ModeIndex(k[i].item(), l[i].item())
        raise SpectrumError(f"eta^2 = {eta_sq[i].item()} is negative for mode "
                            f"(k={mode.k}, l={mode.l})")
    infinite = ~np.isfinite(eta_sq)
    if infinite.any():
        i = np.unravel_index(np.argmax(infinite), infinite.shape)
        raise SpectrumError(f"eta^2 is not finite for mode (k={k[i].item()}, l={l[i].item()}): "
                            f"it overflows")
    return eta_sq


def eigenvalue(mode: ModeIndex, geom: AnnulusGeometry) -> float:
    """Closed-form eigenvalue eta^2 for the given mode and annulus.

    A negative eta^2 (l < -4k) raises SpectrumError, from _eigenvalues.
    """
    return float(_eigenvalues(mode.k, mode.l, geom.a, geom.b))


def eigenvalue_components(mode: ModeIndex, geom: AnnulusGeometry) -> tuple[float, float]:
    """The two component eigenvalues whose sum is eigenvalue().

    The first carries the inner-radius weight a^(l-1), the second the
    outer-radius weight b^(l-1), both over the shared denominator
    a^(l+1) + b^(l+1).
    """
    _, _, inner, outer = _closed_form(mode.k, mode.l, geom.a, geom.b)
    return float(inner), float(outer)


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
        for name in ("a", "rho", "l"):
            if not np.isfinite(getattr(self, name)):
                raise SpectrumError(f"{name} must be finite, got {getattr(self, name)}")


def weighting(profile: WeightingProfile) -> float:
    """Evaluate the weighting function, exactly 1/(a(rho+a)) at l = 0."""
    a = profile.a
    return float(_closed_form(0, profile.l, a, a + profile.rho)[0])


# the printed supremum of the weighting over each branch of l, in units of
# 1/(a b); stability inverts eigenvalue bounds through the same values
_SUPREMUM = {"positive-l": 1.0, "negative-l": 2.0}


@dataclass(frozen=True)
class WeightingSupremum:
    """A quoted supremum of the weighting next to a numerical limit estimate.

    printed is the closed-form value 2/(a(rho+a)) (branch negative-l) or
    1/(a(rho+a)) (branch positive-l), from _SUPREMUM. numeric_estimate
    evaluates the weighting at l = -10^3 resp. l = 10^-6. The two agree on
    the positive branch for every geometry, but on the negative branch only
    when rho = a: the true l -> -inf limit is a^-2, and the discrepancy
    field surfaces the difference rather than hiding it.
    """

    branch: str
    printed: float
    numeric_estimate: float
    discrepancy: float


def weighting_supremum(a: float, rho: float, branch: str) -> WeightingSupremum:
    """Quoted supremum of f over l < 0 or l > 0, with a numeric cross-check."""
    if branch not in _SUPREMUM:
        raise SpectrumError(f"branch must be 'negative-l' or 'positive-l', got {branch!r}")
    # the profile validates a and rho before the printed value divides by them
    profile = WeightingProfile(a, rho, -1e3 if branch == "negative-l" else 1e-6)
    printed = _SUPREMUM[branch] / (a * (rho + a))
    numeric = weighting(profile)
    return WeightingSupremum(branch, printed, numeric, abs(printed - numeric))


# ---------------------------------------------------------------------------
# eigenfunction series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenfunctionSeries:
    """The radial eigenfunction of one mode as a combination of J_nu and Y_nu.

    The paper's series R(x) = R1(x) + R2(x), with

        R1(x) = x^l    * sum_j u_j (x^2)^j,   u_0 = 1,
        R2(x) = x^(-l) * sum_j v_j (x^2)^j,   v_0 = 1,

    is unchanged under l -> -l. With nu = |l| it equals
    c_j 2^e_j J_nu(x) + c_y 2^e_y Y_nu(x), where

        c_j 2^e_j = 2^nu Gamma(nu+1) + 2^-nu Gamma(1-nu) cos(pi nu),
        c_y 2^e_y = -2^-nu Gamma(1-nu) sin(pi nu) = -pi / (2^nu Gamma(nu)).

    The binary exponents e_j and e_y are 0 unless the constants overflow
    float64, from nu of about 150 on.
    """

    mode: ModeIndex
    c_j: float
    c_y: float
    e_j: int = 0
    e_y: int = 0


def build_series(mode: ModeIndex, truncation=None) -> EigenfunctionSeries:
    """The two Bessel constants of one mode.

    They are formed at nu = |l|; only the phase factor of the mode keeps
    the sign of l. Where 2^nu Gamma(nu+1) overflows, each constant is kept
    as a mantissa and a binary exponent from gammaln, accurate to about
    2e-13 relative. truncation is accepted and ignored: it sized the term
    loop of an earlier power-series backend, and bench/workloads.py still
    passes it.
    """
    nu = np.float64(abs(mode.l))  # numpy powers overflow to inf, Python's raise
    with np.errstate(over="ignore", invalid="ignore"):
        c_minus = 2.0**-nu * gamma(1.0 - nu)
        c_j = 2.0**nu * gamma(nu + 1.0) + c_minus * np.cos(np.pi * nu)
        c_y = -c_minus * np.sin(np.pi * nu)
    if np.isfinite(c_j):
        return EigenfunctionSeries(mode, float(c_j), float(c_y))
    # log2 of |c_j| and |c_y|; the cos(pi nu) part of c_j is below 2^-2000 of it
    lj = nu + gammaln(nu + 1.0) / np.log(2.0)
    ly = np.log2(np.pi) - nu - gammaln(nu) / np.log(2.0)
    e_j, e_y = int(np.floor(lj)), int(np.floor(ly))
    return EigenfunctionSeries(mode, float(2.0**(lj - e_j)), float(-2.0**(ly - e_y)), e_j, e_y)


def _bessel_y(nu: float, x: np.ndarray) -> np.ndarray:
    """Y_nu(x) as Im H1_nu(x) (DLMF 10.4.3), bit for bit scipy's yv(nu, x).

    For real x scipy's yv evaluates H1 and H2 with AMOS and returns the
    imaginary part of H1; hankel1 evaluates H1 alone. Where that is not
    finite, the overflow near x = 0 and x past AMOS's argument limit of
    about 2.25e15, hankel1 gives NaN and yv's own value (-inf, or a
    finite value from its large-argument branch) is taken.
    """
    y = hankel1(nu, x).imag
    bad = ~np.isfinite(y)
    if bad.any():
        y[bad] = yv(nu, x[bad])
    return y


def radial_part(series: EigenfunctionSeries, eta: float, r) -> np.ndarray:
    """R1 + R2 at x = eta r for the radii r.

    Y_nu is Im H1_nu (_bessel_y); it runs on one worker thread while J_nu
    runs on the calling thread. It equals yv bit for bit, so the values
    equal the sequential jv/yv combination bit for bit.

    Raises SpectrumError for an argument x that is not positive and finite,
    for a value that is not finite, such as Y_nu overflowing near x = 0,
    and where |J_nu| is below _J_FLOOR (scipy returns 0 there) while its
    term could still move the value by more than one rounding.
    """
    x = np.asarray(r, dtype=np.float64) * float(eta)
    if not np.all((x > 0.0) & np.isfinite(x)):
        raise SpectrumError("series argument eta*r must be positive and finite")
    l = series.mode.l
    nu = abs(l)
    # np.ldexp takes a C int exponent; from nu of about 1e8 on they do not fit
    if max(abs(series.e_j), abs(series.e_y)) > np.iinfo(np.intc).max:
        raise SpectrumError(f"radial profile of order l={l} is out of range: its Bessel "
                            f"constants are 2^{series.e_j} and 2^{series.e_y} in size")
    with ThreadPoolExecutor(max_workers=1) as pool:
        y = pool.submit(_bessel_y, nu, x)
        j = jv(nu, x)
        y = y.result()
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.ldexp(series.c_j * j, series.e_j)
                  + np.ldexp(series.c_y * y, series.e_y))
        lost = np.ldexp(abs(series.c_j) * _J_FLOOR, series.e_j)
    if not np.all(np.isfinite(values)):
        raise SpectrumError(f"radial profile of order l={l} is not finite "
                            f"for eta*r in [{x.min():g}, {x.max():g}]")
    if np.any((np.abs(j) < _J_FLOOR) & (lost > np.finfo(np.float64).eps * np.abs(values))):
        raise SpectrumError(f"J_{nu:g} underflows where its term still counts in the "
                            f"radial profile of order l={l}")
    return values


def eigenfunction_value(series: EigenfunctionSeries, eta: float, r, theta):
    """w(r, theta) = [R1 + R2](eta r) exp(i l theta); broadcasts over arrays.

    theta is reduced to the principal angle in [0, 2 pi) first, so the
    value depends only on the geometric point: w(r, theta + 2 pi) equals
    w(r, theta) even for non-integer l, where the raw phase factor alone
    would not be periodic. The radial profile is evaluated once per
    distinct radius, since points often share radii (a symmetric pixel
    grid does).
    """
    r = np.asarray(r, dtype=np.float64)
    theta = np.mod(np.asarray(theta, dtype=np.float64), 2.0 * np.pi)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    radii, inverse = np.unique(np.broadcast_to(r, shape).ravel(), return_inverse=True)
    radial = radial_part(series, eta, radii)[inverse]
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
    R = radial_part(series, eta, r)
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

def _hsv_to_rgb(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB at saturation 1, all channels in [0, 1]."""
    h6 = (h % 1.0) * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = np.zeros_like(v)
    q = v * (1.0 - f)
    t = v * (1.0 - (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def render_phase_plot(series: EigenfunctionSeries, eta: float,
                      grid: PolarSpectralGrid, path, resolution: int = 400) -> np.ndarray:
    """Render the eigenmode as an HSV phase plot and write a binary PPM.

    Hue encodes the argument of w mapped by (arg w + pi)/(2 pi), value
    encodes |w| relative to its maximum, saturation is 1. Pixels whose
    centre lies outside the annulus are black: the colours are computed
    for the inside pixels only and scattered into a zeroed image, and an
    annulus that holds no pixel centre renders all black. The function is
    pure: identical inputs produce byte-identical files. Returns the
    (resolution, resolution, 3) uint8 image array.
    """
    if not (float(resolution).is_integer() and 8 <= resolution <= 2048):
        raise SpectrumError(f"resolution must be an integer in [8, 2048], got {resolution}")
    a, b = grid.a, grid.b
    n = int(resolution)
    coords = -b + 2.0 * b * (np.arange(n) + 0.5) / n
    X, Y = np.meshgrid(coords, -coords)  # image rows run top to bottom
    rr = np.hypot(X, Y)
    inside = (rr >= a) & (rr <= b)

    w = eigenfunction_value(series, eta, rr[inside], np.arctan2(Y[inside], X[inside]))
    mag = np.abs(w)
    peak = mag.max(initial=0.0)
    hue = (np.angle(w) + np.pi) / (2.0 * np.pi)
    rgb = _hsv_to_rgb(hue, mag / (peak if peak > 0.0 else 1.0))
    img = np.zeros((n, n, 3), dtype=np.uint8)
    img[inside] = np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8)

    from ._util import replacing

    with replacing(path, "wb") as f:
        f.write(f"P6\n{n} {n}\n255\n".encode("ascii"))
        f.write(img.tobytes())
    return img


# ---------------------------------------------------------------------------
# tables
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
