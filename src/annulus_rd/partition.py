"""Classification of the (alpha, beta) parameter plane into stability regions.

A sweep evaluates the trace/determinant classification of `stability` on a
rectangular grid, block by block on the calling thread, and returns an
integer-coded region map. The boundaries between regions are the two
partitioning curves:

* discriminant zero, T^2 = 4D, separating real from complex growth rates;
* trace zero with positive determinant, the temporal-instability onset.

Both curves are extracted per alpha sample by two genuinely different
methods and cross-checked: clearing the (beta+alpha) denominators turns
T^2 - 4D into a degree-6 polynomial in beta (and T into a cubic), whose
roots come from the companion matrix; independently, sign changes of the
defining function along a fine beta grid are refined by bisection. Each
bisection root must lie within 1e-6 of a polynomial root; a polynomial
root with no sign-change partner is accepted only if the defining equation
is satisfied there (a tangency, where bisection is blind), and any other
disagreement aborts the run.

The sweep oracle `first_principles_labels` classifies every cell from the
eigenvalues of the assembled 2x2 linearization matrix instead of the closed
trace/determinant formulas, giving an independent code path that must match
the sweep cell for cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _util
from ._util import SIZE_LIMIT
from .geometry import AnnulusGeometry
from .spectrum import ModeIndex, eigenvalue
from .stability import (CODE_LABELS, FORMS, LABEL_CODES, _det_diffusivity, _label_codes,
                        _trace_det)


class PartitionError(RuntimeError):
    """Sweep or curve extraction failed its internal cross-checks."""


class PartitionInputError(PartitionError, ValueError):
    """A sweep, sample or region file the partition refuses; a ValueError."""


@dataclass(frozen=True)
class SweepSpec:
    """A rectangular (alpha, beta) sweep at fixed (gamma, d, mode, geometry).

    Grid nodes are linspace(min, max, n) inclusive of both ends, for
    integer counts n of at least 2; window minima must be strictly
    positive (the kinetics are only defined there) and every bound finite.
    """

    alpha_min: float
    alpha_max: float
    beta_min: float
    beta_max: float
    n_alpha: int
    n_beta: int
    gamma: float
    d: float
    mode: ModeIndex
    geom: AnnulusGeometry
    form: str = "consistent"

    def __post_init__(self):
        if not (0.0 < self.alpha_min < self.alpha_max < np.inf):
            raise PartitionInputError(f"need 0 < alpha_min < alpha_max < inf, got [{self.alpha_min}, {self.alpha_max}]")
        if not (0.0 < self.beta_min < self.beta_max < np.inf):
            raise PartitionInputError(f"need 0 < beta_min < beta_max < inf, got [{self.beta_min}, {self.beta_max}]")
        if not all(isinstance(n, (int, np.integer)) for n in (self.n_alpha, self.n_beta)):
            raise PartitionInputError(f"grid counts must be integers, got {self.n_alpha!r}x{self.n_beta!r}")
        if self.n_alpha < 2 or self.n_beta < 2:
            raise PartitionInputError(f"grid counts must be at least 2, got {self.n_alpha}x{self.n_beta}")
        if self.n_alpha * self.n_beta > SIZE_LIMIT:
            raise PartitionInputError(f"grid of {self.n_alpha}x{self.n_beta} cells exceeds the limit {SIZE_LIMIT:,}")
        if not (0.0 < self.gamma < np.inf and 0.0 < self.d < np.inf):
            raise PartitionInputError(f"gamma and d must be positive and finite, got {self.gamma}, {self.d}")
        if self.form not in FORMS:
            raise PartitionInputError(f"form must be one of {FORMS}, got {self.form!r}")
        # every partial result of _trace_det on the window stays below these
        # bounds on |T| and |D|, taken at s = max(1, alpha + beta)
        eta_sq = self.eta_sq
        g, s = np.float64(self.gamma), np.float64(max(1.0, self.alpha_max + self.beta_max))
        with np.errstate(over="ignore"):
            c = (self.d + 1.0) * eta_sq
            T, D = g * (s + s**3) + c, (g + eta_sq) * (g * s * s + c) + 2.0 * g * g * s * s
            if not np.isfinite(T * T + 4.0 * D):
                raise PartitionInputError(
                    f"T^2 - 4D may overflow on this window: gamma={self.gamma!r}, d={self.d!r}, "
                    f"eta^2={eta_sq!r}, alpha + beta up to {self.alpha_max + self.beta_max!r}")

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.n_alpha)

    @property
    def betas(self) -> np.ndarray:
        return np.linspace(self.beta_min, self.beta_max, self.n_beta)

    @property
    def eta_sq(self) -> float:
        return eigenvalue(self.mode, self.geom)


@dataclass(frozen=True)
class RegionMap:
    """Integer-coded classification grid; labels[j, i] is cell (alpha_i, beta_j)."""

    spec: SweepSpec
    labels: np.ndarray

    def counts(self) -> dict[str, int]:
        """Number of cells per label name."""
        return {label.value: int(np.sum(self.labels == code))
                for label, code in LABEL_CODES.items()}


def sweep_classify(spec: SweepSpec, threads=None) -> RegionMap:
    """Classify every grid cell, in blocks of at most _util.BLOCK cells.

    Each block of rows (or piece of a row longer than a block) is
    classified on its own and written into its place in the map, so no
    temporary spans the whole grid. threads is accepted and ignored: the
    sweep runs on the calling thread, and bench/workloads.py still passes it.
    """
    alphas, betas = spec.alphas, spec.betas
    eta_sq = spec.eta_sq
    labels = np.empty((spec.n_beta, spec.n_alpha), dtype=np.int8)
    for rows, cols in _util.blocks(spec.n_beta, spec.n_alpha):
        T, D = _trace_det(alphas[None, cols], betas[rows, None], spec.gamma, spec.d, eta_sq,
                          spec.form)
        labels[rows, cols] = _label_codes(T, D)
    labels.setflags(write=False)
    return RegionMap(spec, labels)


def first_principles_labels(spec: SweepSpec) -> np.ndarray:
    """Independent classification from eigenvalues of the assembled matrix.

    Builds the 2x2 linearization for every cell, takes its eigenvalues,
    reconstructs trace and determinant from them, and applies the same sign
    table. Only meaningful for the 'consistent' form, which is the one the
    matrix defines.
    """
    if spec.form != "consistent":
        raise PartitionInputError("first-principles oracle is defined by the matrix, i.e. the 'consistent' form")
    A = spec.alphas[None, :] + np.zeros((spec.n_beta, 1))
    B = spec.betas[:, None] + np.zeros((1, spec.n_alpha))
    s = A + B
    g, d, eta_sq = spec.gamma, spec.d, spec.eta_sq
    M = np.empty(s.shape + (2, 2))
    M[..., 0, 0] = g * (B - A) / s - eta_sq
    M[..., 0, 1] = g * s * s
    M[..., 1, 0] = -2.0 * g * B / s
    M[..., 1, 1] = -g * s * s - d * eta_sq
    sigma = np.linalg.eigvals(M)
    T = sigma.sum(axis=-1).real
    D = (sigma[..., 0] * sigma[..., 1]).real
    return _label_codes(T, D)


# ---------------------------------------------------------------------------
# partitioning curves
# ---------------------------------------------------------------------------

# The cleared polynomials of a batch of alpha samples form one float array
# of shape (batch, width), one row per sample, coefficients lowest degree
# first. Sums and scalar multiples are numpy arithmetic on these rows; the
# constant 1 and beta are rows shared by every sample.

def _rows(alphas: np.ndarray, width: int):
    """The rows 1, alpha, beta and s = alpha + beta, for each alpha sample."""
    one, beta = np.eye(width)[:2]
    alpha = alphas[:, None] * one
    return one, alpha, beta, alpha + beta


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row by row product of two coefficient arrays of one width, whose degree
    stays below that width."""
    width = p.shape[-1]
    out = np.zeros(np.broadcast_shapes(p.shape, q.shape))
    for j in range(width):
        out[..., j:] += p[..., :width - j] * q[..., j:j + 1]
    return out


def _cleared_trace(spec: SweepSpec, eta_sq: float, alphas: np.ndarray, width: int = 4) -> np.ndarray:
    """s*T as cubics in beta; multiplying by s = beta + alpha > 0 keeps the roots."""
    _, alpha, beta, s = _rows(alphas, width)
    return spec.gamma * (beta - alpha - _mul(_mul(s, s), s)) - (spec.d + 1.0) * eta_sq * s


def _cleared_discriminant(spec: SweepSpec, eta_sq: float, alphas: np.ndarray) -> np.ndarray:
    """s^2 (T^2 - 4D) = (sT)^2 - 4s (sD) as degree-6 polynomials in beta."""
    one, alpha, beta, s = _rows(alphas, 7)
    s2 = _mul(s, s)
    gamma = spec.gamma
    c = _det_diffusivity(spec.d, spec.form)
    # s * D, from D = (gamma (beta-alpha)/s - eta^2)(-gamma s^2 - c eta^2) + 2 gamma^2 beta s
    sD = _mul(gamma * (beta - alpha) - eta_sq * s, -gamma * s2 - c * eta_sq * one) \
        + 2.0 * gamma * gamma * _mul(beta, s2)
    sT = _cleared_trace(spec, eta_sq, alphas, 7)
    return _mul(sT, sT) - 4.0 * _mul(s, sD)


def _companion_roots(coefs: np.ndarray) -> np.ndarray:
    """Sorted roots of each row's polynomial (nonzero last coefficient), from one
    eigvals call on the companion matrices numpy.polynomial builds."""
    batch, n = len(coefs), coefs.shape[1] - 1
    mat = np.zeros((batch, n, n))
    mat[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    mat[:, :, -1] -= coefs[:, :-1] / coefs[:, -1:]
    return np.sort(np.linalg.eigvals(mat), axis=-1)


def _real_roots_in(roots: np.ndarray, lo: float, hi: float) -> np.ndarray:
    real = roots[np.abs(roots.imag) < 1e-9 * np.maximum(1.0, np.abs(roots.real))].real
    real = real[(real >= lo) & (real <= hi)]
    return np.sort(real)


def _merge_close(values: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    if len(values) == 0:
        return values
    out = [values[0]]
    for v in values[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return np.array(out)


# beta grid values per alpha in the sign scan of _bisect_roots
_BISECT_SAMPLES = 2001


def _bisect_roots(fn, alphas: np.ndarray, lo: float, hi: float) -> list[np.ndarray]:
    """All simple roots in beta on [lo, hi] of fn(alpha, beta), for each alpha.

    fn broadcasts over its two arguments. It is evaluated on the beta grid
    linspace(lo, hi, _BISECT_SAMPLES) for every alpha, a block of
    max(1, _util.BLOCK // _BISECT_SAMPLES) whole alpha rows per call; a
    sign change between neighbouring grid values brackets a root, and the
    brackets of all alphas are halved together, one fn call per halving. A
    bracket stops at an exact zero of fn, once narrower than
    1e-15 max(1, |midpoint|), or after 200 halvings. Grid values that are
    exactly zero are roots too. Returns one sorted array per alpha, with
    roots closer than 1e-8 merged.
    """
    grid = np.linspace(lo, hi, _BISECT_SAMPLES)
    # brackets and zero cells in row-major order, block by block
    rows, cols, f0 = [np.empty(0, np.intp)], [np.empty(0, np.intp)], [np.empty(0)]
    zero_rows, zero_cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    step = max(1, _util.BLOCK // _BISECT_SAMPLES)
    for start in range(0, len(alphas), step):
        vals = fn(alphas[start:start + step, None], grid)
        r, c = np.nonzero(vals == 0.0)
        zero_rows.append(r + start)
        zero_cols.append(c)
        sign = np.sign(vals)
        r, c = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0)
        rows.append(r + start)
        cols.append(c)
        f0.append(vals[r, c])
    rows, cols, f0 = np.concatenate(rows), np.concatenate(cols), np.concatenate(f0)
    zero_rows, zero_cols = np.concatenate(zero_rows), np.concatenate(zero_cols)
    alpha, x0, x1 = alphas[rows], grid[cols], grid[cols + 1]
    live = np.arange(len(rows))
    for _ in range(200):
        if not live.size:
            break
        xm = 0.5 * (x0[live] + x1[live])
        fm = fn(alpha[live], xm)
        done = (fm == 0.0) | ((x1[live] - x0[live]) < 1e-15 * np.maximum(1.0, np.abs(xm)))
        up = ~done & ((f0[live] < 0) == (fm < 0))
        down = ~done & ~up
        x0[live[done]] = x1[live[done]] = xm[done]
        x0[live[up]], f0[live[up]] = xm[up], fm[up]
        x1[live[down]] = xm[down]
        live = live[~done]
    found = np.concatenate([0.5 * (x0 + x1), grid[zero_cols]])
    owner = np.concatenate([rows, zero_rows])
    order = np.lexsort((found, owner))
    ends = np.cumsum(np.bincount(owner, minlength=len(alphas)))
    return [_merge_close(r) for r in np.split(found[order], ends)[:len(alphas)]]


def _cross_checked_roots(poly_roots: np.ndarray, bisect_roots: np.ndarray,
                         residual, alpha: float, what: str) -> np.ndarray:
    """Reconcile the two root sets; abort loudly if they disagree."""
    matched = np.zeros(len(poly_roots), dtype=bool)
    for r in bisect_roots:
        if len(poly_roots) == 0:
            raise PartitionError(
                f"{what}: bisection found beta={r!r} at alpha={alpha!r} "
                f"but the polynomial has no root there")
        i = int(np.argmin(np.abs(poly_roots - r)))
        gap = abs(poly_roots[i] - r)
        if gap > 1e-6:
            raise PartitionError(
                f"{what}: methods disagree at alpha={alpha!r}: polynomial "
                f"beta={poly_roots[i]!r} vs bisection beta={r!r} (gap {gap:.3e})")
        matched[i] = True
    for i in np.nonzero(~matched)[0]:
        res = residual(poly_roots[i])
        if abs(res) > 1e-8:
            raise PartitionError(
                f"{what}: polynomial root beta={poly_roots[i]!r} at "
                f"alpha={alpha!r} has no bisection partner and residual "
                f"{res!r} is too large for a tangency")
    return poly_roots


# alpha samples per batch in _curve: a batch's companion matrices and
# bisection brackets grow with it, so memory stays bounded however many samples
_CURVE_BATCH = 256


def _curve(spec: SweepSpec, alpha_samples, what: str, cleared, defining) -> np.ndarray:
    """Dual-method roots in beta of one defining function, per alpha sample.

    cleared(spec, eta_sq, alphas) builds the function's cleared polynomials
    in beta, one coefficient row per sample; defining(T, D) returns the
    function's value and the scale its tangency residual is measured
    against. Every sample is checked against the window before anything is
    evaluated. The samples then go in batches of _CURVE_BATCH: a batch's
    polynomials come from one cleared call, their companion roots from one
    eigvals call (_companion_roots), which a polynomial refuses if its
    companion matrix is not finite or its leading coefficient not a normal
    float, and the bisection brackets are halved together (_bisect_roots);
    the two root sets are reconciled sample by sample, in sample order.
    Points come sorted, as an (n, 2) array.
    """
    alphas = np.atleast_1d(np.asarray(alpha_samples, dtype=np.float64))
    outside = ~((spec.alpha_min <= alphas) & (alphas <= spec.alpha_max))
    if outside.any():
        raise PartitionInputError(
            f"alpha sample {alphas[np.argmax(outside)]!r} outside the sweep window")
    eta_sq = spec.eta_sq

    def value_scale(alpha, beta):
        return defining(*_trace_det(alpha, beta, spec.gamma, spec.d, eta_sq, spec.form))

    points = []
    for start in range(0, len(alphas), _CURVE_BATCH):
        batch = alphas[start:start + _CURVE_BATCH]
        coefs = cleared(spec, eta_sq, batch)
        with np.errstate(all="ignore"):
            finite = np.isfinite(coefs).all() and np.isfinite(coefs[:, :-1] / coefs[:, -1:]).all()
        if not (finite and np.abs(coefs[:, -1]).min() >= np.finfo(np.float64).tiny):
            raise PartitionInputError(
                f"{what} at gamma={spec.gamma!r}, d={spec.d!r}: the cleared polynomial in beta "
                f"has no finite companion matrix (leading coefficient {float(coefs[0, -1])!r})")
        proots = _companion_roots(coefs)
        broots = _bisect_roots(lambda alpha, beta: value_scale(alpha, beta)[0],
                               batch, spec.beta_min, spec.beta_max)
        for alpha, roots, bisected in zip(batch, proots, broots):
            def residual(beta, alpha=alpha):
                value, scale = value_scale(alpha, beta)
                return value / scale

            real = _merge_close(_real_roots_in(roots, spec.beta_min, spec.beta_max))
            for beta in _cross_checked_roots(real, bisected, residual, float(alpha), what):
                points.append((float(alpha), float(beta)))
    return np.array(sorted(points)).reshape(-1, 2)


def discriminant_curve(spec: SweepSpec, alpha_samples) -> np.ndarray:
    """(alpha, beta) points with T^2 = 4D inside the sweep window.

    Dual-method per alpha: degree-6 companion roots cross-checked against
    bisection (agreement 1e-6, tangencies admitted by residual); returns an
    (n, 2) array sorted by (alpha, beta).
    """
    return _curve(spec, alpha_samples, "discriminant curve", _cleared_discriminant,
                  lambda T, D: (T * T - 4.0 * D, 1.0 + T * T))


def transcritical_curve(spec: SweepSpec, alpha_samples) -> np.ndarray:
    """(alpha, beta) points with T = 0 and D > 0 inside the sweep window.

    Cubic companion roots cross-checked against bisection; roots where the
    determinant is not positive are discarded (they are not temporal-onset
    points).
    """
    points = _curve(spec, alpha_samples, "transcritical curve", _cleared_trace,
                    lambda T, D: (T, 1.0 + abs(T)))
    _, D = _trace_det(points[:, 0], points[:, 1], spec.gamma, spec.d, spec.eta_sq, spec.form)
    return points[D > 0.0]


@dataclass(frozen=True)
class CurveSet:
    """Both partitioning curves for one (gamma, d) configuration."""

    gamma: float
    d: float
    discriminant: np.ndarray
    transcritical: np.ndarray


def build_curves(spec: SweepSpec, alpha_samples) -> CurveSet:
    """Extract both curves over the same alpha samples."""
    return CurveSet(spec.gamma, spec.d,
                    discriminant_curve(spec, alpha_samples),
                    transcritical_curve(spec, alpha_samples))


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------

REGION_CSV_HEADER = "alpha,beta,label"
CURVE_CSV_HEADER = "curve,alpha,beta"

# gray levels for the indexed raster, one per label code
_RASTER_LEVELS = {code: 40 * (code + 1) for code in CODE_LABELS}


def export_region_map(region: RegionMap, csv_path, raster_path=None,
                      legend_path=None) -> None:
    """Write the map as CSV (one row per cell) and optionally a PGM raster.

    The raster has one pixel per cell, rows running from beta_max (top) to
    beta_min (bottom); the legend file maps each label to its gray level.
    """
    from ._util import fmt, replacing, write_text

    spec = region.spec
    # each coordinate and label is formatted once; rows are written as they
    # are joined, so the whole text is never held at once
    alpha_texts = [fmt(alpha) for alpha in spec.alphas]
    label_texts = {code: f",{label.value}\n" for code, label in CODE_LABELS.items()}
    with replacing(csv_path, "w") as f:
        f.write(REGION_CSV_HEADER + "\n")
        for beta, codes in zip(spec.betas, region.labels):
            middle = "," + fmt(beta)
            f.write("".join([alpha + middle + label_texts[code]
                             for alpha, code in zip(alpha_texts, codes.tolist())]))

    if raster_path is not None:
        img = np.zeros((spec.n_beta, spec.n_alpha), dtype=np.uint8)
        for code, level in _RASTER_LEVELS.items():
            img[region.labels == code] = level
        img = img[::-1]  # beta_max on top
        with replacing(raster_path, "wb") as f:
            f.write(f"P5\n{spec.n_alpha} {spec.n_beta}\n255\n".encode("ascii"))
            f.write(img.tobytes())
    if legend_path is not None:
        rows = [f"{_RASTER_LEVELS[code]} {CODE_LABELS[code].value}\n"
                for code in sorted(CODE_LABELS)]
        write_text(legend_path, "".join(rows))


def import_region_labels(csv_path, n_alpha: int, n_beta: int) -> np.ndarray:
    """Re-read the label grid from a region CSV written by export_region_map.

    A row without three fields, an unknown label or a row past the
    n_alpha * n_beta cells raises PartitionInputError naming the line.
    """
    labels = np.empty((n_beta, n_alpha), dtype=np.int8)
    by_name = {label.value: code for label, code in LABEL_CODES.items()}
    with open(csv_path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != REGION_CSV_HEADER:
            raise PartitionInputError(f"unexpected region CSV header: {header!r}")
        idx = 0
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            fields = line.strip().split(",")
            if len(fields) != 3:
                raise PartitionInputError(f"line {lineno}: expected 3 fields, got {len(fields)}")
            if fields[2] not in by_name:
                raise PartitionInputError(f"line {lineno}: unknown label {fields[2]!r}")
            if idx == labels.size:
                raise PartitionInputError(f"line {lineno}: more than {labels.size} rows")
            labels[idx // n_alpha, idx % n_alpha] = by_name[fields[2]]
            idx += 1
    if idx != n_alpha * n_beta:
        raise PartitionInputError(f"region CSV has {idx} rows, expected {n_alpha * n_beta}")
    return labels


def export_curves(curves: CurveSet, path) -> None:
    """Write both curves as CSV rows `curve,alpha,beta` (header-only if empty)."""
    from ._util import fmt, write_text

    lines = [CURVE_CSV_HEADER + "\n"]
    for name, pts in (("discriminant", curves.discriminant),
                      ("transcritical", curves.transcritical)):
        for alpha, beta in pts:
            lines.append(f"{name},{fmt(alpha)},{fmt(beta)}\n")
    write_text(path, "".join(lines))
