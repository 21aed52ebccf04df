"""Vectorized double-double (compensated, ~32 digit) arithmetic helpers.

The alternating radial power series used by the spectrum module loses up to
nine decimal digits to cancellation at the largest tabulated arguments
(x ~ 22, largest term ~ 2e8 against a sum of order 0.4). A plain float64
recurrence would leave ~1e-7 relative error in the radial profile, which the
interior collocation check then amplifies past its 1e-6 budget. Representing
each running term and partial sum as an (hi, lo) pair keeps the series exact
to well below double precision at negligible cost.

Only the handful of operations the series recurrence needs are implemented.
All functions are elementwise on ndarrays and never use FMA, so results are
bit-reproducible across platforms. Error-free transforms follow Dekker and
Knuth; see also Hida/Li/Bailey's qd library for the composite operations.
"""

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def two_sum(a, b):
    """Error-free sum: returns (s, e) with s = fl(a+b) and a+b = s+e exactly."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def fast_two_sum(a, b):
    """Error-free sum assuming |a| >= |b| elementwise."""
    s = a + b
    e = b - (s - a)
    return s, e


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    """Error-free product: (p, e) with p = fl(a*b) and a*b = p+e exactly."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def dd_add(x, y):
    """Accurate double-double addition of pairs x = (xh, xl), y = (yh, yl)."""
    xh, xl = x
    yh, yl = y
    sh, sl = two_sum(xh, yh)
    th, tl = two_sum(xl, yl)
    sl = sl + th
    sh, sl = fast_two_sum(sh, sl)
    sl = sl + tl
    return fast_two_sum(sh, sl)


def dd_mul(x, y):
    xh, xl = x
    yh, yl = y
    ph, pl = two_prod(xh, yh)
    pl = pl + (xh * yl + xl * yh)
    return fast_two_sum(ph, pl)


def dd_div(x, y):
    """Double-double division accurate to ~4 ulp of the low word."""
    xh, xl = x
    yh, yl = y
    q1 = xh / yh
    # residual r = x - q1*y, evaluated in double-double
    ph, pl = two_prod(q1, yh)
    pl = pl + q1 * yl
    rh, rl = dd_add((xh, xl), (-ph, -pl))
    q2 = (rh + rl) / yh
    return fast_two_sum(q1, q2)


def dd_neg(x):
    return -x[0], -x[1]


def dd_from(a):
    return np.asarray(a, dtype=float), np.zeros_like(np.asarray(a, dtype=float))
