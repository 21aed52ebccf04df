"""High-precision reference evaluations used to freeze golden test values.

Everything here is computed with mpmath at 50 significant digits, independently
of the package implementation (which is pure double precision). Run this script
and paste the printed literals into tests; do not import the package from here.

Usage: python tools/oracle_goldens.py
"""

import mpmath as mp

mp.mp.dps = 50


def eta_sq(k, l, a, b):
    """Closed-form annulus eigenvalue (superposed form)."""
    k = mp.mpf(k)
    l = mp.mpf(l)
    a = mp.mpf(a)
    b = mp.mpf(b)
    num = 4 * (a**l * b + a * b**l) * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k)
    den = a * b * (a ** (l + 1) + b ** (l + 1)) * (l + 4 * k + 2)
    return num / den


def eta_sq_components(k, l, a, b):
    """Component eigenvalues (inner-radius and outer-radius forms)."""
    k = mp.mpf(k)
    l = mp.mpf(l)
    a = mp.mpf(a)
    b = mp.mpf(b)
    core = 4 * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k)
    den = (a ** (l + 1) + b ** (l + 1)) * (l + 4 * k + 2)
    e1 = core / (a ** (1 - l) * den)
    e2 = core / (b ** (1 - l) * den)
    return e1, e2


def weighting(a, rho, l):
    a = mp.mpf(a)
    rho = mp.mpf(rho)
    l = mp.mpf(l)
    return (a ** (l - 1) + (rho + a) ** (l - 1)) / (a ** (l + 1) + (rho + a) ** (l + 1))


def trace_det(alpha, beta, gamma, d, e2, form):
    alpha, beta, gamma, d, e2 = map(mp.mpf, (alpha, beta, gamma, d, e2))
    s = alpha + beta
    T = gamma * (beta - alpha - s**3) / s - (d + 1) * e2
    shift = (d + 1) * e2 if form == "paper-literal" else d * e2
    D = (gamma * (beta - alpha) / s - e2) * (-gamma * s**2 - shift) + 2 * gamma**2 * beta * s
    return T, D


def curve_roots(fn, lo=mp.mpf("0.005"), hi=mp.mpf(1), samples=400):
    """Simple roots in beta of fn on [lo, hi]: sign changes on a uniform
    grid, each refined by findroot's Anderson bracketing solver."""
    grid = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    vals = [fn(b) for b in grid]
    roots = []
    for b0, b1, f0, f1 in zip(grid, grid[1:], vals, vals[1:]):
        if f0 == 0:
            roots.append(b0)
        elif f0 * f1 < 0:
            roots.append(mp.findroot(fn, (b0, b1), solver="anderson"))
    if vals[-1] == 0:
        roots.append(grid[-1])
    return roots


def radial_series(l, x, jmax=250):
    """Power-series radial part with C0 = 1 (sum of both signed-order series)."""
    l = mp.mpf(l)
    x = mp.mpf(x)
    total = mp.mpf(0)
    for sign in (1, -1):
        ls = sign * l
        term = x**ls
        s = term
        for j in range(jmax):
            term *= -x**2 / (4 * (j + 1) * (ls + j + 1))
            s += term
        total += s
    return total


def radial_series_one(l, x, jmax=250):
    l = mp.mpf(l)
    x = mp.mpf(x)
    term = x**l
    s = term
    for j in range(jmax):
        term *= -x**2 / (4 * (j + 1) * (l + j + 1))
        s += term
    return s


def radial_bessel(l, x):
    """R1 + R2 through the Bessel route 2^l G(l+1) J_l(x) + 2^-l G(1-l) J_-l(x)."""
    l = mp.mpf(l)
    x = mp.mpf(x)
    return (2**l * mp.gamma(l + 1) * mp.besselj(l, x)
            + 2**-l * mp.gamma(1 - l) * mp.besselj(-l, x))


def show(label, value, digits=17):
    print(f"{label:58s} {mp.nstr(value, digits)}")


def main():
    a, b = mp.mpf("0.5"), mp.mpf(1)

    print("== closed-form eigenvalues (a=1/2, b=1) ==")
    table_l = [mp.mpf("0.3") + i for i in range(12)]
    # spot values quoted to 4 dp elsewhere
    for k, l in [(1, "0.3"), (2, "0.3"), (10, "5.3"), (12, "11.3")]:
        show(f"eta({k},{l})", mp.sqrt(eta_sq(k, mp.mpf(l), a, b)))
    show("eta_sq(0, 0.27)", eta_sq(0, mp.mpf("0.27"), a, b))
    for k in (0, 1, 2):
        show(f"eta_sq({k}, 1.3)", eta_sq(k, mp.mpf("1.3"), a, b))
    e1, e2 = eta_sq_components(1, mp.mpf("0.3"), a, b)
    show("eta1_sq(1,0.3)", e1)
    show("eta2_sq(1,0.3)", e2)
    show("superposition residual", e1 + e2 - eta_sq(1, mp.mpf("0.3"), a, b))

    print("== weighting function (a=1/2) ==")
    show("f(rho=1/2, l=0)", weighting(a, a, 0))
    show("f(rho=1/2, l=1)", weighting(a, a, 1))
    show("f(rho=1/2, l=-40)", weighting(a, a, -40))
    show("f(rho=1/2, l=-1000)", weighting(a, a, -1000))
    show("f(rho=3/2, l=-1000)", weighting(a, mp.mpf("1.5"), -1000))
    show("printed negative-l supremum, rho=3/2", 2 / (a * (mp.mpf("1.5") + a)))
    show("a**-2", a**-2)
    show("f(rho=1/2, l=1e-6)", weighting(a, a, mp.mpf("1e-6")))
    # composition identity spot check
    l13 = mp.mpf("1.3")
    comp = weighting(a, a, l13) * 4 * 1 * (l13 + 1) * l13 / (l13 + 2)
    show("f*mode-factor (k=0, l=1.3)", comp)
    show("vs direct", eta_sq(0, l13, a, b))

    print("== trace/determinant goldens ==")
    e2_013 = eta_sq(0, l13, a, b)
    e2_113 = eta_sq(1, l13, a, b)
    e2_213 = eta_sq(2, l13, a, b)
    for tag, al, be, ga, d, ee in [
        ("hand (0.1,0.9,1,1,0)", "0.1", "0.9", 1, 1, 0),
        ("hopf cfg  (0.05,0.55,730,5,k0)", "0.05", "0.55", 730, 5, e2_013),
        ("turing cfg (0.09,0.45,250,10,k0)", "0.09", "0.45", 250, 10, e2_013),
        ("turing cfg (0.09,0.45,250,10,k1)", "0.09", "0.45", 250, 10, e2_113),
        ("hopf cfg  (0.05,0.55,730,5,k2)", "0.05", "0.55", 730, 5, e2_213),
    ]:
        Tc, Dc = trace_det(al, be, ga, d, ee, "consistent")
        Tp, Dp = trace_det(al, be, ga, d, ee, "paper-literal")
        show(f"T  {tag}", Tc)
        show(f"Dc {tag}", Dc)
        show(f"Dp {tag}", Dp)
        disc = Tc * Tc - 4 * Dc
        show(f"disc(consistent) {tag}", disc)
        if disc >= 0:
            show(f"sigma+ {tag}", (Tc + mp.sqrt(disc)) / 2)

    print("== grid cell (0.005, 0.65) at (d=8, gamma=21, l=0.27, k=0) ==")
    e2_027 = eta_sq(0, mp.mpf("0.27"), a, b)
    Tc, Dc = trace_det("0.005", "0.65", 21, 8, e2_027, "consistent")
    show("T", Tc)
    show("D", Dc)
    show("disc", Tc * Tc - 4 * Dc)

    print("== partitioning curves at mode (0, 0.27), beta in [0.005, 1] ==")
    # alpha, gamma, d and l enter as the doubles the package is given;
    # discriminant: T^2 = 4D; transcritical: T = 0 where D > 0
    e2_027f = eta_sq(0, mp.mpf(0.27), a, b)
    for ga, d, form in [(21, 8, "consistent"), (730, 5, "consistent"), (21, 8, "paper-literal")]:
        for al in (0.005, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8):
            def disc(be):
                T, D = trace_det(al, be, ga, d, e2_027f, form)
                return T * T - 4 * D

            def trace(be):
                return trace_det(al, be, ga, d, e2_027f, form)[0]

            onset = [r for r in curve_roots(trace) if trace_det(al, r, ga, d, e2_027f, form)[1] > 0]
            for name, roots in (("discriminant", curve_roots(disc)), ("transcritical", onset)):
                for r in roots:
                    show(f"{name} beta ({ga},{d},{form}) alpha={al}", r, 20)

    print("== thickness bounds (a=1/2) ==")

    def bound(factor, d, gamma, k, l):
        d, gamma, k, l = map(mp.mpf, (d, gamma, k, l))
        num = factor * (d + 1) * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k) - gamma * a**2 * (l + 4 * k + 2)
        return num / (gamma * a * (l + 4 * k + 2))

    show("8-variant bound (8,21,k0,l=0.27)", bound(8, 8, 21, 0, "0.27"))
    show("(d+1)*eta_sq(0,0.27)", 9 * e2_027)
    show("4-variant bound (10,250,k0,l=1.3)", bound(4, 10, 250, 0, "1.3"))
    show("4-variant bound (1.4,1,k0,l=0.27)", bound(4, "1.4", 1, 0, "0.27"))
    show("8-variant bound (1.4,1,k0,l=0.27)", bound(8, "1.4", 1, 0, "0.27"))
    show("(d+1)*eta_sq for (1.4,1)", mp.mpf("2.4") * e2_027)

    def repeated(factor, alpha, beta, gamma, d, k, l):
        alpha, beta, gamma, d, k, l = map(mp.mpf, (alpha, beta, gamma, d, k, l))
        s = alpha + beta
        num = factor * (d + 1) * s * (2 * k + 1) * (l + 2 * k + 1) * (l + 4 * k)
        den = gamma * a * (beta - alpha - s**3) * (l + 4 * k + 2)
        return num / den - a

    show("repeated pos-l (0.05,0.55,730,5,k0,l=1.3)", repeated(4, "0.05", "0.55", 730, 5, 0, "1.3"))
    show("repeated neg-l (0.05,0.55,730,5,k0,l=1.3)", repeated(8, "0.05", "0.55", 730, 5, 0, "1.3"))
    show("restriction margin (0.05,0.55)", mp.mpf("0.55") - mp.mpf("0.05") - mp.mpf("0.6") ** 3)

    print("== radial series vs Bessel route ==")
    for l, x in [("0.3", 2), ("0.3", "5.3270"), ("1.3", 7), ("1.3", "22.3758")]:
        l_, x_ = mp.mpf(l), mp.mpf(x)
        s1 = radial_series_one(l_, x_)
        bessel = 2**l_ * mp.gamma(l_ + 1) * mp.besselj(l_, x_)
        show(f"R1(l={l}, x={x}) series", s1)
        show(f"R1(l={l}, x={x}) bessel", bessel)
        s2 = radial_series_one(-l_, x_)
        bessel2 = 2**-l_ * mp.gamma(1 - l_) * mp.besselj(-l_, x_)
        show(f"R2 series", s2)
        show(f"R2 bessel", bessel2)

    print("== radial profile R = R1 + R2 by besselj ==")
    for l, x in [("0.3", "2"), ("0.3", "5.3270"), ("1.3", "7"), ("1.3", "22.3758")]:
        show(f"R(l={l}, x={x})", radial_bessel(l, x), 20)
    # x = eta(12, l) r along the radius, rounded to a 15-digit decimal that
    # the tests quote; R is evaluated at that decimal
    for l in ("0.3", "11.3"):
        eta = mp.sqrt(eta_sq(12, mp.mpf(l), a, b))
        for r in ("0.5", "0.6", "0.7", "0.8", "0.9", "1"):
            x = mp.nstr(eta * mp.mpf(r), 15)
            show(f"R(l={l}, x={x}) [r={r}]", radial_bessel(l, x), 20)
    # negative orders with x < |l|, where the reflection's terms cancel
    for l, x in [("-10.7", "3.3"), ("-40.7", "6.8")]:
        show(f"R(l={l}, x={x})", radial_bessel(l, x), 20)
    # x = eta(1, 160.3) r at the radii a and b: 2^l Gamma(l+1) overflows float64
    eta = mp.sqrt(eta_sq(1, mp.mpf("160.3"), a, b))
    for r in ("0.5", "1"):
        x = mp.nstr(eta * mp.mpf(r), 15)
        show(f"R(l=160.3, x={x}) [r={r}]", radial_bessel("160.3", x), 20)

    # cancellation severity at the largest argument used by the residual check
    x = mp.sqrt(eta_sq(4, l13, a, b))  # eta for k=4, l=1.3
    show("eta(4,1.3)", x)
    xl = x * 1  # at r = b = 1
    term = xl**l13
    largest = abs(term)
    s = term
    for j in range(200):
        term *= -xl**2 / (4 * (j + 1) * (l13 + j + 1))
        s += term
        largest = max(largest, abs(term))
    show("R1 largest |term| at x=eta(4,1.3)*1", largest)
    show("R1 value", s)
    show("cancellation ratio", largest / abs(s))

    print("== steady state / kinetics ==")
    for al, be in [("0.09", "0.45"), ("1", "2")]:
        al_, be_ = mp.mpf(al), mp.mpf(be)
        s = al_ + be_
        show(f"u_s({al},{be})", s)
        show(f"v_s({al},{be})", be_ / s**2)
    show("transcritical check T(0.1875,0.3125,g=10,e2=0)",
         trace_det("0.1875", "0.3125", 10, 1, 0, "consistent")[0])
    show("transcritical check D", trace_det("0.1875", "0.3125", 10, 1, 0, "consistent")[1])

    print("== initial-condition hand values ==")
    for x in ("1", "0.75"):
        x_ = mp.mpf(x)
        series = sum(mp.cos(i * mp.pi * x_) for i in range(1, 9))
        show(f"sum cos(i pi {x}) i=1..8", series)
        show(f"cos(2 pi ({x}+0))", mp.cos(2 * mp.pi * x_))

    print("== boundary-derivative diagnostic (informational, not asserted) ==")
    # derivative of R = R1 + R2 at x = eta*a and eta*b for the tabulated mode
    for k, l in [(1, "0.3"), (0, "1.3")]:
        l_ = mp.mpf(l)
        ee = eta_sq(k, l_, a, b)
        eta = mp.sqrt(ee)
        h = mp.mpf("1e-25")
        for r in (a, b):
            xr = eta * r
            d1 = (radial_series(l_, xr + h) - radial_series(l_, xr - h)) / (2 * h)
            show(f"R'(eta({k},{l})*{mp.nstr(r,3)})", d1)

    print("== telescoping diagnostic F_j + F_(j+1) at printed eta (informational) ==")
    for k in (0, 1, 2):
        l_ = mp.mpf("0.3")
        ee = eta_sq(k, l_, a, b)
        eta = mp.sqrt(ee)
        j = 2 * k  # the index pairing claimed to generate mode k
        # build F_j explicitly
        def F(j):
            coef = mp.mpf(1)
            for m in range(1, j + 1):
                coef *= -mp.mpf(1) / (4 * m * (l_ + m))
            return coef * (l_ + 2 * j) * ((eta * a) ** (l_ + 2 * j - 1) + (eta * b) ** (l_ + 2 * j - 1))
        show(f"k={k}: (F_{j}+F_{j+1})/F_{j}", (F(j) + F(j + 1)) / F(j))


if __name__ == "__main__":
    main()
