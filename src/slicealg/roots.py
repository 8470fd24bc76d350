"""Root finding for real-rational univariate polynomials.

One exact factorization over Q (sympy) yields both the sphere data and the
complex roots (_spheres and _complex_roots take its factors): linear factors
give exact real points, irreducible quadratics give exact sphere data
(alpha, beta^2), and higher-degree irreducible factors fall back to
companion-matrix eigenvalues with a grouping tolerance.
"""

from __future__ import annotations

from fractions import Fraction

GROUP_TOL = 1e-8


def _factor_rational(coeffs):
    """Irreducible monic factors of sum coeffs[m] x^m over Q, with multiplicity."""
    import sympy
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** m
               for m, c in enumerate(coeffs))
    poly = sympy.Poly(expr, x, domain="QQ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fc = fac.all_coeffs()  # high to low
        lead = fc[0]
        monic = []
        for c in fc:
            r = sympy.Rational(c, lead)
            monic.append(Fraction(int(r.p), int(r.q)))
        out.append((monic, int(mult)))  # high to low, monic
    return out


def _trimmed(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def sphere_data_from_poly(coeffs):
    """Spheres (alpha, beta, beta_sq, multiplicity, exact) for a rational poly.

    coeffs are low-order-first Fractions.  beta_sq is exact whenever the factor
    is linear or quadratic; beta itself may be a float for irrational radii.
    """
    coeffs = _trimmed(coeffs)
    if not coeffs:
        raise ValueError("the zero polynomial has no root data")
    return _spheres(_factor_rational(coeffs))


def _spheres(factors):
    """sphere_data_from_poly from the factors of the polynomial over Q."""
    from .algebra import exact_sqrt
    spheres = []
    for monic, mult in factors:
        deg = len(monic) - 1
        if deg == 0:
            continue
        if deg == 1:
            # x + c -> root -c
            spheres.append((-monic[1], Fraction(0), Fraction(0), mult, True))
        elif deg == 2:
            p, q = monic[1], monic[2]
            alpha = -p / 2
            disc = alpha * alpha - q  # (p/2)^2 - q
            if disc < 0:
                beta_sq = -disc
                b = exact_sqrt(beta_sq)
                beta = b if b is not None else float(beta_sq) ** 0.5
                spheres.append((alpha, beta, beta_sq, mult, True))
            else:
                # irreducible over Q with positive discriminant: irrational reals
                r = float(disc) ** 0.5
                spheres.append((float(alpha) - r, 0.0, 0.0, mult, False))
                spheres.append((float(alpha) + r, 0.0, 0.0, mult, False))
        else:
            for alpha, beta in _companion_spheres(monic):
                spheres.append((alpha, beta, beta * beta, mult, False))
    spheres.sort(key=lambda s: (float(s[0]), float(s[1])))
    return spheres


def _companion_spheres(monic_high_to_low):
    import numpy as np
    roots = np.roots([float(c) for c in monic_high_to_low])
    out = []
    used = [False] * len(roots)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        if abs(r.imag) <= GROUP_TOL * max(1.0, abs(r)):
            out.append((float(r.real), 0.0))
            used[i] = True
            continue
        if r.imag < 0:
            continue  # handled with its conjugate partner
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - r.conjugate()) <= 1e-6 * max(1.0, abs(r)):
                used[j] = True
                break
        used[i] = True
        out.append((float(r.real), abs(float(r.imag))))
    return out


def complex_roots(coeffs):
    """All complex roots (floats) with multiplicities, via exact factorization."""
    return _complex_roots(_factor_rational(_trimmed(coeffs)))


def _complex_roots(factors):
    """complex_roots from the factors of the polynomial over Q."""
    import numpy as np
    out = []
    for monic, mult in factors:
        if len(monic) == 1:
            continue
        for r in np.roots([float(c) for c in monic]):
            out.append((complex(r), mult))
    return out
