"""Closed-form answers and the comparisons that turn them into verdicts.

Every check returns None when the outcome is right and a one-line reason
when it is not.  The closed forms are computed here, from the inputs, and
never through the package under test.
"""

from __future__ import annotations

import math

import numpy as np

# The exact value is itself a rounded double: allow a few ulps of it on top
# of the bound the program returns.
ROUNDING = 8 * 2.0**-52


def koebe(x):
    """z / (1 - z)^2 on the real segment [0, 1)."""
    return x / ((1.0 - x) * (1.0 - x))


def koebe_scale_area(s):
    """Euclidean area of the image of the disc under koebe() . scale(s):
    pi * sum n^3 s^(2n) = pi x (1 + 4x + x^2) / (1 - x)^4 with x = s^2."""
    x = s * s
    return math.pi * x * (1.0 + 4.0 * x + x * x) / (1.0 - x) ** 4


def polynomial_area(coeffs, r):
    """Euclidean area, counting multiplicity, of |z| < r under sum a_n z^n."""
    return math.pi * math.fsum(
        n * abs(complex(c)) ** 2 * r ** (2 * n) for n, c in enumerate(coeffs) if n >= 1
    )


def disc_area_hyperbolic(a):
    """Hyperbolic (curvature -1) area of |w| < a inside the unit disc."""
    return 4.0 * math.pi * a * a / (1.0 - a * a)


def disc_area_spherical(a):
    """Spherical (curvature +1) area of |w| < a."""
    return 4.0 * math.pi * a * a / (1.0 + a * a)


def scale_T(s, r):
    """Ahlfors-Shimizu T(r) of z -> s z: S(t) = (st)^2 / (1 + (st)^2)."""
    return 0.5 * math.log1p(s * s * r * r)


def scale_S(s, r):
    a = s * r
    return a * a / (1.0 + a * a)


def quotient_axis_length(n_factors, y_top):
    """Spherical (and Euclidean) length of the image of the imaginary axis
    from i to i*y_top under B(z+1)/B(z-1), B the half-plane Blaschke
    product with zeros i n^2, n = 1..n_factors.

    On the axis f = prod u_n / conj(u_n) with
    u_n = (i (y_n - y) - 1) / (i (y_n + y) + 1), so |f| = 1 and
    arg f = 2 sum (pi - atan(y_n - y) - atan(y_n + y)) increases with y;
    the length is the growth of that argument.
    """
    y = np.arange(1, n_factors + 1, dtype=float) ** 2
    terms = (
        np.arctan(y - 1.0)
        + np.arctan(y + 1.0)
        - np.arctan(y - y_top)
        - np.arctan(y + y_top)
    )
    return 2.0 * math.fsum(terms.tolist())


# -- comparisons -----------------------------------------------------------


def within_bound(value, bound, exact, what="value"):
    """|value - exact| <= bound, the error bound the program returned."""
    gap = abs(value - exact)
    if not math.isfinite(value) or gap > bound + ROUNDING * abs(exact):
        return f"{what} {value!r} misses exact {exact!r} by {gap:.3e} > bound {bound:.3e}"
    return None


def within_tol(value, exact, tol, what="value"):
    gap = abs(value - exact)
    if not math.isfinite(value) or gap > tol + ROUNDING * abs(exact):
        return f"{what} {value!r} misses {exact!r} by {gap:.3e} > tolerance {tol:.3e}"
    return None


def quad_tol(abs_tol, rel_tol, value, pieces=1):
    """Error allowed for a sum of `pieces` adaptive integrals that were each
    asked for max(abs_tol, rel_tol * |piece|); the factor 2 allows for the
    error of an independently computed reference."""
    return 2.0 * (pieces * abs_tol + rel_tol * abs(value))


def at_most(value, limit, what):
    if not value <= limit:
        return f"{what} {value!r} exceeds {limit!r}"
    return None


def first_failure(*reasons):
    for r in reasons:
        if r is not None:
            return r
    return None
