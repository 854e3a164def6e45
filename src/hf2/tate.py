"""Closed-form bases for the Borel, Tate and homotopy-orbit rows.

There is one row, the Tate row, with the localized Euler class (a_alpha
for n = 1, a_lambda_0 otherwise) and every orientation class inverted.
The lambda slots pin all exponents but u_lambda_0 and the localized
power, the alpha slot pins u_alpha once the a_alpha choice is made, and
the trivial slot fixes one parity, so each degree is one small linear
system with exactly one solution.  The norm cofibre sequence
Sigma X_hG -> X^hG -> X^tG makes the other two rows windows of it: the
Borel row is its classes with a nonnegative localized power, and the
orbit row its once-desuspended classes with a negative one, so their
dimensions are 0 or 1.
"""

from __future__ import annotations

from .reps import Degree, DegreeError
from .monomial import Monomial


def group_cohomology_dim(n: int, s: int) -> int:
    """dim_F2 H^s(C_{2^n}; F_2); one class in every nonnegative degree."""
    if n < 1:
        raise DegreeError(f"n must be >= 1, got {n}")
    return 1 if s >= 0 else 0


def _row(n: int, d: Degree, sigma: int) -> list[Monomial]:
    """The Tate classes of degree d + sigma, desuspended sigma times: for
    n = 1 a_alpha^(-c_alpha - s) u_alpha^s with s = t + sigma, otherwise
    a_alpha^eps u_alpha^s a_lambda_0^k u_lambda_0^s0 prod_{p>0} u_lambda_p^(-c_p)
    with s = -c_alpha - eps, s0 forced by t + sigma and k = -c_lambda_0 - s0."""
    t = d.t + sigma
    if n == 1:
        return [Monomial(1, sigma, -d.c_alpha - t, t, (), ())]
    out = []
    for eps in (0, 1):
        s = -d.c_alpha - eps
        rem = t - s
        if rem % 2:
            continue
        s0 = rem // 2 + sum(d.c_lambda[1:])
        eul = (s0,) + tuple(-c for c in d.c_lambda[1:])
        eal = (-d.c_lambda[0] - s0,) + (0,) * (n - 2)
        out.append(Monomial(n, sigma, eps, s, eal, eul))
    return out


def _euler_power(m: Monomial) -> int:
    """The exponent of the localized Euler class."""
    return m.e_a_alpha if m.n == 1 else m.e_a_lambda[0]


def hh_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Homotopy fixed points: the Tate classes with a nonnegative power of
    the localized Euler class."""
    return frozenset(m for m in _row(n, d, 0) if _euler_power(m) >= 0)


def ht_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Tate: one class per degree.  All orientation classes and the
    localized Euler class are inverted; a_alpha is square-zero for n >= 2
    and a_lambda_0 is Laurent."""
    return frozenset(_row(n, d, 0))


def hb_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Homotopy orbits: the Tate classes of degree d + 1 with a negative
    power of the localized Euler class, desuspended once."""
    return frozenset(m for m in _row(n, d, 1) if _euler_power(m) <= -1)


def perp_hb_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Slice of the homotopy orbits orthogonal to the localized class.

    For n >= 2 the degree must avoid lambda_0; the surviving monomials are
    exactly those with matched u_lambda_0 / a_lambda_0 powers.  For n = 1
    the same statement holds with alpha in place of lambda_0.
    """
    if n >= 2:
        if d.c_lambda[0] != 0:
            raise DegreeError("perp slice needs c_lambda[0] = 0")
        return frozenset(m for m in hb_basis(n, d) if m.e_u_lambda[0] == -m.e_a_lambda[0])
    if d.c_alpha != 0:
        raise DegreeError("perp slice needs c_alpha = 0 for n = 1")
    return frozenset(m for m in hb_basis(1, d) if m.e_u_alpha == -m.e_a_alpha)
