"""Closed-form bases for the Borel, Tate and homotopy-orbit rows.

All four queries solve small integer constraint systems per degree instead
of enumerating families: the lambda slots pin most exponents, the alpha
slot pins u_alpha once the a_alpha choice is made, and the trivial slot
fixes one parity.  Dimensions are always 0 or 1 here.
"""

from __future__ import annotations

from .reps import Degree, DegreeError
from .monomial import Monomial


def group_cohomology_dim(n: int, s: int) -> int:
    """dim_F2 H^s(C_{2^n}; F_2); one class in every nonnegative degree."""
    if n < 1:
        raise DegreeError(f"n must be >= 1, got {n}")
    return 1 if s >= 0 else 0


def _mono(n, sigma, ea, eu, eal, eul):
    return Monomial(n, sigma, ea, eu, tuple(eal), tuple(eul))


def hh_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Homotopy fixed points: the Tate classes with a nonnegative power of
    the localized Euler class (a_alpha for n = 1, a_lambda_0 otherwise)."""
    return frozenset(
        m for m in ht_basis(n, d) if (m.e_a_alpha if n == 1 else m.e_a_lambda[0]) >= 0
    )


def ht_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Tate: one class per degree.  All orientation classes and the
    localized Euler class are inverted; a_alpha is square-zero for n >= 2
    and a_lambda_0 is Laurent."""
    out = []
    if n == 1:
        s = d.t
        k = -d.c_alpha - s
        out.append(_mono(1, 0, k, s, (), ()))
        return frozenset(out)
    for eps in (0, 1):
        s = -d.c_alpha - eps
        rem = d.t - s
        if rem % 2:
            continue
        s0 = rem // 2 + sum(d.c_lambda[1:])
        k = -d.c_lambda[0] - s0
        eul = (s0,) + tuple(-c for c in d.c_lambda[1:])
        eal = (k,) + (0,) * (n - 2)
        out.append(_mono(n, 0, eps, s, eal, eul))
    return frozenset(out)


def hb_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Homotopy orbits: one desuspension, negative powers of the localized
    Euler class, orientation classes inverted, and <1, a_alpha> for n >= 2."""
    out = []
    if n == 1:
        s = d.t + 1
        i = d.c_alpha + d.t + 1
        if i >= 1:
            out.append(_mono(1, 1, -i, s, (), ()))
        return frozenset(out)
    for eps in (0, 1):
        s = -d.c_alpha - eps
        rem = d.t + 1 - s
        if rem % 2:
            continue
        s0 = rem // 2 + sum(d.c_lambda[1:])
        i = s0 + d.c_lambda[0]
        if i >= 1:
            eul = (s0,) + tuple(-c for c in d.c_lambda[1:])
            eal = (-i,) + (0,) * (n - 2)
            out.append(_mono(n, 1, eps, s, eal, eul))
    return frozenset(out)


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
