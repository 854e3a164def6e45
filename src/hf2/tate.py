"""Closed-form bases for the Borel, Tate and homotopy-orbit rows.

There is one row, the Tate row, with the localized Euler class (a_alpha
for n = 1, a_lambda_0 otherwise) and every orientation class inverted.
The lambda slots pin all exponents but u_lambda_0 and the localized
power, the trivial slot's parity fixes the a_alpha power
eps = (t + c_alpha) mod 2 and the alpha slot then pins u_alpha, so each
degree has exactly one Tate class, solved, not searched for.  The norm
cofibre sequence Sigma X_hG -> X^hG -> X^tG makes the other two rows
windows of it: the Borel row is the class if its localized power is
nonnegative, and the orbit row the once-desuspended class if it is
negative, so their dimensions are 0 or 1.  The engine's block B2 and
part (4) are in turn windows of the orbit and Borel rows.
"""

from __future__ import annotations

from .reps import Degree, DegreeError, check_group
from .monomial import Monomial


def group_cohomology_dim(n: int, s: int) -> int:
    """dim_F2 H^s(C_{2^n}; F_2); one class in every nonnegative degree."""
    if n < 1:
        raise DegreeError(f"n must be >= 1, got {n}")
    return 1 if s >= 0 else 0


def _solve(n: int, d: Degree) -> tuple[tuple, tuple]:
    """The exponents (sigma, e_a_alpha, e_u_alpha, e_a_lambda, e_u_lambda)
    of the Tate classes of degrees d and d + 1, the second desuspended once:
    for n = 1 a_alpha^(-c_alpha - s) u_alpha^s with s = t + sigma, otherwise
    a_alpha^eps u_alpha^s a_lambda_0^k u_lambda_0^s0 prod_{p>0} u_lambda_p^(-c_p)
    with eps = (t + sigma + c_alpha) mod 2, s = -c_alpha - eps, s0 forced by
    t + sigma and k = -c_lambda_0 - s0.  The two share every u_lambda_p
    power above p = 0, so both are solved at once; callers test a window
    on them before a `Monomial` is built."""
    check_group(n, d)
    t, a = d.t, d.c_alpha
    if n == 1:
        return (0, -a - t, t, (), ()), (1, -a - t - 1, t + 1, (), ())
    upper = tuple([-c for c in d.c_lambda[1:]])
    zeros, k = (0,) * (n - 2), -d.c_lambda[0]
    eps = (t + a) % 2
    s0 = (t + a + eps) // 2 - sum(upper)
    s1 = s0 + 1 - eps  # t + 1 flips eps; s0 moves up only when t + c_alpha is even
    return ((0, eps, -a - eps, (k - s0,) + zeros, (s0,) + upper),
            (1, 1 - eps, eps - a - 1, (k - s1,) + zeros, (s1,) + upper))


def rows(n: int, d: Degree) -> tuple[tuple | None, tuple | None]:
    """The exponents of the Borel and the orbit row's classes of degree d,
    from one solve: the Tate class of d if its power of the localized Euler
    class (a_alpha for n = 1, a_lambda_0 otherwise) is nonnegative, and the
    Tate class of d + 1, desuspended once, if its power is negative; None
    for a row with no class."""
    borel, orbit = _solve(n, d)
    if n == 1:
        return borel if borel[1] >= 0 else None, orbit if orbit[1] <= -1 else None
    return borel if borel[3][0] >= 0 else None, orbit if orbit[3][0] <= -1 else None


def basis_of(n: int, row: tuple | None) -> frozenset[Monomial]:
    """The class with the exponents row as a basis, empty for None."""
    return frozenset() if row is None else frozenset((Monomial(n, *row),))


def hh_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Homotopy fixed points: the Borel row's class."""
    return basis_of(n, rows(n, d)[0])


def ht_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Tate: one class per degree.  All orientation classes and the
    localized Euler class are inverted; a_alpha is square-zero for n >= 2
    and a_lambda_0 is Laurent."""
    return basis_of(n, _solve(n, d)[0])


def hb_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Homotopy orbits: the orbit row's class."""
    return basis_of(n, rows(n, d)[1])


def perp_hb_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """Slice of the homotopy orbits orthogonal to the localized class.

    For n >= 2 the degree must avoid lambda_0; the surviving monomials are
    exactly those with matched u_lambda_0 / a_lambda_0 powers.  For n = 1
    the same statement holds with alpha in place of lambda_0.
    """
    row = hb_basis(n, d)  # first, so that a degree over another group is refused
    if n >= 2:
        if d.c_lambda[0] != 0:
            raise DegreeError("perp slice needs c_lambda[0] = 0")
        return frozenset(m for m in row if m.e_u_lambda[0] == -m.e_a_lambda[0])
    if d.c_alpha != 0:
        raise DegreeError("perp slice needs c_alpha = 0 for n = 1")
    return frozenset(m for m in row if m.e_u_alpha == -m.e_a_alpha)
