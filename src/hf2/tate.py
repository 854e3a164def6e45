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
part (4) are in turn windows of the orbit and Borel rows, which it
decides on the scalars of `solve` before `exponents` builds a class.
"""

from __future__ import annotations

from .reps import Degree, DegreeError, check_group
from .monomial import Monomial


def group_cohomology_dim(n: int, s: int) -> int:
    """dim_F2 H^s(C_{2^n}; F_2); one class in every nonnegative degree."""
    if n < 1:
        raise DegreeError(f"n must be >= 1, got {n}")
    return 1 if s >= 0 else 0


def solve(n: int, d: Degree) -> tuple[int, int, int, int, int]:
    """The scalars (k, s0, u0, s1, u1) of the Tate classes of degrees d and
    d + 1, the second desuspended once; `exponents` builds either from them.
    k is minus d's coefficient of the localized slot (alpha for n = 1,
    lambda_0 otherwise), s the class's lead orientation power (u_alpha for
    n = 1, u_lambda_0 otherwise) and k - s its localized power.  For n = 1
    the class is a_alpha^(-c_alpha - s) u_alpha^s with s = t + sigma, and u
    is 0, as no orientation power follows s.  Otherwise it is
    a_alpha^eps u_alpha^u a_lambda_0^(k - s) u_lambda_0^s prod_{p>0}
    u_lambda_p^(-c_p) with eps = (t + sigma + c_alpha) mod 2, u =
    -c_alpha - eps and s forced by t + sigma; the two classes share every
    u_lambda_p power above p = 0.  Callers test a window on the scalars
    before any exponent tuple is built."""
    check_group(n, d)
    t, a, c = d.t, d.c_alpha, d.c_lambda
    if n == 1:
        return -a, t, 0, t + 1, 0
    eps = (t + a) % 2
    s0 = (t + a + eps) // 2 + sum(c) - c[0]
    # t + 1 flips eps; s moves up only when t + c_alpha is even
    return -c[0], s0, -a - eps, s0 + 1 - eps, eps - a - 1


def exponents(n: int, d: Degree, sigma: int, s: int, u: int) -> tuple:
    """The exponents (sigma, e_a_alpha, e_u_alpha, e_a_lambda, e_u_lambda)
    of the Tate class of degree d + sigma, desuspended sigma times, with
    the scalars s and u that `solve` gives it."""
    if n == 1:
        return sigma, -d.c_alpha - s, s, (), ()
    return (sigma, -d.c_alpha - u, u, (-d.c_lambda[0] - s,) + (0,) * (n - 2),
            (s,) + tuple([-c for c in d.c_lambda[1:]]))


def rows(n: int, d: Degree) -> tuple[tuple | None, tuple | None]:
    """The exponents of the Borel and the orbit row's classes of degree d,
    from one solve: the Tate class of d if its power of the localized Euler
    class (a_alpha for n = 1, a_lambda_0 otherwise) is nonnegative, and the
    Tate class of d + 1, desuspended once, if its power is negative; None
    for a row with no class."""
    k, s0, u0, s1, u1 = solve(n, d)
    return (exponents(n, d, 0, s0, u0) if k >= s0 else None,
            exponents(n, d, 1, s1, u1) if k < s1 else None)


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
    _, s0, u0, _, _ = solve(n, d)
    return basis_of(n, exponents(n, d, 0, s0, u0))


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
