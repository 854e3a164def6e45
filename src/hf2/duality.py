"""Dimension-level Anderson duality and the explicit dual classes.

The F_2 answer pairs degree d with lambda_0 - 2 - d; the unit of the
pairing is the class Lambda = Sigma^{-1} (1/a_lambda_0)(a_alpha/u_alpha)
in degree lambda_0 - 2.  Explicit duals are only defined on the displayed
shapes: monomials of F_2[a_lambda_0, u's]<1, a_alpha> and their Lambda
quotients.
"""

from __future__ import annotations

from .reps import Degree, DegreeError, check_group
from .monomial import Monomial, MonomialError, divide
from .engine import dimension


def lambda_class(n: int) -> Monomial:
    """The duality unit Sigma^{-1} a_lambda_0^{-1} a_alpha u_alpha^{-1}."""
    if n < 2:
        raise DegreeError("the duality unit needs n >= 2")
    return Monomial(n, 1, 1, -1, (-1,) + (0,) * (n - 2), (0,) * (n - 1))


def dual_degree(n: int, d: Degree) -> Degree:
    """The degree paired with d: lambda_0 - 2 - d."""
    if n < 2:
        raise DegreeError("duality needs n >= 2")
    check_group(n, d)
    c = d.c_lambda
    return Degree(n, -2 - d.t, -d.c_alpha, (1 - c[0],) + tuple([-x for x in c[1:]]))


def _is_unit_shape(m: Monomial) -> bool:
    """Monomials of F_2[a_lambda_0, u_alpha, u_lambda_*]<1, a_alpha>."""
    return (
        m.sigma == 0
        and m.e_a_alpha in (0, 1)
        and m.e_u_alpha >= 0
        and m.e_a_lambda[0] >= 0
        and all(a == 0 for a in m.e_a_lambda[1:])
        and all(u >= 0 for u in m.e_u_lambda)
    )


def dual_monomial(m: Monomial) -> Monomial:
    """Dual class under the pairing: Lambda divided by m.

    Supported on the displayed positive shapes and on their Lambda
    quotients, so the map is an involution on its domain.
    """
    if m.n < 2:
        raise DegreeError("duality needs n >= 2")
    # Lambda has sigma 1 and m has sigma 0 or 1, so this division cannot fail
    quotient = divide(lambda_class(m.n), m)
    if _is_unit_shape(m) or _is_unit_shape(quotient):
        return quotient
    raise MonomialError(f"no displayed dual for monomial {m}")


def duality_scan(n: int, degrees) -> dict:
    """Compare dimensions at d and at its dual for each degree given."""
    mismatches = []
    total = 0
    for d in degrees:
        total += 1
        dd = dual_degree(n, d)
        a, b = dimension(n, d), dimension(n, dd)
        if a != b:
            mismatches.append(
                {"degree": str(d), "dual": str(dd), "dim": a, "dual_dim": b}
            )
    return {
        "n": n,
        "checked": total,
        "mismatches": mismatches,
        "pass": not mismatches,
    }
