"""Monomials in the Euler and orientation classes over C_{2^n}.

The answer language is generated by a_alpha, u_alpha, a_lambda_i,
u_lambda_i (Laurent exponents allowed) and an optional desuspension flag
for a single Sigma^{-1}.  Degree conventions:

    deg a_alpha    = -alpha          deg u_alpha    = 1 - alpha
    deg a_lambda_i = -lambda_i       deg u_lambda_i = 2 - lambda_i
    deg Sigma^{-1} = -1

Over F_2 the gold relations a_{lambda_i} u_{lambda_j} = 0 (i > j) and
a_alpha^2 u_{lambda_j} = 0 have zero right-hand side, so the positive cone
has a monomial basis and gold testing is a predicate, not a rewrite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

from .reps import Degree, DegreeError, make_degree


class MonomialError(ValueError):
    """Raised for malformed monomials or unsatisfiable preconditions."""


@dataclass(frozen=True, order=True)
class Monomial:
    n: int
    sigma: int
    e_a_alpha: int
    e_u_alpha: int
    e_a_lambda: tuple[int, ...]
    e_u_lambda: tuple[int, ...]

    def __post_init__(self):
        if self.sigma not in (0, 1):
            raise MonomialError(f"sigma must be 0 or 1, got {self.sigma}")
        if len(self.e_a_lambda) != self.n - 1 or len(self.e_u_lambda) != self.n - 1:
            raise MonomialError(
                f"lambda exponent vectors must have length {self.n - 1} for n={self.n}"
            )

    def __str__(self) -> str:
        return format_monomial(self)


def unit(n: int) -> Monomial:
    z = (0,) * (n - 1)
    return Monomial(n, 0, 0, 0, z, z)


def degree_of(m: Monomial) -> Degree:
    t = m.e_u_alpha + 2 * sum(m.e_u_lambda) - m.sigma
    c_alpha = -m.e_a_alpha - m.e_u_alpha
    c_lam = tuple(-a - u for a, u in zip(m.e_a_lambda, m.e_u_lambda))
    return make_degree(m.n, t, c_alpha, c_lam)


def multiply(m1: Monomial, m2: Monomial) -> Monomial:
    if m1.n != m2.n:
        raise MonomialError(f"group mismatch: n={m1.n} vs n={m2.n}")
    sigma = m1.sigma + m2.sigma
    if sigma > 1:
        raise MonomialError("sigma overflow: at most one desuspension per monomial")
    return Monomial(
        m1.n,
        sigma,
        m1.e_a_alpha + m2.e_a_alpha,
        m1.e_u_alpha + m2.e_u_alpha,
        tuple(a + b for a, b in zip(m1.e_a_lambda, m2.e_a_lambda)),
        tuple(a + b for a, b in zip(m1.e_u_lambda, m2.e_u_lambda)),
    )


def divide(m1: Monomial, m2: Monomial) -> Monomial:
    """Exponentwise difference m1 / m2; the sigma difference must stay in {0,1}."""
    if m1.n != m2.n:
        raise MonomialError(f"group mismatch: n={m1.n} vs n={m2.n}")
    sigma = m1.sigma - m2.sigma
    if sigma not in (0, 1):
        raise MonomialError("sigma underflow in monomial division")
    return Monomial(
        m1.n,
        sigma,
        m1.e_a_alpha - m2.e_a_alpha,
        m1.e_u_alpha - m2.e_u_alpha,
        tuple(a - b for a, b in zip(m1.e_a_lambda, m2.e_a_lambda)),
        tuple(a - b for a, b in zip(m1.e_u_lambda, m2.e_u_lambda)),
    )


def is_gold_zero(m: Monomial) -> bool:
    """Whether a positive-cone monomial dies under the gold relations.

    True iff some a_{lambda_i} u_{lambda_j} pair with i > j occurs, or
    a_alpha^2 (playing the role of the top Euler class) meets any
    u_{lambda_j}.  Only defined on the positive cone.
    """
    if m.sigma != 0:
        raise MonomialError("gold test is only defined for sigma = 0")
    if m.e_a_alpha < 0 or m.e_u_alpha < 0 or min(m.e_a_lambda + m.e_u_lambda, default=0) < 0:
        raise MonomialError("gold test is only defined for nonnegative exponents")
    low_u = next((j for j, u in enumerate(m.e_u_lambda) if u >= 1), None)
    if low_u is None:
        return False
    if m.e_a_alpha >= 2:
        return True
    return any(a >= 1 for a in m.e_a_lambda[low_u + 1 :])


def positive_cone_basis(n: int, d: Degree) -> frozenset[Monomial]:
    """All gold-surviving nonnegative monomials of degree d (no suspension).

    Enumeration is finite: each lambda slot fixes e_a + e_u = -c_lambda[i],
    the alpha slot fixes e_a_alpha + e_u_alpha = -c_alpha, and the trivial
    part pins the total u-weight.
    """
    if d.n != n:
        raise DegreeError(f"degree is over n={d.n}, expected {n}")
    a_tot = -d.c_alpha
    lam_tot = [-c for c in d.c_lambda]
    if a_tot < 0 or any(v < 0 for v in lam_tot):
        return frozenset()
    out = []
    for us in product(*(range(v + 1) for v in lam_tot)):
        e_u_alpha = d.t - 2 * sum(us)
        if not 0 <= e_u_alpha <= a_tot:
            continue
        m = Monomial(
            n,
            0,
            a_tot - e_u_alpha,
            e_u_alpha,
            tuple(v - u for v, u in zip(lam_tot, us)),
            tuple(us),
        )
        if not is_gold_zero(m):
            out.append(m)
    return frozenset(out)


def eps_rename(m: Monomial, k: int = 0) -> Monomial:
    """Rename along the quotient pullback (lambda_i classes become
    lambda_{i+1}) and multiply by a_lambda_0^k, built in one step."""
    return Monomial(
        m.n + 1,
        m.sigma,
        m.e_a_alpha,
        m.e_u_alpha,
        (k,) + m.e_a_lambda,
        (0,) + m.e_u_lambda,
    )


def times_a_lambda(m: Monomial, j: int, k: int) -> Monomial:
    """Multiply by a_{lambda_j}^k (k may be negative)."""
    if not 0 <= j <= m.n - 2:
        raise MonomialError(f"lambda index {j} out of range for n={m.n}")
    e = tuple(a + k if i == j else a for i, a in enumerate(m.e_a_lambda))
    return Monomial(m.n, m.sigma, m.e_a_alpha, m.e_u_alpha, e, m.e_u_lambda)


_FACTOR_RE = re.compile(r"(S|aA|uA|aL(\d+)|uL(\d+))(?:\^(-?\d+))?\Z")


def format_monomial(m: Monomial) -> str:
    """Canonical string: factors ordered S, aA, uA, aL0, uL0, aL1, uL1, ..."""
    parts = []
    if m.sigma:
        parts.append("S")

    def emit(tok: str, e: int) -> None:
        if e == 0:
            return
        parts.append(tok if e == 1 else f"{tok}^{e}")

    emit("aA", m.e_a_alpha)
    emit("uA", m.e_u_alpha)
    for i in range(m.n - 1):
        emit(f"aL{i}", m.e_a_lambda[i])
        emit(f"uL{i}", m.e_u_lambda[i])
    return " * ".join(parts) if parts else "1"


def parse_monomial(s: str, n: int) -> Monomial:
    s = s.strip()
    if s == "1":
        return unit(n)
    sigma = 0
    e_a_alpha = e_u_alpha = 0
    e_a_lam = [0] * (n - 1)
    e_u_lam = [0] * (n - 1)
    for raw in s.split("*"):
        tok = raw.strip()
        m = _FACTOR_RE.fullmatch(tok)
        if not m:
            raise MonomialError(f"unknown or malformed factor {tok!r}")
        exp = int(m.group(4)) if m.group(4) is not None else 1
        name = m.group(1)
        if name == "S":
            if exp not in (0, 1):
                raise MonomialError(f"suspension exponent must be 0 or 1, got {exp}")
            sigma += exp
            if sigma > 1:
                raise MonomialError("repeated suspension factor")
        elif name == "aA":
            e_a_alpha += exp
        elif name == "uA":
            e_u_alpha += exp
        else:
            idx = int(m.group(2) or m.group(3))
            if not 0 <= idx <= n - 2:
                raise MonomialError(f"lambda index {idx} out of range for n={n}")
            (e_a_lam if name.startswith("a") else e_u_lam)[idx] += exp
    return Monomial(n, sigma, e_a_alpha, e_u_alpha, tuple(e_a_lam), tuple(e_u_lam))
