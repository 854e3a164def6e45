"""Arithmetic of the real representation ring RO(C_{2^n}).

A virtual representation of the cyclic group C_{2^n} is written as

    t * 1  +  c_alpha * alpha  +  sum_i c_lambda[i] * lambda_i

where 1 is the trivial representation, alpha the one-dimensional sign
representation, and lambda_i (0 <= i <= n-2) the two-dimensional rotation
by exp(2*pi*I / 2^(n-i)).  Every nonzero vector of lambda_i has stabilizer
C_{2^i}; alpha is fixed exactly by the index-two subgroup.
"""

from __future__ import annotations

import re
from collections import namedtuple

# The oracle's default column cap (`hf2.oracle` binds the same value).  It
# lives here, in a module the CLI loads anyway, so that the CLI can name it
# and check a cached width against it without loading the oracle.
DEFAULT_BUDGET = 20000


class DegreeError(ValueError):
    """Raised for malformed degrees (bad n, wrong number of lambda slots)."""


class Degree(namedtuple("Degree", "n t c_alpha c_lambda")):
    """A point of RO(C_{2^n}), with lambda coefficients indexed 0..n-2:
    the ints n, t and c_alpha and the tuple of ints c_lambda.  An immutable
    named tuple, ordered and hashed by its fields."""

    __slots__ = ()

    def __add__(self, other: "Degree") -> "Degree":
        check_group(self.n, other)
        return Degree(
            self.n,
            self.t + other.t,
            self.c_alpha + other.c_alpha,
            tuple(a + b for a, b in zip(self.c_lambda, other.c_lambda)),
        )

    def __sub__(self, other: "Degree") -> "Degree":
        return self + (-other)

    def __neg__(self) -> "Degree":
        return Degree(self.n, -self.t, -self.c_alpha, tuple(-c for c in self.c_lambda))

    def __str__(self) -> str:
        return format_degree(self)


def make_degree(n: int, t: int, c_alpha: int, c_lambda) -> Degree:
    if n < 1:
        raise DegreeError(f"n: group exponent must be >= 1, got {n}")
    c_lambda = tuple(map(int, c_lambda))
    if len(c_lambda) != n - 1:
        raise DegreeError(
            f"c_lambda: expected {n - 1} lambda coefficients for n={n}, got {len(c_lambda)}"
        )
    return Degree(n, int(t), int(c_alpha), c_lambda)


def check_group(n: int, d: Degree) -> None:
    """Refuse a degree that is not over C_{2^n}, the group asked about."""
    if d.n != n:
        raise DegreeError(f"degree is over n={d.n}, expected {n}")


def zero_degree(n: int) -> Degree:
    return make_degree(n, 0, 0, (0,) * (n - 1))


def trivial_degree(n: int, t: int) -> Degree:
    return make_degree(n, t, 0, (0,) * (n - 1))


def alpha_degree(n: int) -> Degree:
    return make_degree(n, 0, 1, (0,) * (n - 1))


def lambda_degree(n: int, i: int) -> Degree:
    if not 0 <= i <= n - 2:
        raise DegreeError(f"lambda index {i} out of range for n={n}")
    return make_degree(n, 0, 0, tuple(1 if j == i else 0 for j in range(n - 1)))


def underlying_dim(d: Degree) -> int:
    """Real dimension of the underlying virtual vector space."""
    return d.t + d.c_alpha + 2 * sum(d.c_lambda)


def fixed_dim(d: Degree, k: int) -> int:
    """Dimension of the C_{2^k}-fixed subspace, additively extended.

    The trivial part always counts, alpha survives for k <= n-1, and
    lambda_j survives (with weight two) exactly when k <= j.
    """
    if not 0 <= k <= d.n:
        raise DegreeError(f"subgroup exponent k={k} out of range for n={d.n}")
    dim = d.t
    if k <= d.n - 1:
        dim += d.c_alpha
    dim += 2 * sum(c for j, c in enumerate(d.c_lambda) if k <= j)
    return dim


def restrict(d: Degree, m: int):
    """Restrict to the subgroup C_{2^m}.

    m = n is the identity; m = 0 returns the integer underlying dimension
    since RO(e) = Z.  For 0 < m < n: alpha becomes trivial, lambda_j stays
    lambda_j for j <= m-2, becomes 2*alpha at j = m-1 and trivial 2 above.
    """
    if not 0 <= m <= d.n:
        raise DegreeError(f"restriction target m={m} out of range for n={d.n}")
    if m == 0:
        return underlying_dim(d)
    if m == d.n:
        return d
    t = d.t + d.c_alpha
    c_alpha = 0
    c_lam = [0] * (m - 1)
    for j, c in enumerate(d.c_lambda):
        if j <= m - 2:
            c_lam[j] += c
        elif j == m - 1:
            c_alpha += 2 * c
        else:
            t += 2 * c
    return make_degree(m, t, c_alpha, c_lam)


def pullback_eps(d: Degree) -> Degree:
    """Pull back along C_{2^(n+1)} -> C_{2^n}: fixes 1, alpha; lambda_i -> lambda_{i+1}."""
    return make_degree(d.n + 1, d.t, d.c_alpha, (0,) + d.c_lambda)


def strip_lambda0(d: Degree) -> Degree:
    """Drop the lambda_0 slot and shift lambda indices down (n decreases by one)."""
    if d.n < 2:
        raise DegreeError("strip_lambda0 needs n >= 2")
    # d is already a valid degree, so its slice is one without re-checking
    return Degree(d.n - 1, d.t, d.c_alpha, d.c_lambda[1:])


def format_degree(d: Degree) -> str:
    """Text form "t,cA,cL0,...,cL{n-2}" used by all CLI degree flags."""
    return ",".join(str(x) for x in (d.t, d.c_alpha) + d.c_lambda)


# one CLI integer, a degree entry or an option's value: ASCII digits with an
# optional sign, and nothing else int() would take (underscores, other digits)
INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def parse_degree(s: str, n: int) -> Degree:
    if n < 1:
        raise DegreeError(f"n: group exponent must be >= 1, got {n}")
    parts = [p.strip() for p in s.split(",")]
    if len(parts) != n + 1:
        raise DegreeError(f"degree string needs {n + 1} entries for n={n}, got {len(parts)}")
    if not all(map(INTEGER_RE.fullmatch, parts)):
        raise DegreeError(f"non-integer entry in degree string {s!r}")
    vals = [int(p) for p in parts]
    return make_degree(n, vals[0], vals[1], vals[2:])
