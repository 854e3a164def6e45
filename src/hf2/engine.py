"""Closed-form basis engine for the graded homotopy over C_{2^n}.

The answer in any degree is assembled from four parts: the positive cone,
the classes infinitely divisible by a_{lambda_1} (computed by renaming the
a_{lambda_0}-divisible classes one group down and tensoring with Laurent
powers of a_{lambda_0}), three explicit blocks of a_{lambda_0}-divisible
families, and the explicit non-divisible families.  The group of order 2 is
handled by its own closed form; for order 4 the blocks that need a lambda_1
are empty and part (2) is the base of the renaming recursion.

Every family is solved degreewise: given a target degree, the lambda slots
and the alpha slot force all but finitely many exponents, so each query
inspects a handful of small linear systems.

Overlap bookkeeping: some explicit divisible families (notably the
u_alpha-a_alpha^2 tower of the first block) are themselves infinitely
divisible by a_{lambda_1}, so the recursive part-(2) set meets them.  A
monomial produced by an explicit block keeps the block's tag and is
dropped from the part-(2) remainder.  Set-level disjointness that
genuinely must hold (positive cone vs the rest, the non-divisible part vs
everything divisible) is asserted, not repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .reps import Degree, DegreeError, strip_lambda0
from .monomial import (
    Monomial,
    MonomialError,
    degree_of,
    eps_rename,
    is_gold_zero,
    positive_cone_basis,
    times_a_lambda,
)

PARTS = ("POS", "P2", "P3.B1", "P3.B2", "P3.B3", "P4")


class PartOverlapError(RuntimeError):
    """Two parts that must be disjoint produced the same monomial."""


@dataclass(frozen=True, order=True)
class BasisElement:
    monomial: Monomial
    part: str
    depth: int

    def to_json(self) -> dict:
        return {"monomial": str(self.monomial), "part": self.part, "depth": self.depth}


@dataclass(frozen=True)
class AnswerBasis:
    n: int
    degree: Degree
    elements: frozenset[BasisElement]

    def sorted_elements(self) -> list[BasisElement]:
        return sorted(self.elements, key=lambda e: (str(e.monomial), e.part))

    def monomials(self) -> frozenset[Monomial]:
        return frozenset(e.monomial for e in self.elements)


def _mono(n, sigma, ea, eu, eal, eul):
    return Monomial(n, sigma, ea, eu, tuple(eal), tuple(eul))


def _is_positive_cone(m: Monomial) -> bool:
    if m.sigma != 0 or m.e_a_alpha < 0 or m.e_u_alpha < 0:
        return False
    if min(m.e_a_lambda + m.e_u_lambda, default=0) < 0:
        return False
    return not is_gold_zero(m)


# -- explicit families ------------------------------------------------------


def part_pos(n: int, d: Degree) -> frozenset[Monomial]:
    return positive_cone_basis(n, d)


def _b1_fam1(n: int, d: Degree) -> frozenset[Monomial]:
    """u_alpha^s a_alpha^(i+1) a_lambda_0^(-j): the square-onwards alpha tower."""
    if any(c != 0 for c in d.c_lambda[1:]):
        return frozenset()
    s, j = d.t, d.c_lambda[0]
    p = -d.c_alpha - s
    if s >= 0 and j >= 1 and p >= 2:
        eal = (-j,) + (0,) * (n - 2)
        return frozenset({_mono(n, 0, p, s, eal, (0,) * (n - 1))})
    return frozenset()


def _b1_fam2(n: int, d: Degree) -> frozenset[Monomial]:
    """a_lambda_0^(-i) times the augmentation ideal in the higher Euler
    classes, with the remaining positive-cone generators u_lambda_1..,
    u_alpha and a polynomial a_alpha, modulo gold.

    These are the positive-cone classes of the quotient group (renamed)
    that die in the Borel row because they contain a higher Euler class;
    they freely carry u_alpha powers.
    """
    if n < 3:
        return frozenset()
    i = d.c_lambda[0]
    if i < 1 or d.t < 0:
        return frozenset()
    totals = [-c for c in d.c_lambda[1:]]
    if any(v < 0 for v in totals):
        return frozenset()
    out = []

    def emit(ms) -> None:
        s_alpha = d.t - 2 * sum(ms)
        e = -d.c_alpha - s_alpha
        if s_alpha < 0 or e < 0:
            return
        gs = [tot - m for tot, m in zip(totals, ms)]
        if sum(gs) < 1:
            return
        # gold within indices >= 1, with a_alpha^2 acting as top Euler class
        low_u = next((idx for idx, m in enumerate(ms) if m >= 1), None)
        if low_u is not None:
            if e >= 2 or any(g >= 1 for g in gs[low_u + 1 :]):
                return
        out.append(_mono(n, 0, e, s_alpha, (-i,) + tuple(gs), (0,) + tuple(ms)))

    def rec(k, ms):
        if k == len(totals):
            emit(ms)
            return
        for m in range(totals[k] + 1):
            rec(k + 1, ms + [m])

    rec(0, [])
    return frozenset(out)


def _b2(n: int, d: Degree) -> frozenset[Monomial]:
    """The suspension families with a negative a_lambda_0 power: one per
    inverted-orientation slot, ending with the bare u_alpha^(-j) family."""
    out = []
    c = d.c_lambda
    for r in range(n - 1):
        if any(c[m] != 0 for m in range(1, r)):
            continue
        upper = range(r + 1, n - 1)
        for eps in (0, 1):
            s = -d.c_alpha - eps
            if r >= 1:
                i, j = c[0], c[r]
                if i < 1 or j < 1:
                    continue
                if d.t != -1 + s - 2 * c[r] + 2 * sum(-c[m] for m in upper):
                    continue
            else:
                num = -1 + s + 2 * sum(-c[m] for m in upper) - d.t
                if num % 2:
                    continue
                j = num // 2
                i = c[0] - j
                if i < 1 or j < 1:
                    continue
            eul = [0] * (n - 1)
            eul[r] = -j
            for m in upper:
                eul[m] = -c[m]
            eal = (-i,) + (0,) * (n - 2)
            out.append(_mono(n, 1, eps, s, eal, eul))
    # the final family: only u_alpha is inverted
    if all(c[m] == 0 for m in range(1, n - 1)) and c[0] >= 1:
        i, j = c[0], -1 - d.t
        eps = j - d.c_alpha
        if j >= 1 and eps in (0, 1):
            eal = (-i,) + (0,) * (n - 2)
            out.append(_mono(n, 1, eps, -j, eal, (0,) * (n - 1)))
    return frozenset(out)


def _b3(n: int, d: Degree) -> frozenset[Monomial]:
    """Quotient-Laurent families carrying a positive a_lambda_1 power and a
    full Laurent a_lambda_0."""
    if n < 3:
        return frozenset()
    out = []
    c = d.c_lambda
    k = -c[0]
    for q in range(1, n - 1):
        if any(c[m] != 0 for m in range(2, q)):
            continue
        upper = list(range(q + 1, n - 1))
        sp = {p: -c[p] for p in upper}
        for eps in (0, 1):
            s = -d.c_alpha - eps
            if q == 1:
                num = d.t - s - 2 * sum(sp.values())
                if num % 2:
                    continue
                i = num // 2
                g = -c[1] - i
            else:
                i, g = -c[q], -c[1]
                if d.t != 2 * i + 2 * sum(sp.values()) + s:
                    continue
            if i < 1 or g < 1:
                continue
            if s >= 0 and all(v >= 0 for v in sp.values()):
                continue
            eal = [0] * (n - 1)
            eal[0], eal[1] = k, g
            eul = [0] * (n - 1)
            eul[q] = i
            for p, v in sp.items():
                eul[p] = v
            out.append(_mono(n, 0, eps, s, eal, eul))
    return frozenset(out)


def part4(n: int, d: Degree) -> frozenset[Monomial]:
    """Families outside the divisible part: a positive u tower against an
    inverted block with at least one genuinely negative exponent, times a
    polynomial a_lambda_0 and <1, a_alpha>."""
    if n < 2:
        return frozenset()
    out = []
    c = d.c_lambda
    for q in range(n - 1):
        if any(c[m] != 0 for m in range(1, q)):
            continue
        upper = list(range(q + 1, n - 1))
        sp = {p: -c[p] for p in upper}
        for eps in (0, 1):
            s = -d.c_alpha - eps
            if q == 0:
                num = d.t - s - 2 * sum(sp.values())
                if num % 2:
                    continue
                i = num // 2
                k = -c[0] - i
            else:
                i, k = -c[q], -c[0]
                if d.t != 2 * i + 2 * sum(sp.values()) + s:
                    continue
            if i < 1 or k < 0:
                continue
            if s >= 0 and all(v >= 0 for v in sp.values()):
                continue
            eal = [0] * (n - 1)
            eal[0] = k
            eul = [0] * (n - 1)
            eul[q] = i
            for p, v in sp.items():
                eul[p] = v
            out.append(_mono(n, 0, eps, s, eal, eul))
    return frozenset(out)


def _c4_sigma_alpha_family(d: Degree) -> frozenset[Monomial]:
    """n = 2 only: the desuspended negative alpha cone times Laurent a_lambda_0."""
    j = -1 - d.t
    i = d.c_alpha + d.t + 1
    k = -d.c_lambda[0]
    if i >= 1 and j >= 1:
        return frozenset({_mono(2, 1, -i, -j, (k,), (0,))})
    return frozenset()


def _posD(n: int, d: Degree) -> frozenset[Monomial]:
    """Positive-cone members of the a_lambda_0-divisible part: nonnegative
    a_lambda_0 shifts of the B_1 families, i.e. the positive-cone classes
    containing a_alpha^2 or a higher rotation Euler class.  Gold already
    forbids such classes from carrying the orientation classes that would
    obstruct divisibility."""
    return frozenset(
        m
        for m in positive_cone_basis(n, d)
        if m.e_a_alpha >= 2 or any(a >= 1 for a in m.e_a_lambda[1:])
    )


# -- divisible sets ---------------------------------------------------------


def part3(n: int, d: Degree) -> frozenset[Monomial]:
    """The literal three blocks, solved in degree d (n >= 3)."""
    if n < 3:
        raise DegreeError("part3 blocks need n >= 3")
    return _b1_fam1(n, d) | _b1_fam2(n, d) | _b2(n, d) | _b3(n, d)


@lru_cache(maxsize=None)
def _d_lambda0(n: int, d: Degree) -> frozenset[tuple[Monomial, int]]:
    """All classes of degree d infinitely divisible by a_lambda_0, with the
    renaming depth that produced each."""
    if n < 2:
        raise DegreeError("the a_lambda_0-divisible set needs n >= 2")
    found: dict[Monomial, int] = {}
    for m, dep in _d_lambda1(n, d):
        found[m] = dep
    blocks = _b1_fam1(n, d) | _b1_fam2(n, d) | _b2(n, d) | _b3(n, d)
    for m in blocks | _posD(n, d):
        if m not in found or found[m] > 0:
            found[m] = 0
    return frozenset(found.items())


def _d_lambda1(n: int, d: Degree) -> frozenset[tuple[Monomial, int]]:
    """Classes infinitely divisible by a_lambda_1: rename the divisible set
    of the quotient group and restore the forced a_lambda_0 power.  For
    n = 2, the base of the recursion, this is the part-(2) family of C_4 at
    depth 0."""
    if n == 2:
        return frozenset((m, 0) for m in _c4_sigma_alpha_family(d))
    k = -d.c_lambda[0]
    inner = _d_lambda0(n - 1, strip_lambda0(d))
    return frozenset(
        (times_a_lambda(eps_rename(m), 0, k), dep + 1) for m, dep in inner
    )


def d_divisible(n: int, generator: str, d: Degree) -> frozenset[Monomial]:
    """Divisible-class query for a_lambda_0 (n >= 2) or a_lambda_1 (n >= 3)."""
    if generator == "aL0":
        return frozenset(m for m, _ in _d_lambda0(n, d))
    if generator == "aL1":
        if n < 3:
            raise DegreeError("the a_lambda_1-divisible set needs n >= 3")
        return frozenset(m for m, _ in _d_lambda1(n, d))
    raise MonomialError(f"unsupported divisibility generator {generator!r}")


def part2(n: int, d: Degree) -> frozenset[Monomial]:
    """Part (2): the a_lambda_1-divisible classes not already listed in
    the positive cone or in the explicit blocks."""
    if n < 3:
        raise DegreeError("part2 needs n >= 3")
    blocks = part3(n, d)
    return frozenset(
        m for m, _ in _d_lambda1(n, d) if not _is_positive_cone(m) and m not in blocks
    )


def part2_closed(n: int, d: Degree) -> frozenset[Monomial]:
    """Second route to part (2): flatten the recursion into iterated
    renamings of the explicit families with forced Laurent a-tails.

    Stage m contributes the blocks and positive-shift families of C_{2^m},
    renamed n-m times; the a_{lambda_j} exponents freed by the renamings
    are pinned by the target degree.  Agreement with part2 is a consistency
    check on the induction bookkeeping.
    """
    if n < 4:
        raise DegreeError("the closed route needs n >= 4")
    out: set[Monomial] = set()
    blocks = part3(n, d)
    for m_group in range(2, n):
        renames = n - m_group
        base_deg = d
        for _ in range(renames):
            base_deg = strip_lambda0(base_deg)
        if m_group == 2:
            fams = (
                _b1_fam1(2, base_deg)
                | _c4_sigma_alpha_family(base_deg)
                | _b2(2, base_deg)
                | _posD(2, base_deg)
            )
        else:
            fams = part3(m_group, base_deg) | _posD(m_group, base_deg)
        for x in fams:
            y = x
            for _ in range(renames):
                y = eps_rename(y)
            for j in range(renames):
                y = times_a_lambda(y, j, -d.c_lambda[j])
            if not _is_positive_cone(y) and y not in blocks:
                out.add(y)
    return frozenset(out)


# -- assembled answer -------------------------------------------------------


def _basis_c2(d: Degree) -> dict[Monomial, BasisElement]:
    out = {}
    for m in positive_cone_basis(1, d):
        out[m] = BasisElement(m, "POS", 0)
    j = -1 - d.t
    i = d.c_alpha + d.t + 1
    if i >= 1 and j >= 1:
        m = _mono(1, 1, -i, -j, (), ())
        out[m] = BasisElement(m, "P2", 0)
    return out


def basis(n: int, d: Degree) -> AnswerBasis:
    if d.n != n:
        raise DegreeError(f"degree is over n={d.n}, expected {n}")
    if n == 1:
        found = _basis_c2(d)
    else:
        found = {}
        pos = positive_cone_basis(n, d)
        for m in pos:
            found[m] = BasisElement(m, "POS", 0)
        b1 = _b1_fam1(n, d) | _b1_fam2(n, d)
        b2 = _b2(n, d)
        b3 = _b3(n, d)
        p4 = part4(n, d)
        for fam, tag in ((b1, "P3.B1"), (b2, "P3.B2"), (b3, "P3.B3"), (p4, "P4")):
            for m in fam:
                if m in found:
                    raise PartOverlapError(f"{m} appears in {found[m].part} and {tag}")
                found[m] = BasisElement(m, tag, 0)
        for m, dep in sorted(_d_lambda1(n, d), key=lambda t: t[1]):
            if m in found:
                if found[m].part in ("P3.B2", "P3.B3", "P4"):
                    raise PartOverlapError(
                        f"{m} is divisible yet tagged {found[m].part}"
                    )
                continue
            found[m] = BasisElement(m, "P2", dep)
    return AnswerBasis(n, d, frozenset(found.values()))


def dimension(n: int, d: Degree) -> int:
    return len(basis(n, d).elements)


# -- summand bookkeeping ----------------------------------------------------


def summand_audit(n: int) -> dict:
    """Family counts of the displayed presentation, with the part-(2)
    recurrence trail grounded at four families for C_8."""
    if n < 1:
        raise DegreeError(f"n must be >= 1, got {n}")
    if n == 1:
        return {"n": 1, "total": 2, "families": {"POS": 1, "P2": 1}}
    if n == 2:
        return {"n": 2, "total": 6, "families": {"POS": 1, "P2": 1, "P3": 3, "P4": 1}}
    trail = []
    p2 = 4
    trail.append({"n": 3, "p2_families": 4, "rule": "base"})
    for m in range(4, n + 1):
        p2 += 2 * (m - 1)
        trail.append(
            {"n": m, "p2_families": p2, "rule": f"previous + 2*(n-1) = +{2 * (m - 1)}"}
        )
    total = 1 + p2 + 2 * n + (n - 1)
    return {
        "n": n,
        "total": total,
        "families": {"POS": 1, "P2": p2, "P3": 2 * n, "P4": n - 1},
        "p2_recurrence": trail,
    }


def summand_count(n: int) -> int:
    return summand_audit(n)["total"]


def clear_caches() -> None:
    _d_lambda0.cache_clear()
