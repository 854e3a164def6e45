"""Closed-form basis engine for the graded homotopy over C_{2^n}.

The answer in any degree is assembled from four parts: the positive cone,
the classes infinitely divisible by a_{lambda_1} (computed by renaming the
a_{lambda_0}-divisible classes one group down and tensoring with Laurent
powers of a_{lambda_0}), three blocks of a_{lambda_0}-divisible families,
and the explicit non-divisible families.  Blocks B1 and B3 are renamings of
the quotient group too (its positive-cone classes containing a_alpha^2 or a
rotation Euler class, and its part-(4) classes carrying a_lambda_0), so
only B2 and part (4) are solved in place, and they are two sign windows of
one slot system (`_slots`): B2 its suspended classes with negative
a_lambda_0 and u powers, part (4) its unsuspended classes with a positive
u tower against a negative exponent.  Every renaming is one call of
`eps_rename(m, k)`, which moves a class of the quotient group one group up
and multiplies it by the a_lambda_0^k its degree forces.  One assembly
path serves every n: for the group of order 2 there are no blocks and
part (2) is its negative cone, the u_alpha-negative part of its orbit row
(`hf2.tate.hb_basis`), which renamed is the depth-0 base of the recursion
at order 4.

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
from .monomial import Monomial, MonomialError, eps_rename, positive_cone_basis
from .tate import hb_basis

PARTS = ("POS", "P2", "P3.B1", "P3.B2", "P3.B3", "P4")

# The a_lambda_0/a_lambda_1 recursion descends one group order per frame
# pair, so its depth grows with n; this bound keeps it well inside Python's
# default recursion limit.
MAX_N = 256


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


# -- explicit families ------------------------------------------------------


def part_pos(n: int, d: Degree) -> frozenset[Monomial]:
    return positive_cone_basis(n, d)


def _slots(n: int, d: Degree, sigma: int, window) -> frozenset[Monomial]:
    """The slot system of degree d: the classes
    Sigma^-sigma a_alpha^eps u_alpha^s a_lambda_0^a u_r^u prod_{p>r} u_lambda_p^(-c_p)
    with s = -c_alpha - eps, kept when window(a, u, s, upper) holds.

    Slot r needs c_1 .. c_{r-1} = 0.  For r <= n-2, u_r is u_lambda_r: slot
    0 carries both classes (a + u = -c_0), a later slot forces a = -c_0 and
    u = -c_r.  Slot n-1 is u_alpha's own tower: u = s and no u_lambda.  The
    t coordinate gives the degree equation.  C_2 has no a_lambda_0, so no
    slot.
    """
    c, out = d.c_lambda, []
    for r in range(n if c else 0):
        if r >= 2 and c[r - 1]:
            break
        upper = tuple(-x for x in c[r + 1:])
        room = d.t + sigma - 2 * sum(upper)  # what u_alpha and u_r must supply
        for eps in (0, 1):
            s = -d.c_alpha - eps
            if r == n - 1:
                a, u, rest = -c[0], s, room - s
            elif r == 0:
                u, rest = divmod(room - s, 2)
                a = -c[0] - u
            else:
                a, u = -c[0], -c[r]
                rest = room - s - 2 * u
            if rest or not window(a, u, s, upper):  # rest: t off the equation
                continue
            eul = (0,) * (n - 1) if r == n - 1 else (0,) * r + (u,) + upper
            out.append(Monomial(n, sigma, eps, s, (a,) + (0,) * (n - 2), eul))
    return frozenset(out)


def _b2(n: int, d: Degree) -> frozenset[Monomial]:
    """The suspension families with a negative a_lambda_0 power: one per
    inverted-orientation slot, ending with the bare u_alpha^(-j) family."""
    return _slots(n, d, 1, lambda a, u, s, upper: a <= -1 and u <= -1)


def part4(n: int, d: Degree) -> frozenset[Monomial]:
    """Families outside the divisible part: a positive u tower against an
    inverted block with at least one genuinely negative exponent, times a
    polynomial a_lambda_0 and <1, a_alpha>."""
    return _slots(
        n, d, 0, lambda a, u, s, upper: u >= 1 and a >= 0 and min((s,) + upper) < 0
    )


def _c2_family(d: Degree) -> frozenset[Monomial]:
    """The negative cone of C_2, S a_alpha^-i u_alpha^-j with i, j >= 1:
    the u_alpha-negative part of its orbit row."""
    return frozenset(m for m in hb_basis(1, d) if m.e_u_alpha <= -1)


def _blocks(n: int, d: Degree, pos: bool = False) -> tuple:
    """The explicit a_lambda_0-divisible blocks of degree d (n >= 2), as
    (tag, monomials) pairs.

    B2 is solved in place.  B1 and B3 are renamings eps_rename(m, k) of
    quotient-group classes m, with k the a_lambda_0 power the degree
    forces: B1 comes from the quotient's positive-cone classes containing
    a_alpha^2 or a rotation Euler class, B3 from its part-(4) classes
    carrying a_lambda_0.  The renamed cone is B1 when c_lambda_0 >= 1.
    Otherwise it is the set of positive-cone classes of d containing
    a_alpha^2 or a_lambda_i (i >= 1), which gold keeps free of u_lambda_0,
    and it is listed only if `pos` asks for it.
    """
    k, q = -d.c_lambda[0], strip_lambda0(d)
    cone = frozenset()
    if k < 0 or pos:
        cone = frozenset(
            eps_rename(m, k)
            for m in positive_cone_basis(n - 1, q)
            if m.e_a_alpha >= 2 or any(a >= 1 for a in m.e_a_lambda)
        )
    b3 = frozenset(eps_rename(m, k) for m in part4(n - 1, q) if m.e_a_lambda[0] >= 1)
    return (("P3.B1", cone), ("P3.B2", _b2(n, d)), ("P3.B3", b3))


def _union(tagged) -> frozenset[Monomial]:
    return frozenset().union(*(fam for _, fam in tagged))


# -- divisible sets ---------------------------------------------------------


def part3(n: int, d: Degree) -> frozenset[Monomial]:
    """The literal three blocks, solved in degree d (n >= 3)."""
    if n < 3:
        raise DegreeError("part3 blocks need n >= 3")
    return _union(_blocks(n, d))


@lru_cache(maxsize=None)
def _d_lambda0(n: int, d: Degree) -> frozenset[tuple[Monomial, int]]:
    """All classes of degree d infinitely divisible by a_lambda_0, with the
    renaming depth that produced each: the a_lambda_1-divisible classes,
    then the blocks and the positive-cone members at depth 0."""
    if n < 2:
        raise DegreeError("the a_lambda_0-divisible set needs n >= 2")
    found = dict(_d_lambda1(n, d))
    found.update(dict.fromkeys(_union(_blocks(n, d, pos=True)), 0))
    return frozenset(found.items())


def _d_lambda1(n: int, d: Degree) -> frozenset[tuple[Monomial, int]]:
    """Classes infinitely divisible by a_lambda_1: rename the divisible set
    of the quotient group and restore the forced a_lambda_0 power.  For
    n = 2, the base of the recursion, the renamed set is the negative cone
    of C_2, at depth 0.  Every entry to the recursion passes here first."""
    if n > MAX_N:
        raise DegreeError(f"the engine's recursion needs n <= {MAX_N}, got n={n}")
    k, q = -d.c_lambda[0], strip_lambda0(d)
    if n == 2:
        return frozenset((eps_rename(m, k), 0) for m in _c2_family(q))
    return frozenset((eps_rename(m, k), dep + 1) for m, dep in _d_lambda0(n - 1, q))


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
    listed = positive_cone_basis(n, d) | part3(n, d)
    return frozenset(m for m, _ in _d_lambda1(n, d) if m not in listed)


def part2_closed(n: int, d: Degree) -> frozenset[Monomial]:
    """Second route to part (2): flatten the recursion into iterated
    renamings of the explicit families with forced Laurent a-tails.

    Stage m contributes the blocks of C_{2^m} with their positive-cone
    members (for m = 1 the negative cone of C_2), renamed n-m times; the
    a_{lambda_j} exponents freed by the renamings are pinned by the target
    degree.  Agreement with part2 is a consistency check on the induction
    bookkeeping.
    """
    if n < 4:
        raise DegreeError("the closed route needs n >= 4")
    out: set[Monomial] = set()
    listed = positive_cone_basis(n, d) | part3(n, d)
    base_deg = d
    for renames in range(1, n):
        base_deg = strip_lambda0(base_deg)
        m_group = n - renames
        if m_group == 1:
            fams = _c2_family(base_deg)
        else:
            fams = _union(_blocks(m_group, base_deg, pos=True))
        for y in fams:
            for j in reversed(range(renames)):
                y = eps_rename(y, -d.c_lambda[j])
            if y not in listed:
                out.add(y)
    return frozenset(out)


# -- assembled answer -------------------------------------------------------


def basis(n: int, d: Degree) -> AnswerBasis:
    """The positive cone, the explicit blocks and part (4), then part (2)
    less what the first three already list.  For n = 1 there are no blocks
    and part (2) is the negative cone of C_2."""
    if d.n != n:
        raise DegreeError(f"degree is over n={d.n}, expected {n}")
    found = {m: BasisElement(m, "POS", 0) for m in positive_cone_basis(n, d)}
    if n == 1:
        blocks, p2 = (), ((m, 0) for m in _c2_family(d))
    else:
        blocks, p2 = _blocks(n, d) + (("P4", part4(n, d)),), _d_lambda1(n, d)
    for tag, fam in blocks:
        for m in fam:
            if m in found:
                raise PartOverlapError(f"{m} appears in {found[m].part} and {tag}")
            found[m] = BasisElement(m, tag, 0)
    for m, dep in p2:
        if m in found:
            if found[m].part in ("P3.B2", "P3.B3", "P4"):
                raise PartOverlapError(f"{m} is divisible yet tagged {found[m].part}")
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

