"""Closed-form basis engine for the graded homotopy over C_{2^n}.

The answer in any degree is assembled from four parts: the positive cone,
the classes infinitely divisible by a_{lambda_1} (computed by renaming the
a_{lambda_0}-divisible classes one group down and tensoring with Laurent
powers of a_{lambda_0}), three blocks of a_{lambda_0}-divisible families,
and the explicit non-divisible families.  Blocks B1 and B3 are renamings of
the quotient group too (its positive-cone classes containing a_alpha^2 or a
rotation Euler class, and its part-(4) classes carrying a_lambda_0), so
B2 and part (4) are the only families not renamed, and they are windows of
the rows of `hf2.tate`, read at the class's first nonzero orientation
power (over u_lambda_0, ..., u_lambda_{n-2}, then u_alpha): B2 is the
orbit row's class when that power is negative, part (4) the Borel row's
class when it is positive and u_alpha or a u_lambda above it is negative.
Every renaming is one call of `eps_rename(m, k)`, which moves a class of
the quotient group one group up and multiplies it by the a_lambda_0^k its
degree forces.  One assembly path serves every n: for the group of order
2 there are no blocks and part (2) is its negative cone, the B2 window of
its orbit row, which renamed is the depth-0 base of the recursion at
order 4.

Every family is solved degreewise: given a target degree, the lambda
slots and the alpha slot force all but finitely many exponents.  The
positive cone is solved in place; every other family is a renaming or a
window of a row, which has one class per degree.

Overlap bookkeeping: some explicit divisible families (notably the
u_alpha-a_alpha^2 tower of the first block) are themselves infinitely
divisible by a_{lambda_1}, so the recursive part-(2) set meets them.  A
monomial produced by an explicit block keeps the block's tag and is
dropped from the part-(2) remainder.  Set-level disjointness that
genuinely must hold (positive cone vs the rest, the non-divisible part vs
everything divisible) is asserted, not repaired.
"""

from __future__ import annotations

from collections import namedtuple

from .reps import Degree, DegreeError, check_group, strip_lambda0
from .monomial import Monomial, MonomialError, eps_rename, positive_cone_basis
from .tate import basis_of, hb_row, hh_row

# The a_lambda_0/a_lambda_1 recursion descends one group order per frame
# pair, so its depth grows with n; this bound keeps it well inside Python's
# default recursion limit.
MAX_N = 256


class PartOverlapError(RuntimeError):
    """Two parts that must be disjoint produced the same monomial."""


class BasisElement(namedtuple("BasisElement", "monomial part depth")):
    """A class of the answer: its Monomial, the tag of the part that made it
    and its recursion depth.  An immutable named tuple, ordered by its fields."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"monomial": str(self.monomial), "part": self.part, "depth": self.depth}


class AnswerBasis(namedtuple("AnswerBasis", "n degree elements")):
    """The answer in one Degree over C_{2^n}: a frozenset of BasisElements.
    An immutable named tuple, with no order."""

    __slots__ = ()

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def sorted_elements(self) -> list[BasisElement]:
        return sorted(self.elements, key=lambda e: (str(e.monomial), e.part))

    def monomials(self) -> frozenset[Monomial]:
        return frozenset(e.monomial for e in self.elements)


# -- explicit families ------------------------------------------------------


def part_pos(n: int, d: Degree) -> frozenset[Monomial]:
    return positive_cone_basis(n, d)


def _lowest(row: tuple) -> tuple[int, tuple[int, ...]]:
    """The first nonzero orientation power of a class with the exponents
    row (as `hf2.tate` gives them), read over u_lambda_0, ...,
    u_lambda_{n-2} and then u_alpha, and the powers after it; (0, ()) if
    every orientation power is 0."""
    us = row[4] + (row[2],)
    for r, u in enumerate(us):
        if u:
            return u, us[r + 1:]
    return 0, ()


def _b2(n: int, d: Degree) -> frozenset[Monomial]:
    """The suspension families with a negative a_lambda_0 power: the orbit
    row's class if its first nonzero orientation power is negative.  For
    n = 1 this is the negative cone of C_2, S a_alpha^-i u_alpha^-j with
    i, j >= 1.  The window is read off the exponents, so a class is built
    only when it is in."""
    row = hb_row(n, d)
    if row is not None and _lowest(row)[0] <= -1:
        return basis_of(n, row)
    return frozenset()


def part4(n: int, d: Degree) -> frozenset[Monomial]:
    """Families outside the divisible part: the Borel row's class if its
    first nonzero orientation power is positive while u_alpha or some
    u_lambda above it is inverted."""
    row = hh_row(n, d)
    if row is not None:
        low, after = _lowest(row)
        if low >= 1 and min(after, default=0) < 0:
            return basis_of(n, row)
    return frozenset()


def _blocks(n: int, d: Degree, pos: bool = False) -> tuple:
    """The explicit a_lambda_0-divisible blocks of degree d (n >= 2), as
    (tag, monomials) pairs.

    B2 is a window of the orbit row (`_b2`).  B1 and B3 are renamings
    eps_rename(m, k) of quotient-group classes m, with k the a_lambda_0
    power the degree forces: B1 comes from the quotient's positive-cone
    classes containing a_alpha^2 or a rotation Euler class, B3 from its
    part-(4) classes carrying a_lambda_0.  The renamed cone is B1 when c_lambda_0 >= 1.
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


# The a_lambda_0-divisible set of each degree the recursion has reached,
# keyed by the degree alone (it carries n) and unbounded: a scan revisits
# the same quotient degrees, and a 4096-entry LRU halved its throughput.
# Values are tuples, so every empty answer is the one shared (); a stored
# key shares one c_lambda tuple per coefficient list through _C_LAMBDA.
_D_LAMBDA0: dict[Degree, tuple[tuple[Monomial, int], ...]] = {}
_C_LAMBDA: dict[tuple[int, ...], tuple[int, ...]] = {}


def _d_lambda0(d: Degree) -> tuple[tuple[Monomial, int], ...]:
    """All classes of degree d infinitely divisible by a_lambda_0, with the
    renaming depth that produced each: the a_lambda_1-divisible classes,
    then the blocks and the positive-cone members at depth 0."""
    found = _D_LAMBDA0.get(d)
    if found is None:
        if d.n < 2:
            raise DegreeError("the a_lambda_0-divisible set needs n >= 2")
        pairs = dict(_d_lambda1(d.n, d))
        pairs.update(dict.fromkeys(_union(_blocks(d.n, d, pos=True)), 0))
        found = tuple(pairs.items())
        c = _C_LAMBDA.setdefault(d.c_lambda, d.c_lambda)
        _D_LAMBDA0[Degree(d.n, d.t, d.c_alpha, c)] = found
    return found


def _d_lambda1(n: int, d: Degree) -> tuple[tuple[Monomial, int], ...]:
    """Classes infinitely divisible by a_lambda_1: rename the divisible set
    of the quotient group and restore the forced a_lambda_0 power.  For
    n = 2, the base of the recursion, the renamed set is the negative cone
    of C_2, at depth 0.  Every entry to the recursion passes here first."""
    if n > MAX_N:
        raise DegreeError(f"the engine's recursion needs n <= {MAX_N}, got n={n}")
    k, q = -d.c_lambda[0], strip_lambda0(d)
    if n == 2:
        return tuple((eps_rename(m, k), 0) for m in _b2(1, q))
    return tuple((eps_rename(m, k), dep + 1) for m, dep in _d_lambda0(q))


def d_divisible(n: int, generator: str, d: Degree) -> frozenset[Monomial]:
    """Divisible-class query for a_lambda_0 (n >= 2) or a_lambda_1 (n >= 3)."""
    check_group(n, d)
    if generator == "aL0":
        return frozenset(m for m, _ in _d_lambda0(d))
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
            fams = _b2(1, base_deg)
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
    check_group(n, d)
    found = {m: BasisElement(m, "POS", 0) for m in positive_cone_basis(n, d)}
    if n == 1:
        blocks, p2 = (), ((m, 0) for m in _b2(1, d))
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

