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
Both are decided on the scalars of one solve of the row pair, and a class
is built only when it is in its window.  Every renaming is one call of
`eps_rename(m, k)`, which moves a class of the quotient group one group up
and multiplies it by the a_lambda_0^k its degree forces.  One assembly path
serves every n: for the group of order 2 there are no blocks and part (2)
is its negative cone, the B2 window of its orbit row, which renamed is the
depth-0 base of the induction at order 4.

The induction from C_{2^(m-1)} to C_{2^m} runs through one memo keyed by
the quotient degree q: its entry holds all that q hands up to a degree
above it (its divisible classes with their depths, and the sources of B1
and of B3), so a degree renames one entry and solves its own row pair and
positive cone.  A miss builds the entries it lacks bottom-up in one loop,
so n is unbounded.  The memo is cleared once its group orders pass a cap.

Every family is solved degreewise: given a target degree, the lambda
slots and the alpha slot force all but finitely many exponents.  The
positive cone is solved in place; every other family is a renaming or a
window of a row, which has one class per degree.

Overlap bookkeeping: some explicit divisible families (notably the
u_alpha-a_alpha^2 tower of the first block) are themselves infinitely
divisible by a_{lambda_1}, so the renamed part-(2) set meets them.  A
monomial produced by an explicit block keeps the block's tag and is
dropped from the part-(2) remainder.  Set-level disjointness that
genuinely must hold (positive cone vs the rest, the non-divisible part vs
everything divisible) is asserted, not repaired.
"""

from __future__ import annotations

from collections import namedtuple

from .reps import Degree, DegreeError, check_group, strip_lambda0
from .monomial import Monomial, MonomialError, eps_rename, positive_cone_basis
from .tate import exponents, solve


class PartOverlapError(RuntimeError):
    """Two parts that must be disjoint produced the same monomial."""


class BasisElement(namedtuple("BasisElement", "monomial part depth")):
    """A class of the answer: its Monomial, the tag of the part that made it
    and its renaming depth.  An immutable named tuple, ordered by its fields."""

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


def _lead(d: Degree, u: int) -> int:
    """The first nonzero orientation power, read over u_lambda_0, ...,
    u_lambda_{n-2} and then u_alpha, of a Tate class of d whose lead power
    s (`hf2.tate.solve`) is 0: the first nonzero -c_p (p >= 1), else its
    u_alpha power u; 0 if every power is 0."""
    for c in d.c_lambda[1:]:
        if c:
            return -c
    return u


def _windows(n: int, d: Degree) -> tuple[tuple[Monomial, ...], tuple[Monomial, ...]]:
    """B2 and part (4) of degree d, decided on the scalars of one solve of
    the Tate row pair (`hf2.tate.solve`).  B2, the suspension families with
    a negative a_lambda_0 power, is the orbit row's class (k < s1) if its
    first nonzero orientation power is negative; for n = 1 this is the
    negative cone of C_2, S a_alpha^-i u_alpha^-j with i, j >= 1.  Part (4),
    the families outside the divisible part, is the Borel row's class
    (k >= s0) if that power is positive while u_alpha or some u_lambda
    above it is inverted.  That first power is s, or `_lead` when s = 0.
    Whatever it is, a power after it is negative exactly when u < 0 or some
    c_p > 0 (p >= 1), since the powers before a first -c_p are 0 and for
    n = 1 nothing follows s.  A class's exponent tuples and its Monomial
    are built only when it is in."""
    k, s0, u0, s1, u1 = solve(n, d)
    b2 = p4 = ()
    if k < s1 and (s1 or _lead(d, u1)) < 0:
        b2 = (Monomial(n, *exponents(n, d, 1, s1, u1)),)
    if k >= s0 and (s0 or _lead(d, u0)) > 0 and (u0 < 0 or max(d.c_lambda[1:], default=0) > 0):
        p4 = (Monomial(n, *exponents(n, d, 0, s0, u0)),)
    return b2, p4


def part4(n: int, d: Degree) -> frozenset[Monomial]:
    """Families outside the divisible part: the Borel row's window."""
    return frozenset(_windows(n, d)[1])


# -- the quotient memo ------------------------------------------------------


# One entry per quotient degree q the engine has reached, keyed by the
# degree alone (it carries n): a scan revisits the same quotient degrees,
# and a 4096-entry LRU halved its throughput.  An entry is the tuple
# (div, deps, b1, b3) of what q hands to each degree above it, as classes
# of degree q that are renamed there by eps_rename(m, k): div, its
# a_lambda_0-divisible classes, with deps the depth each carries once
# renamed; b1, its positive-cone classes containing a_alpha^2 or some
# a_lambda_i, the sources of B1; and b3, its part-(4) classes carrying
# a_lambda_0, the sources of B3.  A class may sit in div and in b1, so the
# roles are kept apart.
#
# The memo is cleared whole once the n of its keys sum past _MEMO_CAP,
# which bounds it by what it stores, since an entry's classes carry O(n)
# exponents.  The engine-scan benchmark reaches about half the cap, and a
# scan at n = 128 peaks near 59 MB (89 MB under a cap of 2^20).  Every
# empty tuple is the one shared (), every entry with nothing to hand on is
# the one _NOTHING, and the stored keys' c_lambda, the deps and the stored
# classes' lambda exponents share one tuple per list of ints through _INTS.
_MEMO_CAP = 1 << 19
_NOTHING = ((), (), (), ())


class _Memo(dict):
    """A dict of quotient entries with `weight`, the sum of its keys' n."""

    weight = 0

    def clear(self) -> None:
        super().clear()
        self.weight = 0


_QUOTIENTS: _Memo = _Memo()
_INTS: dict[tuple[int, ...], tuple[int, ...]] = {}


def _interned(m: Monomial) -> Monomial:
    """m, with its lambda exponent tuples taken from _INTS."""
    a = _INTS.setdefault(m.e_a_lambda, m.e_a_lambda)
    u = _INTS.setdefault(m.e_u_lambda, m.e_u_lambda)
    if a is m.e_a_lambda and u is m.e_u_lambda:
        return m
    return Monomial(m.n, m.sigma, m.e_a_alpha, m.e_u_alpha, a, u)


def _quotient(q: Degree) -> tuple:
    """The memo entry of degree q, which the memo lacks.  Over C_2 the
    divisible classes are the negative cone, the B2 window; over a larger
    group they are the renamed a_lambda_1-divisible classes, then the blocks
    with their positive-cone members, which start at depth 0.  Each is
    stored with the depth it carries once renamed: 0 for the negative cone
    of C_2, one more than its depth in q otherwise.

    It walks down to the first degree whose quotient the memo holds, or to
    C_2, and builds the entries it passed bottom-up in one loop, handing
    each the entry built before it: no call nests per group order, and a
    clear on the way loses nothing."""
    walk = [q]
    while q.n > 1 and (found := _QUOTIENTS.get((q.n - 1, q.t, q.c_alpha, q.c_lambda[1:]))) is None:
        q = strip_lambda0(q)
        walk.append(q)
    for q in reversed(walk):
        if q.n == 1:
            pairs, b3 = dict.fromkeys(_windows(1, q)[0], 0), ()
        else:
            tagged, p2 = _blocks(q.n, q, True, found)
            pairs = {m: dep + 1 for m, dep in p2}
            for _, fam in tagged[:3]:
                pairs.update(dict.fromkeys(fam, 1))
            b3 = [m for m in tagged[3][1] if m.e_a_lambda[0] >= 1]
        b1 = [m for m in positive_cone_basis(q.n, q)
              if m.e_a_alpha >= 2 or any(a >= 1 for a in m.e_a_lambda)]
        if pairs or b1 or b3:
            deps = tuple(pairs.values())
            found = (tuple(map(_interned, pairs)), _INTS.setdefault(deps, deps),
                     tuple(map(_interned, b1)), tuple(map(_interned, b3)))
        else:
            found = _NOTHING
        if _QUOTIENTS.weight + q.n > _MEMO_CAP:
            _QUOTIENTS.clear()
            _INTS.clear()
        c = _INTS.setdefault(q.c_lambda, q.c_lambda)
        _QUOTIENTS[q if c is q.c_lambda else Degree(q.n, q.t, q.c_alpha, c)] = found
        _QUOTIENTS.weight += q.n
    return found


def _blocks(n: int, d: Degree, pos: bool = False, below: tuple = ()) -> tuple:
    """The explicit families of degree d (n >= 2) as (tag, monomials) pairs,
    B1, B2, B3 and then P4, with the a_lambda_1-divisible classes as
    (monomial, depth) pairs, renamed as they are read: one read of the
    quotient memo (or the entry `_quotient` hands down as `below`) and one
    solve of the Tate row pair.

    B2 and P4 are the windows of the row pair (`_windows`).  B1, B3 and the
    divisible classes are renamings eps_rename(m, k) of the memo entry of
    the quotient degree, with k the a_lambda_0 power the degree forces.
    The renamed cone is B1 when c_lambda_0 >= 1.  Otherwise it is the set of
    positive-cone classes of d containing a_alpha^2 or a_lambda_i (i >= 1),
    which gold keeps free of u_lambda_0, and it is listed only if `pos`
    asks for it.
    """
    # a Degree equals the plain tuple of its fields, so a hit needs no Degree
    k = -d.c_lambda[0]
    div, deps, b1, b3 = (below or _QUOTIENTS.get((n - 1, d.t, d.c_alpha, d.c_lambda[1:]))
                         or _quotient(strip_lambda0(d)))
    b2, p4 = _windows(n, d)
    return ((("P3.B1", tuple([eps_rename(m, k) for m in b1]) if b1 and (k < 0 or pos) else ()),
             ("P3.B2", b2),
             ("P3.B3", tuple([eps_rename(m, k) for m in b3]) if b3 else ()),
             ("P4", p4)),
            ((eps_rename(m, k), dep) for m, dep in zip(div, deps)) if div else ())


def _union(tagged) -> frozenset[Monomial]:
    return frozenset().union(*(fam for _, fam in tagged))


# -- divisible sets ---------------------------------------------------------


def part3(n: int, d: Degree) -> frozenset[Monomial]:
    """The literal three blocks, solved in degree d (n >= 3)."""
    if n < 3:
        raise DegreeError("part3 blocks need n >= 3")
    return _union(_blocks(n, d)[0][:3])


def d_divisible(n: int, generator: str, d: Degree) -> frozenset[Monomial]:
    """Divisible-class query for a_lambda_0 (n >= 2) or a_lambda_1 (n >= 3):
    the first is the memo entry of d itself, the second the renamed entry
    of its quotient degree."""
    check_group(n, d)
    if generator == "aL0":
        if n < 2:
            raise DegreeError("the a_lambda_0-divisible set needs n >= 2")
        return frozenset((_QUOTIENTS.get(d) or _quotient(d))[0])
    if generator == "aL1":
        if n < 3:
            raise DegreeError("the a_lambda_1-divisible set needs n >= 3")
        return frozenset(m for m, _ in _blocks(n, d)[1])
    raise MonomialError(f"unsupported divisibility generator {generator!r}")


def part2(n: int, d: Degree) -> frozenset[Monomial]:
    """Part (2): the a_lambda_1-divisible classes not already listed in
    the positive cone or in the explicit blocks."""
    if n < 3:
        raise DegreeError("part2 needs n >= 3")
    tagged, p2 = _blocks(n, d)
    listed = positive_cone_basis(n, d) | _union(tagged[:3])
    return frozenset(m for m, _ in p2 if m not in listed)


def part2_closed(n: int, d: Degree) -> frozenset[Monomial]:
    """Second route to part (2): flatten the induction into iterated
    renamings of the explicit families with forced Laurent a-tails.

    Stage m contributes the blocks of C_{2^m} with their positive-cone
    members (for m = 1 the negative cone of C_2), renamed n-m times; the
    a_{lambda_j} exponents freed by the renamings are pinned by the target
    degree.  It reads the blocks but never the divisible classes the memo
    holds, so agreement with part2 is a consistency check on the induction
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
            fams = _windows(1, base_deg)[0]
        else:
            fams = _union(_blocks(m_group, base_deg, pos=True)[0][:3])
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
        blocks, p2 = (), ((m, 0) for m in _windows(1, d)[0])
    else:
        blocks, p2 = _blocks(n, d)
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

