"""Brute-force oracle: levelwise cellular cochain complexes over GF(2).

A virtual-representation sphere is modeled by a cochain complex of
permutation modules.  Every subgroup level is the fixed subcomplex, with
bases given by orbit sums.  Restriction is inclusion of fixed points,
transfer is the relative norm, and the graded Mackey functor of the sphere
mapped into the Eilenberg-MacLane object is read off as cohomology of
these complexes.

Cell models: one copy of the rotation lambda_k contributes cells G/G,
G/C_{2^k}, G/C_{2^k} with maps nu (orbit-sum inclusion) and 1 - gamma;
m copies use the alternating minimal model nu, 1-gamma, N, 1-gamma, ...
of length 2m, where N is the full orbit norm.  A copy of alpha contributes
G/G, G/C_{2^{n-1}} with nu; further copies extend by 1 + gamma (which on a
two-point orbit coincides with the norm).  Distinct representations are
smashed, and the negative part of a virtual degree is dualized.

Every entry point (`oracle_top_dim`, `oracle_pi`, `mult_a_alpha`,
`verify_lemma_kernel`) reads the same way: it asks `_slices` for the level
slices of one model, or of a model and its smash with one extra factor, and
reads groups (`_LevelSlice.reducer`) and maps (`_orbit_induced`) off them.
`_slices` checks the budget first, in closed form (`_widths`), so a refused
degree builds nothing.  `_LevelSlice` builds the level-j fixed subcomplex
of a factor list in the three cochain degrees s-1, s, s+1 the answer
reads, straight from orbit data.  A cell of the tensor model is a tuple of
factor degrees plus one coordinate in Z/B per factor (B the factor's
block, 1 in factor degree 0); gamma adds 1 to every coordinate, and level j
is the action of gamma^(2^(n-j)).  A differential is emitted column by
column, in the column-major form `gf2` takes, as the image of each source
orbit sum: the coefficient of a target orbit O' in d(sum O) is the number of
cells of O' that d(rep O) hits, times |O| / |O'|, mod 2, so no bottom-level
vector is formed; a factor's move adds bit masks fixed by its differential's
kind (nu and N hit the whole block, 1 - gamma and its transpose two cells).
The levels of one model share one list of factor-degree signatures
(`_signatures`), grown factor by factor so that it holds only those of
degrees s-1..s+1.  A degree s outside the interval of degrees with cells
has group 0, lists no signature and is never refused by the budget; that
is decided from the interval alone, before the budget pass.
res, tr, gamma and multiplication by a_alpha (the inclusion of the model
into its smash with one dual alpha cell pair) act on orbit indices in closed
form.

Clearing across degrees (the Chen-Kerber twist, one degree further down
than `CohomologyReducer` takes it): a column of d_deg at a position that is
the top bit of a column of d_{deg-1} lies in the span of the lower columns,
as d_deg d_{deg-1} = 0.  So it need not be built: at deg = s - 1 it would
reduce to 0, at deg = s it lies at a pivot of the image of d_in, which the
reducer skips.  The positions are read from signatures alone, so no degree
outside s-1..s+1 is listed.  Classes are listed in product order, so the
top bit of a class K's columns comes from its top move (its first +1 move,
or with none its last -1 move), which lands in the class with the largest
offset; that class T reads the top bits off its own coordinates in closed
form, as a box per class fixed by the move's kind and where T's star lies
(`_top_box`).  `cols(deg, clear=True)` leaves those columns 0 and walks
only the representatives outside the box.  Below `CLEAR_FROM` columns a
slice builds both differentials in full, where the boxes cost more than
they save.

Moves are compiled once per shape.  What a move adds to a class's columns
(`_LevelSlice._add_move`) depends on the slice only through p, the blocks of
its source and target classes, which fix their stars, periods, radices and
strides (`_shape`, one table for every class), the factor f it moves, its
kind (turn: 1 - gamma, its transpose, or nu and N) and the source's cleared
box; the target's offset only shifts the masks.  So `cols` keys each move by
(p, source blocks, target blocks, f, turn, box), builds its nonzero columns
once at target offset 0 (`_template`), and from then on XORs them in shifted
by the target's offset, with no walk or table built.  The key names all that
`_add_move` reads, so a memo filled by any degree gives what a direct build
gives.  Only moves out of classes of at most `TEMPLATE_MAX` orbits are kept:
a larger class costs its XORs more than its set-up and is built directly.
The memo lives in the process, so no template outlives a code change.

The bottom-level route, which stores the whole complex at the trivial-
subgroup level with the generator's permutation action, lives in the test
suite (`tests/reference_oracle.py`) as the independent reference this
builder is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import mul, xor

from .gf2 import CohomologyReducer, columns_to_bitstrings, nullspace, rank
from .reps import Degree, DegreeError, check_group
from . import reps

DEFAULT_BUDGET = 20000
# Clearing costs a box per class (`_top_box`) and, per cleared shape, a
# template of its own; below about this many columns in degrees s-1 and s
# together that costs more than the columns it skips, so smaller slices build
# both differentials in full.
CLEAR_FROM = 192
# Moves out of classes of at most this many orbits (256 at most: a template
# stores a position in one byte) are compiled once per shape
# (`_LevelSlice.cols`).  A move out of a larger class costs its XORs more than
# its set-up, and keeping its template would cost memory: over the oracle_pi
# degrees of one benchmark mackey seed, 64 keeps about 1800 templates in about
# 1 MB, and no cap about 2200 in 2.5 MB for about 5% less time.
TEMPLATE_MAX = 64
# the group of every empty slice, shared: a reducer is not changed once built
_ZERO_GROUP = CohomologyReducer(0, [], [])


class BudgetExceededError(RuntimeError):
    def __init__(self, degree, predicted: int, cap: int):
        super().__init__(
            f"degree {degree}: predicted matrix dimension {predicted} exceeds budget {cap}"
        )
        self.degree = degree
        self.predicted = predicted
        self.cap = cap


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- level-direct truncated model ---------------------------------------------


def _factors(n: int, d: Degree) -> list[tuple[int, int, int]]:
    """(block, length, sign) of the minimal model of each nonzero coefficient:
    lambda_i in increasing i, then alpha.  sign -1 marks a factor of the
    negative part, which enters dualized."""
    check_group(n, d)
    out = [
        (1 << (n - i), 2 * abs(c), 1 if c > 0 else -1)
        for i, c in enumerate(d.c_lambda)
        if c
    ]
    if d.c_alpha:
        out.append((2, abs(d.c_alpha), 1 if d.c_alpha > 0 else -1))
    return out


def _signatures(factors: list[tuple[int, int, int]], s: int) -> dict[int, list[tuple[int, ...]]]:
    """Factor-degree signatures of cochain degrees s-1, s and s+1, in product
    order.  Factor f adds sign * u for u in 0..length, so the factors after a
    prefix add every degree between their least and most sums; grown one
    factor at a time, a prefix stays while those can bring it into s-1..s+1.
    When s is outside the degrees with cells, nothing is listed."""
    by_degree: dict[int, list] = {deg: [] for deg in (s - 1, s, s + 1)}
    least, most = [0], [0]  # over the last k factors, k = 0, 1, ...
    for _, length, sign in reversed(factors):
        least.append(least[-1] + min(0, sign * length))
        most.append(most[-1] + max(0, sign * length))
    if least[-1] <= s <= most[-1]:
        prefixes = [((), 0)]
        for (_, length, sign), lo, hi in zip(factors, least[-2::-1], most[-2::-1]):
            prefixes = [(sig + (u,), deg + sign * u) for sig, deg in prefixes
                        for u in range(length + 1) if s - 1 - hi <= deg + sign * u <= s + 1 - lo]
        for sig, deg in prefixes:
            by_degree[deg].append(sig)
    return by_degree


def _shape(blocks: tuple[int, ...], p: int) -> tuple:
    """(star, period, radices, strides, count) of the classes of `blocks` at
    the level whose orbits have at most p cells: see `_CellClass`."""
    big = max(blocks, default=1)
    star = blocks.index(big) if big > p else -1
    radices = tuple(p if f == star else b for f, b in enumerate(blocks))
    strides, step = [], 1
    for r in reversed(radices):
        strides.append(step)
        step *= r
    # gamma^period fixes every cell; orbit size period / p
    return star, max(big, p), radices, tuple(reversed(strides)), step


# (blocks, p) -> `_shape`, shared by every class, signature and level
_SHAPES: dict[tuple, tuple] = {}


class _CellClass:
    """The orbits of one factor-degree signature at one level.

    Representatives fix the coordinate of the first factor with the largest
    block to [0, p) when that block exceeds p; every other coordinate is
    free.  Orbit index = offset + mixed radix of the representative.
    """

    __slots__ = ("sig", "blocks", "star", "period", "radices", "strides", "offset", "count")

    def __init__(self, sig: tuple[int, ...], blocks: tuple[int, ...], p: int, offset: int):
        self.sig = sig
        self.blocks = blocks
        self.offset = offset
        shape = _SHAPES.get((blocks, p))
        if shape is None:
            shape = _SHAPES[blocks, p] = _shape(blocks, p)
        self.star, self.period, self.radices, self.strides, self.count = shape


def _top_box(factors: list[tuple[int, int, int]], first: int, p: int,
             cls: _CellClass) -> dict | None:
    """The representatives of cls whose orbit indices are top bits of columns
    of the differential into cls's degree, as a box: a range of values for
    each coordinate it restricts ({}: the whole class); None when there are
    none to read off.  first is the index of the first positive factor, -1
    with none.

    Classes are listed in product order, so the top move of a class K, the
    one whose target has the largest offset, is its first +1 move (sign > 0,
    u < length) or, with none, its last -1 move (sign < 0, u > 0); every
    other move lands lower, and the top bit of each of K's columns is that
    of the top move's part.  cls is the top-move target of K = cls minus one
    step of its first positive factor f or, with no positive factor, plus
    one step of its last factor (other classes K may move into cls too).
    The move adds nothing when K's period exceeds cls's.  With r = cls's
    radix at f, the box restricts x[f] when the star (the coordinate fixed
    below p) is off f: to 1..r-1 for 1 - gamma and its transpose (turn +-1),
    to r - 1 for nu and N (turn 0; r = 1 for the transpose of nu, whose box
    is the class).  With the star on f:
    - turn +-1: x[f] in 1..p-1; at p = 1 every x[f] is 0 and the pair is
      x and x -+ 1 on the other coordinates, so the first other coordinate
      g of block > 1 has x[g] in 1..B_g-1 (with none, the move adds 0);
    - turn 0: x[f] = p - 1 and the rest is the lexicographically largest
      of its orbit under the shifts by multiples of p: each coordinate g
      whose block exceeds q, the largest block before it (p at first),
      lies in B_g-q..B_g-1.  N adds that orbit B_f / B times over, B the
      largest block off f, so it adds 0 unless B = B_f.
    """
    sig, f = cls.sig, first
    if f >= 0:
        u = sig[f] - 1
        if u < 0:
            return None
    elif sig:
        f = len(sig) - 1
        u = sig[f] + 1
        if u > factors[f][1]:
            return None
    else:
        return None
    b, _, sign = factors[f]
    if u and b > cls.period:  # K's period exceeds cls's
        return None
    turn = u % 2 if sign > 0 else u % 2 - 1
    if cls.star != f:
        r = cls.radices[f]
        return {f: range(1, r)} if turn else {f: range(r - 1, r)} if r > 1 else {}
    if turn:
        if p > 1:
            return {f: range(1, p)}
        g = next((g for g, bg in enumerate(cls.blocks) if bg > 1 and g != f), None)
        return None if g is None else {g: range(1, cls.blocks[g])}
    if u and cls.blocks.count(b) == 1:  # N with B < B_f
        return None
    box, q = ({f: range(p - 1, p)} if p > 1 else {}), p
    for g, bg in enumerate(cls.blocks):
        if g != f and bg > q:
            box[g], q = range(bg - q, bg), bg
    return box


def _outside(box: dict[int, range], radices: tuple[int, ...]) -> list[tuple]:
    """The representatives of a class outside box, as disjoint walks: per
    walk, the values each coordinate takes (None: all) and the coordinates
    it restricts.  Walk i keeps the box's first i coordinates inside it and
    takes its next one outside."""
    walks, inside, cut = [], [None] * len(radices), ()
    for g, z in box.items():
        walk = inside.copy()
        walk[g] = [v for v in range(radices[g]) if v not in z]
        cut += (g,)
        walks.append((walk, cut))
        inside[g] = z
    return walks


# (p, source blocks, target blocks, f, turn, cleared box) -> one move's
# nonzero columns at target offset 0 (`_LevelSlice._template`)
_TEMPLATES: dict[tuple, tuple] = {}


class _LevelSlice:
    """Level-j fixed subcomplex of the tensor model of `factors` (as built by
    `_factors`, a degree d giving s = -t), in cochain degrees s-1, s and s+1
    only, with orbit-sum bases.

    dims[deg] is the orbit count of degree deg; at level 0 every orbit is a
    single cell, so those are the bottom-level widths.  cols(deg) is the
    differential deg -> deg + 1 in the column-major form `gf2` takes: one
    column per degree-deg orbit sum, with the |O| / |O'| rule of the module
    docstring applied per pair of classes.  cleared(deg) names the columns
    that clearing across degrees (module docstring) leaves out, and
    cols(deg, clear=True) leaves them 0.
    """

    def __init__(self, n: int, factors: list[tuple[int, int, int]], s: int, j: int,
                 signatures=None):
        if signatures is None:  # the levels of one model share them
            signatures = _signatures(factors, s)
        self.factors, self.s = factors, s
        self.p = 1 << (n - j)
        self.classes: dict[int, dict[tuple[int, ...], _CellClass]] = {}
        self.dims: dict[int, int] = {}
        for deg, sigs in signatures.items():
            table, offset = {}, 0
            for sig in sigs:
                blocks = tuple(b if u else 1 for (b, _, _), u in zip(factors, sig))
                table[sig] = cls = _CellClass(sig, blocks, self.p, offset)
                offset += cls.count
            self.classes[deg] = table
            self.dims[deg] = offset

    def index(self, cls: _CellClass, x) -> int:
        """Orbit index of the cell with coordinates x in class cls."""
        if cls.star >= 0:
            k = x[cls.star] // self.p * self.p
            if k:
                x = [(v - k) % b for v, b in zip(x, cls.blocks)]
        return cls.offset + sum(map(mul, x, cls.strides))

    @cached_property
    def orbits(self) -> list:
        """(class, representative) of every degree-s orbit, in index order."""
        return [
            (cls, x)
            for cls in self.classes[self.s].values()
            for x in product(*map(range, cls.radices))
        ]

    def cleared(self, deg: int) -> dict[tuple[int, ...], dict[int, range]]:
        """The positions of degree deg that are top bits of columns of the
        differential into deg, as one box of representatives per class
        (`_top_box`), keyed by signature; classes with none are left out.
        Their columns out of deg are the ones clearing across degrees (module
        docstring) need not build.  Only signatures are read, so degree
        deg - 1 is never listed."""
        boxes = {}
        first = next((f for f, (_, _, sign) in enumerate(self.factors) if sign > 0), -1)
        for sig, cls in self.classes[deg].items():
            box = _top_box(self.factors, first, self.p, cls)
            if box is not None:
                boxes[sig] = box
        return boxes

    def cols(self, deg: int, clear: bool = False) -> list[int]:
        """The level differential from degree deg to deg + 1 as columns, one
        per degree-deg orbit O in index order: the image of the orbit sum.
        With clear, the columns at the positions of `cleared(deg)` are not
        built and come out 0; the span of the columns, their pivots and so
        every answer stay the same.  Each move out of a class of at most
        `TEMPLATE_MAX` orbits comes from its shape's template (module
        docstring); a larger class's moves are built directly.

        Counting pairs (x in O, y in O') with y in supp d(x) both ways, the
        coefficient of O' is |supp d(rep O) & O'| |O| / |O'| mod 2.  Orbit
        sizes (period / p per class) differ only where a move changes its
        factor's block.  A dual factor leaving factor degree 1 may shrink
        them; |O| / |O'| is then even and the move adds nothing.  nu leaving
        factor degree 0 may grow them; its support is then a union of
        stabilizer orbits of size |O'| / |O|, so it is counted modulo the
        source cell's stabilizer gamma^period.
        """
        dst = self.classes[deg + 1]
        boxes = self.cleared(deg) if clear else {}
        p, out = self.p, []
        for sig, cls in self.classes[deg].items():
            cols = [0] * cls.count
            box = boxes.get(sig)
            if box == {}:  # the whole class is cleared
                out.extend(cols)
                continue
            boxed = None if box is None else tuple(box.items())
            walks = None if cls.count <= TEMPLATE_MAX else self._walks(cls, box)
            for f, (_, length, sign) in enumerate(self.factors):
                u = sig[f]
                if sign > 0 and u < length:
                    tgt = dst[sig[:f] + (u + 1,) + sig[f + 1:]]
                    turn = u % 2  # 1 - gamma: cells x and x + 1
                elif sign < 0 and u > 0:
                    tgt = dst[sig[:f] + (u - 1,) + sig[f + 1:]]
                    turn = u % 2 - 1  # its transpose: cells y and y - 1
                else:
                    continue
                if tgt.period < cls.period:  # no image
                    continue
                if (not turn and tgt.star == f and cls.blocks[f] > 1
                        and tgt.blocks.count(tgt.blocks[f]) == 1):
                    continue  # N inside a star no other block reaches adds 0 (`_top_box`)
                if walks is not None:  # a large class: its XORs outweigh set-up
                    self._add_move(cols, cls, tgt, f, turn, walks, tgt.offset)
                    continue
                key = (p, cls.blocks, tgt.blocks, f, turn, boxed)
                template = _TEMPLATES.get(key)
                if template is None:
                    template = _TEMPLATES[key] = self._template(cls, tgt, f, turn, box)
                o = tgt.offset
                for i, m in zip(*template):
                    cols[i] ^= m << o
            out.extend(cols)
        return out

    def _walks(self, cls: _CellClass, box: dict | None) -> list[tuple]:
        """The parts of cls that `_add_move` covers: every representative,
        or those outside a cleared box."""
        if box is None:
            return [((None,) * len(self.factors), ())]
        return _outside(box, cls.radices)

    def _template(self, cls: _CellClass, tgt: _CellClass, f: int, turn: int,
                  box: dict | None) -> tuple[bytes, tuple[int, ...]]:
        """One move compiled at target offset 0: the positions of its nonzero
        columns (below `TEMPLATE_MAX`, so one byte each) and their masks, to
        be shifted by the target's offset."""
        cols = [0] * cls.count
        self._add_move(cols, cls, tgt, f, turn, self._walks(cls, box), 0)
        positions = bytes(i for i, m in enumerate(cols) if m)
        return positions, tuple(cols[i] for i in positions)

    def _add_move(self, cols, cls: _CellClass, tgt: _CellClass, f: int, turn: int,
                  walks, o: int) -> None:
        """XOR into cols (one per orbit of cls, in index order) the part of
        the differential that moves factor f into class tgt: source cell x
        meets the cells of tgt that agree with x off f and carry at f a c of
        the move's support: x[f] and x[f] + turn for turn = +-1 (1 - gamma,
        its transpose), every c below min(tgt block, cls period) for turn = 0
        (nu, N, the transpose of nu onto block 1).

        index(tgt, .) first shifts every coordinate by k = (star coordinate)
        // p * p.  With the star off f, k is fixed by the coordinates z off f,
        so each k takes its own run of z; with the star on f, k = c // p * p,
        so each k takes its own cs.  Per k, column positions and base indices
        over z are outer sums of per-factor terms, and each x[f] adds a mask
        of its cs at offsets from the base, in closed form: one mask for
        every x[f] and k for a full support (the block, or [k, k + p) with
        the star on f), two bits for a pair.  At k = 0, when cls and tgt
        have their stars at the same coordinate (or at f, or none), their
        radices differ at most at f, so positions and bases are runs of the
        coordinates before and after f; with equal radices the base is the
        position (the masks carry the offset o).

        walks (`_walks`) are the parts of cls to cover, each with the values
        every coordinate takes (None: all) and the coordinates it restricts;
        positions outside them are cleared and left alone.  o is the offset
        the masks are shifted to: tgt's offset, or 0 when `_template`
        compiles the move once for every class of its shape.
        """
        p, st = self.p, tgt.star
        wf, step, rf = tgt.strides[f], cls.strides[f], cls.radices[f]
        if turn:  # equal blocks at f, so tgt has cls's star and radices
            bf = tgt.blocks[f]
            if st == f:  # x[f] < p: every partner but end's lies under k = 0
                end = p - 1 if turn > 0 else 0
                c = (end + turn) % bf
                moves = {
                    0: [(y * step, (1 << y * wf | (y != end) << (y + turn) % bf * wf) << o)
                        for y in range(p)],
                    c // p * p: [(end * step, 1 << c % p * wf << o)],
                }
            else:
                moves = {0: [(y * step, (1 << y * wf | 1 << (y + turn) % bf * wf) << o)
                             for y in range(rf)]}
        else:
            width = min(tgt.blocks[f], cls.period)
            cs = p if st == f else width  # m has bits 0, wf, ..., (cs - 1) wf
            m = ((1 << cs * wf) - 1) // ((1 << wf) - 1) << o
            if st == f:
                ks = range(0, width, p)
            else:
                ks = range(0, cls.radices[st], p) if st >= 0 else (0,)
            moves = dict.fromkeys(ks, [(y * step, m) for y in range(rf)])
        same = tgt.radices == cls.radices
        # off f the radices of cls and tgt differ only where one has its star
        aligned = cls.star == st or (cls.star in (f, -1) and st in (f, -1))
        terms = None
        for walk, cut in walks:
            if walk[f] is None:
                moved = moves
            else:
                moved = {k: [(off, m) for off, m in masks if off // step in walk[f]]
                         for k, masks in moves.items()}
            for k, masks in moved.items():
                if aligned and not k and cut in ((), (f,)):
                    # every coordinate off f over its radix: position h + l
                    # and base h / rf * (tgt's radix at f) + l, h a multiple
                    # of rf * step and l < step
                    targets = (range(0, cls.count, rf) if step == 1 else
                               [h + l for h in range(0, cls.count, rf * step) for l in range(step)])
                    if same:
                        bases = targets
                    else:
                        rt = tgt.radices[f]
                        bases = [h + l for h in range(0, cls.count // rf * rt, rt * step)
                                 for l in range(step)]
                else:
                    if terms is None:
                        terms = [(g, r, s, bg, w) for g, (r, s, bg, w) in enumerate(
                                 zip(cls.radices, cls.strides, tgt.blocks, tgt.strides))
                                 if g != f and bg > 1]  # a block-1 factor adds 0 to both
                    direct = same and not k  # the base is the position
                    targets, bases = [0], [0]
                    for g, r, s, bg, w in terms:
                        lo, hi = (k, k + p) if g == st else (0, r)
                        if walk[g] is None:
                            vs = range(lo, hi)
                        else:
                            vs = [v for v in walk[g] if lo <= v < hi]
                        targets = [a + v * s for a in targets for v in vs]
                        if not direct:
                            bs = [(v - k) % bg * w for v in vs]
                            bases = [a + b for a in bases for b in bs]
                    if direct:
                        bases = targets
                for t, b in zip(targets, bases):
                    for off, m in masks:
                        cols[t + off] ^= m << b

    @cached_property
    def reducer(self) -> CohomologyReducer:
        """Cohomology at degree s.  The one empty-degree rule: when degree s
        has no cells the group is 0 and no differential is built."""
        s = self.s
        if not self.dims[s]:
            return _ZERO_GROUP
        clear = self.dims[s - 1] + self.dims[s] >= CLEAR_FROM
        return CohomologyReducer(self.dims[s], self.cols(s - 1, clear), self.cols(s, clear))


def _shift(cls: _CellClass, x, m: int) -> list[int]:
    """gamma^m on cell coordinates."""
    return [(v + m) % b for v, b in zip(x, cls.blocks)]


# Chain maps on degree-s orbits, each called as chain_map(source slice, target
# slice) and giving image(b): the target vector of source orbit b.  hi and lo
# are the slices of one model at levels j and j-1.


def _res(hi: _LevelSlice, lo: _LevelSlice):
    """Restriction from level j to j-1: O_j(x) -> O_{j-1}(x) + O_{j-1}(x + p_j),
    one term if they coincide."""

    def image(b: int) -> int:
        cls, x = hi.orbits[b]
        lo_cls = lo.classes[lo.s][cls.sig]
        return (1 << lo.index(lo_cls, x)) | (1 << lo.index(lo_cls, _shift(cls, x, hi.p)))

    return image


def _tr(lo: _LevelSlice, hi: _LevelSlice):
    """Transfer from level j-1 to j: O_{j-1}(x) -> O_j(x), or 0 when
    O_{j-1}(x + p_j) is the same orbit."""

    def image(b: int) -> int:
        cls, x = lo.orbits[b]
        if lo.index(cls, _shift(cls, x, hi.p)) == b:
            return 0
        return 1 << hi.index(hi.classes[hi.s][cls.sig], x)

    return image


def _gamma(src: _LevelSlice, tgt: _LevelSlice):
    """The Weyl generator, src and tgt one slice: O(x) -> O(x + 1)."""

    def image(b: int) -> int:
        cls, x = src.orbits[b]
        return 1 << tgt.index(cls, _shift(cls, x, 1))

    return image


def _include(src: _LevelSlice, tgt: _LevelSlice):
    """Multiplication by a_alpha, for tgt the slice of src's factors plus the
    dual alpha pair `_DUAL_ALPHA` at the same level: the inclusion of the
    model as the pair's factor-degree-0 cell,
    O(sig, x) -> O(sig + (0,), x + (0,))."""

    def image(b: int) -> int:
        cls, x = src.orbits[b]
        return 1 << tgt.index(tgt.classes[tgt.s][cls.sig + (0,)], (*x, 0))

    return image


def _orbit_induced(src: _LevelSlice, tgt: _LevelSlice, chain_map) -> list[int]:
    """Matrix on cohomology of chain_map from slice src to slice tgt.  Both
    reducers are built, even when src's group is 0."""
    image, red = chain_map(src, tgt), tgt.reducer
    return [red.express(reduce(xor, map(image, _bits(rep)), 0)) for rep in src.reducer.reps]


# -- the oracle ---------------------------------------------------------------


@dataclass
class MackeyAnswer:
    n: int
    degree: Degree
    level_dims: list[int]
    res: list[list[int]]
    tr: list[list[int]]
    gamma: list[list[int]]

    def to_json(self) -> dict:
        return {
            "degree": reps.format_degree(self.degree),
            "levels": [{"k": j, "dim": d} for j, d in enumerate(self.level_dims)],
            "res": [
                columns_to_bitstrings(cols, self.level_dims[j - 1])
                for j, cols in enumerate(self.res, start=1)
            ],
            "tr": [
                columns_to_bitstrings(cols, self.level_dims[j])
                for j, cols in enumerate(self.tr, start=1)
            ],
            "gamma": [
                columns_to_bitstrings(cols, self.level_dims[j])
                for j, cols in enumerate(self.gamma)
            ],
        }


def _widths(factors: list[tuple[int, int, int]], s: int, p: int, cap: int) -> int:
    """The widest of cochain degrees s-1..s+1, in orbits, of the model of
    `factors` at the level whose orbits have at most p cells: 0 when degree
    s has no cells.  When the whole model's orbit count, which bounds every
    width, fits under cap, that count is returned instead.

    A signature's orbit count is the product of the blocks of its nonzero
    factors, the first capped at p.  The first is the largest: `_factors`
    lists blocks in non-increasing order, and `_DUAL_ALPHA`'s 2 is the least.
    Over the signatures whose first nonzero factor is f, by degree, that is
    min(b_f, p) A_f(z) prod_{g > f} (1 + b_g A_g(z)) with A_f = sum_{u =
    1..L_f} z^(sign u): one right-to-left pass, first at z = 1 for the whole
    model."""
    whole, rest = 1, 1
    for b, length, _ in reversed(factors):
        whole += min(b, p) * length * rest
        rest *= 1 + b * length
    if whole <= cap:
        return whole
    widths = {deg: int(deg == 0) for deg in (s - 1, s, s + 1)}  # 1: the all-zero signature
    tail = {0: 1}  # orbit counts by degree of the signatures of the factors after f
    for b, length, sign in reversed(factors):
        moved = {}
        for deg, count in tail.items():
            for e in range(deg + sign, deg + sign * (length + 1), sign):
                moved[e] = moved.get(e, 0) + count
        for e, count in moved.items():
            if e in widths:
                widths[e] += min(b, p) * count
            tail[e] = tail.get(e, 0) + b * count
    return max(widths.values()) if widths[s] else 0


def _has_cells(factors: list[tuple[int, int, int]], s: int) -> bool:
    """Whether cochain degree s lies in the model's interval of degrees with
    cells: from minus the dual factors' lengths to the others' lengths."""
    lo = hi = 0
    for _, length, sign in factors:
        if sign > 0:
            hi += length
        else:
            lo -= length
    return lo <= s <= hi


def _check(n: int, d: Degree, models, level: int, budget: int | None) -> None:
    """The one budget rule, decided before any signature is listed: refuse d
    when the widest of degrees s-1..s+1 over the models at `level`, the
    lowest a query reads, exceeds the budget.  Orbit counts only grow as the
    level drops.  The models are those in which degree s has cells; a query
    with none builds nothing and is never refused."""
    cap = DEFAULT_BUDGET if budget is None else budget
    widest = 0
    for factors in models:
        widest = max(widest, _widths(factors, -d.t, 1 << (n - level), cap))
    if widest > cap:
        raise BudgetExceededError(d, widest, cap)


def check_budget(n: int, d: Degree, budget: int | None = None) -> None:
    """Refuse d where `oracle_top_dim` would, building nothing."""
    factors = _factors(n, d)
    if _has_cells(factors, -d.t):
        _check(n, d, [factors], n, budget)


# The dual alpha cell pair: smashed on, it takes the model of d to that of d - alpha.
_DUAL_ALPHA = (2, 1, -1)


def _slices(n: int, d: Degree, levels, budget: int | None, extra=None) -> list[list[_LevelSlice]]:
    """The one way slices are made: per model, one `_LevelSlice` per level
    in `levels`.  The models are that of d and, given an `extra` factor, its
    smash with that factor.  Whether degree s has cells is decided once per
    model, from its interval; the budget is then checked over the models
    where it has, before anything is built.  Each of those lists its
    signatures once for all its levels; the others list none."""
    s = -d.t
    factors = _factors(n, d)
    models = [factors] if extra is None else [factors, factors + [extra]]
    live = [model for model in models if _has_cells(model, s)]
    if live:
        _check(n, d, live, min(levels), budget)
    out = []
    for model in models:
        if model in live:
            signatures = _signatures(model, s)
        else:
            signatures = dict.fromkeys((s - 1, s, s + 1), ())
        out.append([_LevelSlice(n, model, s, j, signatures) for j in levels])
    return out


def oracle_top_dim(n: int, d: Degree, budget: int | None = None) -> int:
    """Top-level dimension of the graded Mackey functor at degree d."""
    [[top]] = _slices(n, d, [n], budget)
    return top.reducer.h_dim


def oracle_pi(n: int, d: Degree, budget: int | None = None) -> MackeyAnswer:
    """Full Mackey functor at degree d: levelwise dimensions with induced
    restriction, transfer and Weyl-generator matrices on cohomology."""
    [slices] = _slices(n, d, range(n + 1), budget)
    return MackeyAnswer(
        n, d, [sl.reducer.h_dim for sl in slices],
        [_orbit_induced(hi, lo, _res) for lo, hi in zip(slices, slices[1:])],
        [_orbit_induced(lo, hi, _tr) for lo, hi in zip(slices, slices[1:])],
        [_orbit_induced(sl, sl, _gamma) for sl in slices],
    )


# -- multiplication by the alpha Euler class ----------------------------------


def mult_a_alpha(n: int, d: Degree, j: int, budget: int | None = None):
    """Induced map on level-j cohomology, pi_d -> pi_{d-alpha}, as
    (columns, source reducer, target reducer)."""
    if not 0 <= j <= n:
        raise DegreeError(f"level j={j} out of range for n={n}")
    [src], [tgt] = _slices(n, d, [j], budget, _DUAL_ALPHA)
    return _orbit_induced(src, tgt, _include), src.reducer, tgt.reducer


def verify_lemma_kernel(n: int, d: Degree, budget: int | None = None) -> dict:
    """Check ker(a_alpha) = im(tr) on pi_d and im(a_alpha) = ker(res) on
    pi_{d-alpha}, at the top level."""
    [src, src_sub], [tgt, tgt_sub] = _slices(n, d, [n, n - 1], budget, _DUAL_ALPHA)
    return _lemma_report(
        d, src.reducer.h_dim, tgt.reducer.h_dim,
        _orbit_induced(src, tgt, _include),
        _orbit_induced(src_sub, src, _tr),
        _orbit_induced(tgt, tgt_sub, _res),
    )


def _lemma_report(d: Degree, dim_s: int, dim_t: int, a_cols, tr_cols, res_cols) -> dict:
    """The kernel lemma at degree d from the top-level matrices of a_alpha
    (pi_d -> pi_{d-alpha}), tr on pi_d and res on pi_{d-alpha}."""
    ker_a = nullspace(a_cols)
    ker_res = nullspace(res_cols)
    # two spans agree when each has the rank of their union
    ker_eq = rank(ker_a) == rank(tr_cols) == rank(ker_a + tr_cols)
    im_eq = rank(a_cols) == rank(ker_res) == rank(a_cols + ker_res)
    return {
        "degree": reps.format_degree(d),
        "dim_pi_d": dim_s,
        "dim_pi_d_minus_alpha": dim_t,
        "ker_a_alpha_dim": rank(ker_a),
        "im_tr_dim": rank(tr_cols),
        "im_a_alpha_dim": rank(a_cols),
        "ker_res_dim": rank(ker_res),
        "ker_eq_im_tr": ker_eq,
        "im_eq_ker_res": im_eq,
        "pass": ker_eq and im_eq,
    }
