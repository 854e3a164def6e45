"""Brute-force oracle: levelwise cellular cochain complexes over GF(2).

A virtual-representation sphere is modeled by a cochain complex of
permutation modules.  Every subgroup level is the fixed subcomplex, with
bases given by orbit sums.  Restriction is inclusion of fixed points,
transfer is the relative norm, and the graded Mackey functor of the sphere
mapped into the Eilenberg-MacLane object is read off as cohomology of
these complexes.

Cell model (Hill-Hopkins-Ravenel, "The slice spectral sequence for certain
RO(C_{p^n})-graded suspensions of HZ"; Zeng, "Equivariant Eilenberg-Mac Lane
spectra in cyclic p-groups"): write d = t + P - N with P and N actual
representations, and order the summands of each by decreasing kernel:
alpha (kernel C_{2^{n-1}}), then lambda_{n-2}, ..., lambda_0.  The sphere of
each then has one cell orbit per dimension: G/G in dimension 0, one cell
G/C_{2^{n-1}} per copy of alpha and two cells G/C_{2^i} per copy of
lambda_i.  The first cell of each summand bounds the whole previous cell
orbit, and the second cell of a lambda bounds by 1 - gamma; as cochains the
first is a whole-block move (nu out of the G/G cell, N between cells of one
block) and the second 1 - gamma.  The model is C^*(S^P) tensor C_*(S^N), in
cochain degree p - q: two chain factors (`_factors`), each with a block (the
cell count of its orbit) per factor degree and a move kind per step, and
the negative part dualized.  A one-representation factor, with the
alternating moves nu, 1 - gamma, N, 1 - gamma, ..., is the one-summand case;
the dual alpha cell pair (`_DUAL_ALPHA`) is one.

Every entry point (`oracle_top_dim`, `oracle_pi`, `mult_a_alpha`,
`verify_lemma_kernel`) reads the same way: it asks `_slices` for the level
slices of one model, or of a model and its smash with the dual alpha pair,
and reads groups (`_LevelSlice.reducer`) and maps (`_orbit_induced`) off
them.  A model (`_Model`) is one factor list fixed at the query's degree s,
the window s-1..s+1: it lists the signatures of the window with their
blocks once, for every level, and keeps per level the class table of those
signatures with the orbit count of each degree.  `_slices` sizes the budget
from that table before any slice is built, and the slice takes the same
table, so each query sizes its window once.  A `_LevelSlice` is the level-j
fixed subcomplex of a model in the window, straight from orbit data.  A
cell of the model is a tuple of factor degrees (a signature) plus one
coordinate in Z/B per factor (B the factor's block at that degree); gamma
adds 1 to every coordinate, and level j is the action of gamma^(2^(n-j)).
A differential is emitted column by column, in the column-major form `gf2`
takes, as the image of each source orbit sum: the coefficient of a target
orbit O' in d(sum O) is the number of cells of O' that d(rep O) hits, times
|O| / |O'|, mod 2, so no bottom-level vector is formed; a factor's move adds
bit masks fixed by its kind (a whole-block move hits the whole target
block, 1 - gamma and its transpose two cells).
`_slices` decides emptiness once, on the coefficients: a degree s where no
model it reads has cells has group 0, builds no factor, lists no signature
and is never refused by the budget.
`oracle_pi` builds level 0 only when |d| = 0: level 0 is the underlying
non-equivariant sphere of dimension |d|, whose mod-2 group at d is F_2 at
|d| = 0 and 0 otherwise, so for |d| != 0 levels 1..n are built and the
budget is checked at level 1.
res, tr, gamma and multiplication by a_alpha (the inclusion of the model
into its smash with one dual alpha cell pair) act on orbit indices in closed
form.

Moves are compiled once per pair of classes.  A `_CellClass`, one object
per (blocks, p) in the process, fixes the star, period, radices and strides
of every signature with those blocks at that level.  What a move adds to a
class's columns depends on the slice only through its source and target
classes, the factor f it moves and its turn (1 - gamma, its transpose, or a
whole-block move); the target's offset only shifts the masks.  So every
move is built one way: `_LevelSlice._move` compiles its nonzero columns at
target offset 0, and `cols` XORs them in shifted by the target's offset.
`cols` keys each move by (source class, target class, f, turn) and keeps
the compiled move in a memo, so from then on it is XORed in with no walk or
table built.  The key names all that `_move` reads, so a memo filled by any
degree gives what a fresh compile gives.  Only moves out of classes of at
most `TEMPLATE_MAX` orbits are kept, which bounds the memo's memory; a
larger class's moves are compiled anew each time.  The memo lives in the
process, so no template outlives a code change.

The bottom-level routes, which store the whole complex at the trivial-
subgroup level with the generator's permutation action, live in the test
suite (`tests/reference_oracle.py`) as the independent references this
builder is compared against: the tensor product of one minimal model per
representation, and the cell model above.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import product
from operator import mul, xor

from .gf2 import CohomologyReducer, columns_to_bitstrings, nullspace, rank
from .reps import DEFAULT_BUDGET, BudgetExceededError, Degree, DegreeError, check_group
from . import reps

# Moves out of classes of at most this many orbits are kept once compiled,
# one per pair of classes (`_LevelSlice.cols`); a larger class's moves are
# compiled anew each time, which bounds the memo's memory.
TEMPLATE_MAX = 64
# the group of every empty slice, shared: a reducer is not changed once built
_ZERO_GROUP = CohomologyReducer(0, [], [])


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- level-direct cell model --------------------------------------------------


class _Factor(namedtuple("_Factor", "sign blocks kinds")):
    """One chain factor: sign +1 for the cochains of P, -1 for the chains of
    N, which enter dualized; blocks[u] the cell count of the orbit in factor
    degree u (1 at u = 0); kinds[u] the move between factor degrees u and
    u + 1: 0 for a whole-block move, 1 for 1 - gamma (between equal blocks).
    A positive factor moves u to u + 1 by kind kinds[u], a negative one u to
    u - 1 by the transpose of kinds[u - 1]."""

    __slots__ = ()


def _factors(n: int, d: Degree) -> list[_Factor]:
    """The chain factors of d = t + P - N: P, then N, each left out when 0.
    Summands come by decreasing kernel: a copy of alpha adds one cell of
    block 2 by a whole-block move, a copy of lambda_i, for i = n-2 down to 0,
    two cells of block 2^(n-i), by a whole-block move and 1 - gamma."""
    summands = [(d.c_alpha, 2, (0,))]
    summands += [(d.c_lambda[i], 1 << (n - i), (0, 1)) for i in range(n - 2, -1, -1)]
    out = []
    for sign in (1, -1):
        blocks, kinds = [1], []
        for c, block, moves in summands:
            c *= sign
            if c > 0:
                blocks += [block] * (c * len(moves))
                kinds += moves * c
        if kinds:
            out.append(_Factor(sign, tuple(blocks), tuple(kinds)))
    return out


class _Model:
    """The window of one query: the model of one factor list (`_factors`,
    with `_DUAL_ALPHA` appended for the a_alpha target) in cochain degrees
    s-1, s and s+1.  Factor f adds sign * u for u in 0..length, its count of
    moves, so the factors add every degree of lo..hi, the interval of
    cochain degrees with cells.  `signatures` lists, once, the (sig, blocks)
    of every factor-degree signature of the window, in product order; blocks
    holds each factor's block at its factor degree.  Grown one factor at a
    time, a prefix stays while the factors after it, which add every degree
    of lo..hi with the factors so far peeled off, can bring it into
    s-1..s+1; each prefix's factor degrees u of the next factor are that
    range, so the listing costs what it lists.  When s is outside lo..hi,
    nothing is listed.  `table`, built once per level, serves budget and
    slice alike.
    """

    __slots__ = ("n", "factors", "s", "lo", "hi", "signatures", "_tables")

    def __init__(self, n: int, factors: list[_Factor], s: int):
        self.n, self.factors, self.s = n, factors, s
        lo = hi = 0
        for sign, _, kinds in factors:
            if sign > 0:
                hi += len(kinds)
            else:
                lo -= len(kinds)
        self.lo, self.hi = lo, hi
        self.signatures = {s - 1: [], s: [], s + 1: []}
        self._tables = {}  # by p
        if lo <= s <= hi:
            prefixes = [((), 0)]
            for sign, _, kinds in factors:
                length = len(kinds)
                if sign > 0:
                    hi -= length
                else:
                    lo += length
                grown = []
                for sig, deg in prefixes:
                    a, b = s - 1 - hi - deg, s + 1 - lo - deg  # sign * u in a..b
                    if sign < 0:
                        a, b = -b, -a
                    grown += [(sig + (u,), deg + sign * u)
                              for u in range(max(a, 0), min(b, length) + 1)]
                prefixes = grown
            for sig, deg in prefixes:
                blocks = tuple(f.blocks[u] for f, u in zip(factors, sig))
                self.signatures[deg].append((sig, blocks))

    def orbit_counts(self, p: int) -> dict[int, int]:
        """Orbits by cochain degree at the level whose orbits have at most p
        cells, over every signature of every degree; a degree with none is
        left out.  A class it only counts is not kept in `_CLASSES`."""
        counts = {}
        for sig in product(*(range(len(f.blocks)) for f in self.factors)):
            deg = sum(f.sign * u for f, u in zip(self.factors, sig))
            blocks = tuple(f.blocks[u] for f, u in zip(self.factors, sig))
            cls = _CLASSES.get((blocks, p)) or _CellClass(blocks, p)
            counts[deg] = counts.get(deg, 0) + cls.count
        return counts

    def table(self, p: int) -> tuple[dict, dict]:
        """(classes, dims) of the window at the level whose orbits have at
        most p cells, once per p: classes[deg] maps each signature of degree
        deg, in index order, to its `_CellClass` and the index of its first
        orbit; dims[deg] is the degree's orbit count."""
        table = self._tables.get(p)
        if table is None:
            classes, dims = {}, {}
            for deg, sigs in self.signatures.items():
                row, offset = {}, 0
                for sig, blocks in sigs:
                    cls = _cell_class(blocks, p)
                    row[sig] = cls, offset
                    offset += cls.count
                classes[deg], dims[deg] = row, offset
            table = self._tables[p] = classes, dims
        return table


class _CellClass:
    """The orbits of every signature with the given blocks, one per factor,
    at the level whose orbits have at most p cells, one object per (blocks,
    p) (`_cell_class`).

    Representatives fix the coordinate of the first factor with the largest
    block (the star) to [0, p) when that block exceeds p; every other
    coordinate is free.  The mixed radix of the representative, over radices
    (the blocks with the star's capped at p) and strides, numbers the count
    orbits, the product of the radices: for a cell pair with blocks b and
    b', min(max(b, b'), p) min(b, b').  gamma^period fixes every cell;
    orbit size period / p.
    """

    __slots__ = ("blocks", "star", "period", "radices", "strides", "count")

    def __init__(self, blocks: tuple[int, ...], p: int):
        self.blocks = blocks
        big = max(blocks, default=1)
        self.star = blocks.index(big) if big > p else -1
        self.period = max(big, p)
        self.radices = tuple(p if f == self.star else b for f, b in enumerate(blocks))
        strides, step = [], 1
        for r in reversed(self.radices):
            strides.append(step)
            step *= r
        self.strides, self.count = tuple(reversed(strides)), step


# (blocks, p) -> its `_CellClass`, shared by every signature, model and level
_CLASSES: dict[tuple, _CellClass] = {}


def _cell_class(blocks: tuple[int, ...], p: int) -> _CellClass:
    cls = _CLASSES.get((blocks, p))
    if cls is None:
        cls = _CLASSES[blocks, p] = _CellClass(blocks, p)
    return cls


# (source class, target class, f, turn) -> one move's nonzero columns at
# target offset 0 (`_LevelSlice._move`)
_TEMPLATES: dict[tuple, tuple] = {}


class _LevelSlice:
    """Level-j fixed subcomplex of the cell model of a `_Model`'s factors (a
    degree d giving s = -t), in the model's cochain degrees s-1, s and s+1,
    with orbit-sum bases.

    classes and dims are the model's table at this level (`_Model.table`),
    as the budget read it; at level 0 every orbit is a single cell, so dims
    are the bottom-level widths.  cols(deg) is the differential deg ->
    deg + 1 in the column-major form `gf2` takes: one column per degree-deg
    orbit sum, with the |O| / |O'| rule of the module docstring applied per
    pair of classes.
    """

    def __init__(self, model: _Model, j: int):
        self.factors, self.s = model.factors, model.s
        self.p = 1 << (model.n - j)
        self.classes, self.dims = model.table(self.p)
        self._group = None if self.dims[self.s] else _ZERO_GROUP

    @property
    def reducer(self) -> CohomologyReducer:
        """Cohomology at degree s, built on its first read.  The one
        empty-degree rule: when s has no cells it is 0 (set in __init__)."""
        if self._group is None:
            s = self.s
            self._group = CohomologyReducer(self.dims[s], self.cols(s - 1), self.cols(s))
        return self._group

    def index(self, sig: tuple[int, ...], x) -> int:
        """Orbit index of the degree-s cell with signature sig and
        coordinates x."""
        cls, offset = self.classes[self.s][sig]
        if cls.star >= 0:
            k = x[cls.star] // self.p * self.p
            if k:
                x = [(v - k) % b for v, b in zip(x, cls.blocks)]
        return offset + sum(map(mul, x, cls.strides))

    @cached_property
    def orbits(self) -> list:
        """(signature, class, representative) of every degree-s orbit, in
        index order."""
        return [
            (sig, cls, x)
            for sig, (cls, _) in self.classes[self.s].items()
            for x in product(*map(range, cls.radices))
        ]

    def cols(self, deg: int) -> list[int]:
        """The level differential from degree deg to deg + 1 as columns, one
        per degree-deg orbit O in index order: the image of the orbit sum.
        Every move is compiled at target offset 0 (`_move`) and XORed in
        shifted by the target's offset; it is kept in `_TEMPLATES` when its
        source class has at most `TEMPLATE_MAX` orbits (module docstring).

        Counting pairs (x in O, y in O') with y in supp d(x) both ways, the
        coefficient of O' is |supp d(rep O) & O'| |O| / |O'| mod 2.  Orbit
        sizes (period / p per class) differ only where a move changes its
        factor's block.  A negative factor's move may shrink them; |O| / |O'|
        is then even and the move adds nothing.  A whole-block move of a
        positive factor may grow them; its support is then a union of
        stabilizer orbits of size |O'| / |O|, so it is counted modulo the
        source cell's stabilizer gamma^period.
        """
        dst = self.classes[deg + 1]
        out = []
        for sig, (cls, _) in self.classes[deg].items():
            cols = [0] * cls.count
            for f, (sign, _, kinds) in enumerate(self.factors):
                u = sig[f]
                if sign > 0 and u < len(kinds):
                    v, turn = u + 1, kinds[u]  # turn 1, 1 - gamma: cells x and x + 1
                elif sign < 0 and u > 0:
                    v, turn = u - 1, -kinds[u - 1]  # turn -1, its transpose: y and y - 1
                else:
                    continue
                tgt, o = dst[sig[:f] + (v,) + sig[f + 1:]]
                if tgt.period < cls.period:  # no image
                    continue
                key = (cls, tgt, f, turn)
                move = _TEMPLATES.get(key)
                if move is None:
                    move = self._move(cls, tgt, f, turn)
                    if cls.count <= TEMPLATE_MAX:  # bounds the memo's memory
                        _TEMPLATES[key] = move
                for i, m in zip(*move):
                    cols[i] ^= m << o
            out.extend(cols)
        return out

    def _move(self, cls: _CellClass, tgt: _CellClass, f: int,
              turn: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The part of the differential that moves factor f of class cls into
        class tgt, compiled at target offset 0: the positions of its nonzero
        columns (one column per orbit of cls, in index order) and their
        masks, to be shifted by the target's offset.  Source cell x meets the
        cells of tgt that agree with x off f and carry at f a c of the move's
        support: x[f] and x[f] + turn for turn = +-1 (1 - gamma, its
        transpose), every c below min(tgt block, cls period) for turn = 0 (a
        whole-block move, or its transpose).

        index(tgt, .) first shifts every coordinate by k = (star coordinate)
        // p * p.  With the star off f, k is fixed by the coordinates z off f,
        so each k takes its own run of z; with the star on f, k = c // p * p,
        so each k takes its own cs.  Per k, column positions and base indices
        over z are outer sums of per-factor terms, and each x[f] adds a mask
        of its cs at offsets from the base, in closed form: two bits for a
        pair, and one mask per k for a full support (the block, or [k, k +
        p) with the star on f).  That mask is the same for every x[f], so a
        whole-block move is built at x[f] = 0 and its columns copied.

        A whole-block move with the star on f has no image when its width
        exceeds P = max(p, every other block of tgt).  The index of a target
        cell (z, c) reads c % p and z shifted by k = c // p * p, so it
        repeats in c with period P.  Width and P are powers of two, so a
        wider support covers an even number of periods, and every hit
        cancels mod 2.
        """
        p, st = self.p, tgt.star
        width = min(tgt.blocks[f], cls.period)
        if not turn and st == f and width > max((p, *tgt.blocks[:f], *tgt.blocks[f + 1:])):
            return (), ()
        cols = [0] * cls.count
        wf, step, rf = tgt.strides[f], cls.strides[f], cls.radices[f]
        if turn:  # equal blocks at f, so tgt has cls's star and radices
            bf = tgt.blocks[f]
            if st == f:  # x[f] < p: every partner but end's lies under k = 0
                end = p - 1 if turn > 0 else 0
                c = (end + turn) % bf
                moves = {
                    0: [(y * step, 1 << y * wf | (y != end) << (y + turn) % bf * wf)
                        for y in range(p)],
                    c // p * p: [(end * step, 1 << c % p * wf)],
                }
            else:
                moves = {0: [(y * step, 1 << y * wf | 1 << (y + turn) % bf * wf)
                             for y in range(rf)]}
        else:
            cs = p if st == f else width  # m has bits 0, wf, ..., (cs - 1) wf
            m = ((1 << cs * wf) - 1) // ((1 << wf) - 1)
            if st == f:
                ks = range(0, width, p)
            else:
                ks = range(0, cls.radices[st], p) if st >= 0 else (0,)
            moves = dict.fromkeys(ks, [(0, m)])  # at x[f] = 0, copied below
        terms = [(g, r, s, bg, w) for g, (r, s, bg, w) in enumerate(
                 zip(cls.radices, cls.strides, tgt.blocks, tgt.strides))
                 if g != f and bg > 1]  # a block-1 factor adds 0 to both
        for k, masks in moves.items():
            targets, bases = [0], [0]
            for g, r, s, bg, w in terms:
                vs = range(k, k + p) if g == st else range(r)
                targets = [a + v * s for a in targets for v in vs]
                bs = [(v - k) % bg * w for v in vs]
                bases = [a + b for a in bases for b in bs]
            for t, b in zip(targets, bases):
                for off, m in masks:
                    cols[t + off] ^= m << b
        if not turn:  # a whole-block move's image does not depend on x[f]
            cols = [cols[i - i // step % rf * step] for i in range(cls.count)]
        positions = tuple(i for i, m in enumerate(cols) if m)
        return positions, tuple(cols[i] for i in positions)


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
        sig, cls, x = hi.orbits[b]
        return (1 << lo.index(sig, x)) | (1 << lo.index(sig, _shift(cls, x, hi.p)))

    return image


def _tr(lo: _LevelSlice, hi: _LevelSlice):
    """Transfer from level j-1 to j: O_{j-1}(x) -> O_j(x), or 0 when
    O_{j-1}(x + p_j) is the same orbit."""

    def image(b: int) -> int:
        sig, cls, x = lo.orbits[b]
        if lo.index(sig, _shift(cls, x, hi.p)) == b:
            return 0
        return 1 << hi.index(sig, x)

    return image


def _gamma(src: _LevelSlice, tgt: _LevelSlice):
    """The Weyl generator, src and tgt one slice: O(x) -> O(x + 1)."""

    def image(b: int) -> int:
        sig, cls, x = src.orbits[b]
        return 1 << tgt.index(sig, _shift(cls, x, 1))

    return image


def _include(src: _LevelSlice, tgt: _LevelSlice):
    """Multiplication by a_alpha, for tgt the slice of src's factors plus the
    dual alpha pair `_DUAL_ALPHA` at the same level: the inclusion of the
    model as the pair's factor-degree-0 cell,
    O(sig, x) -> O(sig + (0,), x + (0,))."""

    def image(b: int) -> int:
        sig, _, x = src.orbits[b]
        return 1 << tgt.index(sig + (0,), (*x, 0))

    return image


def _orbit_induced(src: _LevelSlice, tgt: _LevelSlice, chain_map) -> list[int]:
    """Matrix on cohomology of chain_map from slice src to slice tgt.  Both
    reducers are built, even when src's group is 0."""
    image, red = chain_map(src, tgt), tgt.reducer
    return [red.express(reduce(xor, map(image, _bits(rep)), 0)) for rep in src.reducer.reps]


# -- the oracle ---------------------------------------------------------------


class MackeyAnswer(namedtuple("MackeyAnswer", "n degree level_dims res tr gamma")):
    """The Mackey functor in one Degree over C_{2^n}: the dimensions at
    levels 0..n, the column lists of restriction and transfer between
    adjacent levels, and of the Weyl action gamma at each level.  A named
    tuple, with no order."""

    __slots__ = ()

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

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


# The dual alpha cell pair: smashed on, it takes the model of d to that of d - alpha.
_DUAL_ALPHA = _Factor(-1, (1, 2), (0,))


def _slices(n: int, d: Degree, levels, budget: int | None, extra=()) -> list[list[_LevelSlice]]:
    """Per model, one `_LevelSlice` per level in `levels`.  The models are
    that of d and, for each factor in `extra` (none, or the dual alpha pair
    `_DUAL_ALPHA`, one negative move), its smash with that factor.

    The one emptiness rule comes first, on the coefficients: d's model has
    cells in degrees -dim N..dim P, and its smash with the dual alpha pair
    in -dim N - 1..dim P.  A degree s outside the widest of these has no
    cells in any model: its slices list none, no factor is built, and it is
    0 wide and never refused.  Otherwise the one budget rule is decided
    before any slice is built, so a refused degree builds nothing:
    refuse d when the widest of degrees s-1..s+1 over the models at the
    lowest level in `levels` exceeds the budget.  Orbit counts only grow as
    the level drops."""
    check_group(n, d)
    s = -d.t
    net = d.c_alpha + 2 * sum(d.c_lambda)
    span = abs(d.c_alpha) + 2 * sum(map(abs, d.c_lambda))  # net -+ span = -2 dim N, 2 dim P
    if not (net - span) // 2 - len(extra) <= s <= (net + span) // 2:
        models = [_Model(n, [], s)] * (1 + len(extra))  # s != 0: lists nothing
    else:
        factors = _factors(n, d)
        models = [_Model(n, factors, s)] + [_Model(n, factors + [f], s) for f in extra]
        cap = DEFAULT_BUDGET if budget is None else budget
        p = 1 << (n - min(levels))
        widest = max([max(model.table(p)[1].values()) for model in models])
        if widest > cap:
            raise BudgetExceededError(d, widest, cap)
    return [[_LevelSlice(model, j) for j in levels] for model in models]


def oracle_top(n: int, d: Degree, budget: int | None = None) -> tuple[int, int]:
    """Top-level dimension at degree d and the width of its slice, the widest
    of degrees s-1..s+1 in orbits (0 when s has no cells): d is refused, with
    this width predicted, exactly when it exceeds the budget."""
    [[top]] = _slices(n, d, [n], budget)
    return top.reducer.h_dim, max(top.dims.values())


def oracle_top_dim(n: int, d: Degree, budget: int | None = None) -> int:
    """Top-level dimension of the graded Mackey functor at degree d."""
    return oracle_top(n, d, budget)[0]


def oracle_pi(n: int, d: Degree, budget: int | None = None) -> MackeyAnswer:
    """Full Mackey functor at degree d: levelwise dimensions with induced
    restriction, transfer and Weyl-generator matrices on cohomology.

    Level 0 is the underlying non-equivariant sphere of dimension |d|
    (`reps.underlying_dim`), whose mod-2 group is F_2 at |d| = 0 and 0
    otherwise.  So for |d| != 0 only levels 1..n are built, and the budget
    is checked at level 1: level 0 is 0, res into it is one zero column per
    level-1 class, and tr out of it and its gamma have no columns.  At
    |d| = 0 every level is built and the budget is checked at level 0."""
    low = 1 if reps.underlying_dim(d) else 0
    [slices] = _slices(n, d, range(low, n + 1), budget)
    dims = [sl.reducer.h_dim for sl in slices]
    res = [_orbit_induced(hi, lo, _res) for lo, hi in zip(slices, slices[1:])]
    tr = [_orbit_induced(lo, hi, _tr) for lo, hi in zip(slices, slices[1:])]
    gamma = [_orbit_induced(sl, sl, _gamma) for sl in slices]
    if low:
        res.insert(0, [0] * dims[0])
        dims.insert(0, 0)
        tr.insert(0, [])
        gamma.insert(0, [])
    return MackeyAnswer(n, d, dims, res, tr, gamma)


# -- multiplication by the alpha Euler class ----------------------------------


def mult_a_alpha(n: int, d: Degree, j: int, budget: int | None = None):
    """Induced map on level-j cohomology, pi_d -> pi_{d-alpha}, as
    (columns, source reducer, target reducer)."""
    if not 0 <= j <= n:
        raise DegreeError(f"level j={j} out of range for n={n}")
    [src], [tgt] = _slices(n, d, [j], budget, (_DUAL_ALPHA,))
    return _orbit_induced(src, tgt, _include), src.reducer, tgt.reducer


def verify_lemma_kernel(n: int, d: Degree, budget: int | None = None) -> dict:
    """Check ker(a_alpha) = im(tr) on pi_d and im(a_alpha) = ker(res) on
    pi_{d-alpha}, at the top level."""
    [src, src_sub], [tgt, tgt_sub] = _slices(n, d, [n, n - 1], budget, (_DUAL_ALPHA,))
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
