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

Every entry point (`oracle_top_dim`, `oracle_pi`, `predict_cols`,
`mult_a_alpha`, `verify_lemma_kernel`) is level-direct: `_LevelSlice`
builds the level-j fixed subcomplex of a factor list in the three cochain
degrees s-1, s, s+1 the answer reads, straight from orbit data.  A cell of
the tensor model is a tuple of factor degrees plus one coordinate in Z/B
per factor (B the factor's block, 1 in factor degree 0); gamma adds 1 to
every coordinate, and level j is the action of gamma^(2^(n-j)).  A
differential is emitted column by column, in the column-major form `gf2`
takes, as the image of each source orbit sum: the coefficient of a target
orbit O' in d(sum O) is the number of cells of O' that d(rep O) hits, times
|O| / |O'|, mod 2, so no bottom-level vector is formed; a factor's move adds
bit masks fixed by its differential's kind (nu and N hit the whole block,
1 - gamma and its transpose two cells).  The levels of one model share one
enumeration of factor-degree signatures (`_LevelSlice.at_level`); a degree s
outside the interval of degrees with cells builds nothing.  res, tr, gamma
and multiplication by a_alpha (the inclusion of the model into its smash
with one dual alpha cell pair) act on orbit indices in closed form.  The
budget bounds the widest slice an entry point builds.

The bottom-level route, which stores the whole complex at the trivial-
subgroup level with the generator's permutation action, lives in the test
suite (`tests/reference_oracle.py`) as the independent reference this
builder is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import mul

from .gf2 import CohomologyReducer, columns_to_bitstrings, nullspace, rank
from .reps import Degree
from . import reps

DEFAULT_BUDGET = 20000


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
    order.  Factor f contributes sign * u for u in 0..length, so the degrees
    with cells form one interval; when it misses s, nothing is enumerated."""
    by_degree: dict[int, list] = {deg: [] for deg in (s - 1, s, s + 1)}
    lo = -sum(length for _, length, sign in factors if sign < 0)
    if lo <= s <= lo + sum(length for _, length, _ in factors):
        ranges = [range(length + 1) for _, length, _ in factors]
        signed = [[sign * u for u in r] for r, (_, _, sign) in zip(ranges, factors)]
        degrees = _outer_sums(0, signed)
        for sig, deg in zip(product(*ranges), degrees):
            if deg in by_degree:
                by_degree[deg].append(sig)
    return by_degree


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
        big = max(blocks, default=1)
        self.star = blocks.index(big) if big > p else -1
        self.period = max(big, p)  # gamma^period fixes every cell; orbit size period / p
        self.radices = tuple(p if f == self.star else b for f, b in enumerate(blocks))
        strides, step = [], 1
        for r in reversed(self.radices):
            strides.append(step)
            step *= r
        self.strides = tuple(reversed(strides))
        self.offset = offset
        self.count = step


class _LevelSlice:
    """Level-j fixed subcomplex of the tensor model of `factors` (as built by
    `_factors`, a degree d giving s = -t), in cochain degrees s-1, s and s+1
    only, with orbit-sum bases.

    dims[deg] is the orbit count of degree deg; at level 0 every orbit is a
    single cell, so those are the bottom-level widths.  cols(deg) is the
    differential deg -> deg + 1 in the column-major form `gf2` takes: one
    column per degree-deg orbit sum, with the |O| / |O'| rule of the module
    docstring applied per pair of classes.
    """

    def __init__(self, n: int, factors: list[tuple[int, int, int]], s: int, j: int):
        self._build(n, factors, s, _signatures(factors, s), j)

    def at_level(self, j: int) -> _LevelSlice:
        """The slice of the same model at level j: the signatures are shared,
        only the class tables depend on the level."""
        sl = type(self).__new__(type(self))
        sl._build(self.n, self.factors, self.s, self.signatures, j)
        return sl

    def _build(self, n: int, factors, s: int, signatures, j: int) -> None:
        self.n, self.factors, self.s, self.signatures = n, factors, s, signatures
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

    def cols(self, deg: int) -> list[int]:
        """The level differential from degree deg to deg + 1 as columns, one
        per degree-deg orbit O in index order: the image of the orbit sum.

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
        out = []
        for sig, cls in self.classes[deg].items():
            cols = [0] * cls.count
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
                if tgt.period >= cls.period:
                    self._add_move(cols, cls, tgt, f, turn)
            out.extend(cols)
        return out

    def _add_move(self, cols, cls: _CellClass, tgt: _CellClass, f: int, turn: int) -> None:
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
        the star on f), two bits for a pair.  With equal radices, hence
        strides, and k = 0, the base is the position (the masks carry tgt's
        offset).
        """
        p, st, o = self.p, tgt.star, tgt.offset
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
        for k, masks in moves.items():
            direct = same and not k
            targets, bases = [0], [0]
            for g, (r, s, bg, w) in enumerate(zip(cls.radices, cls.strides, tgt.blocks, tgt.strides)):
                if g != f and bg > 1:  # a block-1 factor adds 0 to both
                    lo, hi = (k, k + p) if g == st else (0, r)
                    targets = [a + t for a in targets for t in range(lo * s, hi * s, s)]
                    if not direct:
                        bs = [(v - k) % bg * w for v in range(lo, hi)]
                        bases = [a + b for a in bases for b in bs]
            for t, b in zip(targets, targets if direct else bases):
                for off, m in masks:
                    cols[t + off] ^= m << b

    def reducer(self) -> CohomologyReducer:
        s = self.s
        return CohomologyReducer(self.dims[s], self.cols(s - 1), self.cols(s))


def _outer_sums(start: int, arrays) -> list[int]:
    """start + a_1[z_1] + ... + a_m[z_m] for every z, in product order."""
    out = [start]
    for arr in arrays:
        out = [o + a for o in out for a in arr]
    return out


def _shift(cls: _CellClass, x, m: int) -> list[int]:
    """gamma^m on cell coordinates."""
    return [(v + m) % b for v, b in zip(x, cls.blocks)]


# Chain maps on degree-s orbits, each given as image(b): the target vector of
# source orbit b.  hi and lo are the slices of one model at levels j and j-1.


def _res(hi: _LevelSlice, lo: _LevelSlice):
    """Restriction from level j to j-1: O_j(x) -> O_{j-1}(x) + O_{j-1}(x + p_j),
    one term if they coincide."""
    s = hi.s

    def image(b: int) -> int:
        cls, x = hi.orbits[b]
        lo_cls = lo.classes[s][cls.sig]
        return (1 << lo.index(lo_cls, x)) | (1 << lo.index(lo_cls, _shift(cls, x, hi.p)))

    return image


def _tr(hi: _LevelSlice, lo: _LevelSlice):
    """Transfer from level j-1 to j: O_{j-1}(x) -> O_j(x), or 0 when
    O_{j-1}(x + p_j) is the same orbit."""
    s = hi.s

    def image(b: int) -> int:
        cls, x = lo.orbits[b]
        if lo.index(cls, _shift(cls, x, hi.p)) == b:
            return 0
        return 1 << hi.index(hi.classes[s][cls.sig], x)

    return image


def _gamma(sl: _LevelSlice):
    """The Weyl generator: O(x) -> O(x + 1)."""

    def image(b: int) -> int:
        cls, x = sl.orbits[b]
        return 1 << sl.index(cls, _shift(cls, x, 1))

    return image


def _include(src: _LevelSlice, tgt: _LevelSlice):
    """Multiplication by a_alpha, for tgt the slice of src's factors plus one
    dual alpha pair (2, 1, -1) at the same level: the inclusion of the model
    as the pair's factor-degree-0 cell, O(sig, x) -> O(sig + (0,), x + (0,))."""
    s = src.s

    def image(b: int) -> int:
        cls, x = src.orbits[b]
        return 1 << tgt.index(tgt.classes[s][cls.sig + (0,)], (*x, 0))

    return image


def _orbit_induced(red_src: CohomologyReducer, red_tgt: CohomologyReducer, image) -> list[int]:
    """Matrix on cohomology of a chain map given by image(b), the target
    vector of source orbit b."""
    cols = []
    for rep in red_src.reps:
        v = 0
        for b in _bits(rep):
            v ^= image(b)
        cols.append(red_tgt.express(v))
    return cols


# -- the oracle ---------------------------------------------------------------


@dataclass
class MackeyAnswer:
    n: int
    degree: Degree
    level_dims: list[int]
    res: list[list[int]]
    tr: list[list[int]]
    gamma: list[list[int]]

    @property
    def top_dim(self) -> int:
        return self.level_dims[self.n]

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


def predict_cols(n: int, d: Degree) -> int:
    """Width of the widest slice `oracle_pi` builds: the largest level-0
    orbit count, that is, bottom-level cell count, among degrees s-1..s+1,
    or 0 when degree s is empty."""
    return max(_LevelSlice(n, _factors(n, d), -d.t, 0).dims.values())


def _check_budget(d: Degree, width: int, budget: int | None) -> None:
    """Refuse a computation whose widest matrix would have `width` columns."""
    cap = DEFAULT_BUDGET if budget is None else budget
    if width > cap:
        raise BudgetExceededError(d, width, cap)


def _widest(slices) -> int:
    return max(w for sl in slices for w in sl.dims.values())


def top_slice(n: int, d: Degree, budget: int | None = None) -> _LevelSlice:
    """The level-n slice `oracle_top_dim` reads, checked against the budget:
    the widest of its three degrees counts, and a slice whose degree s is
    empty is not checked (it has no classes and the answer is 0)."""
    sl = _LevelSlice(n, _factors(n, d), -d.t, n)
    if sl.dims[sl.s]:
        _check_budget(d, max(sl.dims.values()), budget)
    return sl


def oracle_top_dim(n: int, d: Degree, budget: int | None = None) -> int:
    """Top-level dimension of the graded Mackey functor at degree d: h_dim of
    the one-pass reducer of the budget-checked `top_slice`, or 0 when its
    degree s is empty (no differential can be built into it)."""
    sl = top_slice(n, d, budget)
    if not sl.dims[sl.s]:
        return 0
    return sl.reducer().h_dim


def oracle_pi(n: int, d: Degree, budget: int | None = None) -> MackeyAnswer:
    """Full Mackey functor at degree d: levelwise dimensions with induced
    restriction, transfer and Weyl-generator matrices on cohomology.

    The n + 1 level slices share one signature enumeration.  The budget
    bounds the level-0 width, the widest level built; when degree s is empty
    nothing is built or checked and every group is 0."""
    bottom = _LevelSlice(n, _factors(n, d), -d.t, 0)
    if not bottom.dims[bottom.s]:
        return MackeyAnswer(n, d, [0] * (n + 1), [[] for _ in range(n)],
                            [[] for _ in range(n)], [[] for _ in range(n + 1)])
    _check_budget(d, max(bottom.dims.values()), budget)
    slices = [bottom] + [bottom.at_level(j) for j in range(1, n + 1)]
    reducers = [sl.reducer() for sl in slices]
    res_mats, tr_mats, gamma_mats = [], [], []
    for j in range(1, n + 1):
        hi, lo = slices[j], slices[j - 1]
        res_mats.append(_orbit_induced(reducers[j], reducers[j - 1], _res(hi, lo)))
        tr_mats.append(_orbit_induced(reducers[j - 1], reducers[j], _tr(hi, lo)))
    for sl, red in zip(slices, reducers):
        gamma_mats.append(_orbit_induced(red, red, _gamma(sl)))
    return MackeyAnswer(n, d, [r.h_dim for r in reducers], res_mats, tr_mats, gamma_mats)


# -- multiplication by the alpha Euler class ----------------------------------


def _alpha_slices(n: int, d: Degree, j: int) -> tuple[_LevelSlice, _LevelSlice]:
    """Level-j (source, target) slices of multiplication by a_alpha from
    degree d to d - alpha: the target model is the source smashed with one
    dual alpha cell pair, factor (2, 1, -1)."""
    factors = _factors(n, d)
    return _LevelSlice(n, factors, -d.t, j), _LevelSlice(n, factors + [(2, 1, -1)], -d.t, j)


def mult_a_alpha(n: int, d: Degree, j: int, budget: int | None = None):
    """Induced map on level-j cohomology: pi_d -> pi_{d-alpha}.

    Returns (columns, source reducer, target reducer).  The budget bounds
    the widest of the two slices, the target's.
    """
    src, tgt = _alpha_slices(n, d, j)
    _check_budget(d, _widest([src, tgt]), budget)
    red_s, red_t = src.reducer(), tgt.reducer()
    return _orbit_induced(red_s, red_t, _include(src, tgt)), red_s, red_t


def verify_lemma_kernel(n: int, d: Degree, budget: int | None = None) -> dict:
    """Check ker(a_alpha) = im(tr) on pi_d and im(a_alpha) = ker(res) on
    pi_{d-alpha}, at the top level.  The budget bounds the widest of the
    four slices, the target's at level n-1."""
    src_top, tgt_top = _alpha_slices(n, d, n)
    src_sub, tgt_sub = src_top.at_level(n - 1), tgt_top.at_level(n - 1)
    _check_budget(d, _widest([src_top, tgt_top, src_sub, tgt_sub]), budget)
    red_top_s, red_top_t = src_top.reducer(), tgt_top.reducer()
    red_sub_s, red_sub_t = src_sub.reducer(), tgt_sub.reducer()
    a_cols = _orbit_induced(red_top_s, red_top_t, _include(src_top, tgt_top))
    tr_cols = _orbit_induced(red_sub_s, red_top_s, _tr(src_top, src_sub))
    res_cols = _orbit_induced(red_top_t, red_sub_t, _res(tgt_top, tgt_sub))
    return _lemma_report(d, red_top_s.h_dim, red_top_t.h_dim, a_cols, tr_cols, res_cols)


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
