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

The public entry points (`oracle_top_dim`, `oracle_pi`, `predict_cols`)
are level-direct: `_LevelSlice` builds the level-j fixed subcomplex in the
three cochain degrees s-1, s, s+1 the answer reads, straight from orbit
data.  A cell of the tensor model is a tuple of factor degrees plus one
coordinate in Z/B per factor (B the factor's block, 1 in factor degree 0);
gamma adds 1 to every coordinate, and level j is the action of
gamma^(2^(n-j)).  A differential row for a target orbit is the parity of
the transposed differential of its representative over each source orbit,
so no bottom-level vector is formed; res, tr and gamma act on orbit
indices in closed form.

The bottom-level route (`sphere_complex`, `smash`, `dualize`, `_Level`,
`level_diff`, `_induced`) stores the whole complex at the trivial-subgroup
level with the generator's permutation action.  It is the independent
reference the level-direct builder is tested against, and it still carries
multiplication by a_alpha.  The smash-of-one-copy-each route and the
minimal models agree levelwise (tested), which also pins the orbit-sum
convention for the first differential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import mul

from .gf2 import CohomologyReducer, Span, columns_to_bitstrings, nullspace, rank
from .reps import Degree, DegreeError, make_degree
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


# -- orbit Mackey data (one permutation module) ------------------------------


class OrbitModule:
    """The fixed-point Mackey functor of F_2[G/C_{2^k}] for G = C_{2^n}.

    Level j has one basis vector per C_{2^j}-orbit of cosets, identified
    with G/C_{2^max(j,k)}.  gamma cycles the basis, restriction to the next
    level down is coset doubling (or identity at levels below k), and
    transfer is the coset projection (zero below k).
    """

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise DegreeError(f"stabilizer exponent {k} out of range for n={n}")
        self.n = n
        self.k = k

    def level_dim(self, j: int) -> int:
        return 1 << (self.n - max(j, self.k))

    def gamma(self, j: int) -> list[int]:
        dim = self.level_dim(j)
        return [1 << ((i + 1) % dim) for i in range(dim)]

    def res(self, j: int) -> list[int]:
        """Columns of the inclusion of level-j fixed points into level j-1."""
        dim_hi = self.level_dim(j)
        if dim_hi == self.level_dim(j - 1):
            return [1 << i for i in range(dim_hi)]
        # each level-j coset is the union of two refinements: i and i + dim_hi
        return [(1 << i) | (1 << (i + dim_hi)) for i in range(dim_hi)]

    def tr(self, j: int) -> list[int]:
        """Columns of the transfer from level j-1 up to level j."""
        dim_hi, dim_lo = self.level_dim(j), self.level_dim(j - 1)
        if dim_hi == dim_lo:
            return [0] * dim_lo
        return [1 << (i % dim_hi) for i in range(dim_lo)]


# -- cochain complexes at the bottom level ------------------------------------


@dataclass
class SphereComplex:
    """Bottom-level cochain complex with the generator's permutation action.

    dims[s] is the coordinate count in degree s; gamma[s][i] is the index
    gamma sends coordinate i to; diff[s][i] is the bitmask image of the
    i-th basis vector in degree s+1 (always present, zero when there is no
    higher degree).
    """

    n: int
    dims: dict[int, int]
    gamma: dict[int, list[int]]
    diff: dict[int, list[int]]
    pair_offsets: dict | None = None
    _levels: dict = field(default_factory=dict, repr=False)

    def degrees(self) -> list[int]:
        return sorted(self.dims)

    def total_cols(self) -> int:
        return sum(self.dims.values())

    def validate(self) -> None:
        """d after d vanishes and every differential commutes with gamma."""
        for s in self.degrees():
            for i, col in enumerate(self.diff[s]):
                if s + 1 in self.diff:
                    img = 0
                    for b in _bits(col):
                        img ^= self.diff[s + 1][b]
                    if img:
                        raise AssertionError(f"d o d != 0 at degree {s}, basis {i}")
                elif col:
                    raise AssertionError(f"differential out of top degree {s}")
                if s + 1 in self.dims:
                    lhs = _permute(col, self.gamma[s + 1])
                    rhs = self.diff[s][self.gamma[s][i]]
                    if lhs != rhs:
                        raise AssertionError(f"gamma-naturality fails at degree {s}")


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _permute(mask: int, perm: list[int]) -> int:
    out = 0
    for b in _bits(mask):
        out |= 1 << perm[b]
    return out


def unit_complex(n: int) -> SphereComplex:
    return SphereComplex(n, {0: 1}, {0: [0]}, {0: [0]})


def _rep_complex(n: int, k: int, copies: int) -> SphereComplex:
    """Minimal alternating model for `copies` copies of a two-dimensional
    rotation with stabilizer exponent k (use k = n-1 with half-length for
    alpha copies via _alpha_complex)."""
    block = 1 << (n - k)
    dims = {0: 1}
    gamma = {0: [0]}
    diff: dict[int, list[int]] = {}
    top = 2 * copies
    for s in range(1, top + 1):
        dims[s] = block
        gamma[s] = [(i + 1) % block for i in range(block)]
    full = (1 << block) - 1
    diff[0] = [full]
    for s in range(1, top):
        if s % 2:  # 1 - gamma
            diff[s] = [(1 << i) ^ (1 << ((i + 1) % block)) for i in range(block)]
        else:  # orbit norm
            diff[s] = [full] * block
    diff[top] = [0] * block
    return SphereComplex(n, dims, gamma, diff)


def _alpha_complex(n: int, copies: int) -> SphereComplex:
    dims = {0: 1}
    gamma = {0: [0]}
    diff: dict[int, list[int]] = {}
    for s in range(1, copies + 1):
        dims[s] = 2
        gamma[s] = [1, 0]
    diff[0] = [0b11]
    for s in range(1, copies):
        diff[s] = [0b11, 0b11]  # 1 + gamma, also the norm, on a two-point orbit
    diff[copies] = [0] * 2
    return SphereComplex(n, dims, gamma, diff)


def sphere_complex(n: int, v: Degree) -> SphereComplex:
    """Reduced cochain model of the sphere of an actual representation."""
    if v.n != n:
        raise DegreeError(f"representation is over n={v.n}, expected {n}")
    if v.t != 0:
        raise DegreeError("sphere_complex takes t = 0; shift handles the trivial part")
    if v.c_alpha < 0 or any(c < 0 for c in v.c_lambda):
        raise DegreeError("sphere_complex needs nonnegative coefficients")
    out = unit_complex(n)
    for i, c in enumerate(v.c_lambda):
        if c > 0:
            out = smash(out, _rep_complex(n, i, c))
    if v.c_alpha > 0:
        out = smash(out, _alpha_complex(n, v.c_alpha))
    return out


def sphere_complex_smash_route(n: int, v: Degree) -> SphereComplex:
    """Same sphere, built by smashing one-copy models; cross-check path."""
    out = unit_complex(n)
    for i, c in enumerate(v.c_lambda):
        for _ in range(c):
            out = smash(out, _rep_complex(n, i, 1))
    for _ in range(v.c_alpha):
        out = smash(out, _alpha_complex(n, 1))
    return out


def smash(c1: SphereComplex, c2: SphereComplex) -> SphereComplex:
    """Tensor complex; signs are vacuous over GF(2)."""
    if c1.n != c2.n:
        raise DegreeError("smash needs complexes over the same group")
    dims: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}
    for s1 in c1.degrees():
        for s2 in c2.degrees():
            s = s1 + s2
            offsets[(s1, s2)] = dims.get(s, 0)
            dims[s] = dims.get(s, 0) + c1.dims[s1] * c2.dims[s2]
    gamma = {s: [0] * dim for s, dim in dims.items()}
    diff = {s: [0] * dim for s, dim in dims.items()}
    for (s1, s2), off in offsets.items():
        d1, d2 = c1.dims[s1], c2.dims[s2]
        g1, g2 = c1.gamma[s1], c2.gamma[s2]
        for i in range(d1):
            base = off + i * d2
            for j in range(d2):
                gamma[s1 + s2][base + j] = offsets[(s1, s2)] + g1[i] * d2 + g2[j]
        for i in range(d1):
            for j in range(d2):
                col = 0
                if (s1 + 1, s2) in offsets:
                    o = offsets[(s1 + 1, s2)]
                    for b in _bits(c1.diff[s1][i]):
                        col |= 1 << (o + b * d2 + j)
                if (s1, s2 + 1) in offsets:
                    o = offsets[(s1, s2 + 1)]
                    d2n = c2.dims[s2 + 1]
                    for b in _bits(c2.diff[s2][j]):
                        col |= 1 << (o + i * d2n + b)
                diff[s1 + s2][off + i * d2 + j] = col
    return SphereComplex(c1.n, dims, gamma, diff, pair_offsets=offsets)


def dualize(c: SphereComplex) -> SphereComplex:
    """Negate degrees and transpose differentials in the coset basis.

    Permutation actions are orthogonal, so the contragredient action is the
    same permutation; orbit data (hence res and tr) is unchanged.
    """
    dims = {-s: d for s, d in c.dims.items()}
    gamma = {-s: list(c.gamma[s]) for s in c.dims}
    diff = {-s: [0] * d for s, d in c.dims.items()}
    for s in c.degrees():
        if s + 1 not in c.dims:
            continue
        for i, col in enumerate(c.diff[s]):
            for b in _bits(col):
                diff[-(s + 1)][b] |= 1 << i
    return SphereComplex(c.n, dims, gamma, diff)


# -- levels -------------------------------------------------------------------


class _Level:
    """Fixed subcomplex of one degree at one subgroup level."""

    __slots__ = ("orbits", "rep_to_index", "dim")

    def __init__(self, perm: list[int], power: int):
        seen = [False] * len(perm)
        self.orbits: list[int] = []
        self.rep_to_index: dict[int, int] = {}
        for start in range(len(perm)):
            if seen[start]:
                continue
            mask = 0
            i = start
            while not seen[i]:
                seen[i] = True
                mask |= 1 << i
                j = i
                for _ in range(power):
                    j = perm[j]
                i = j
            self.rep_to_index[start] = len(self.orbits)
            self.orbits.append(mask)
        self.dim = len(self.orbits)

    def to_level(self, mask: int) -> int:
        """Express a fixed vector in the orbit-sum basis."""
        out = 0
        for rep, idx in self.rep_to_index.items():
            if (mask >> rep) & 1:
                out |= 1 << idx
        return out

    def to_ambient(self, vec: int) -> int:
        out = 0
        for b in _bits(vec):
            out ^= self.orbits[b]
        return out


def _level(c: SphereComplex, j: int, s: int) -> _Level:
    key = (j, s)
    if key not in c._levels:
        power = 1 << (c.n - j)
        c._levels[key] = _Level(c.gamma[s], power)
    return c._levels[key]


def level_diff(c: SphereComplex, j: int, s: int) -> list[int]:
    """Columns of the degree-s differential restricted to level j."""
    src = _level(c, j, s)
    if s + 1 not in c.dims:
        return [0] * src.dim
    tgt = _level(c, j, s + 1)
    cols = []
    for mask in src.orbits:
        img = 0
        for b in _bits(mask):
            img ^= c.diff[s][b]
        cols.append(tgt.to_level(img))
    return cols


def level_cohomology(c: SphereComplex, j: int, s: int) -> CohomologyReducer:
    if s not in c.dims:
        return CohomologyReducer(0, [], [])
    src = _level(c, j, s)
    d_out = level_diff(c, j, s)
    d_in = level_diff(c, j, s - 1) if s - 1 in c.dims else []
    return CohomologyReducer(src.dim, d_in, d_out)


def _induced(
    c_src: SphereComplex,
    c_tgt: SphereComplex,
    j_src: int,
    j_tgt: int,
    s: int,
    red_src: CohomologyReducer,
    red_tgt: CohomologyReducer,
    ambient_map,
) -> list[int]:
    """Matrix (columns over source cohomology basis) of a chain-level map
    given by `ambient_map` on bottom-level vectors."""
    if s not in c_src.dims or s not in c_tgt.dims:
        return [0] * red_src.h_dim
    lv_src = _level(c_src, j_src, s)
    lv_tgt = _level(c_tgt, j_tgt, s)
    cols = []
    for rep in red_src.reps:
        img = ambient_map(lv_src.to_ambient(rep))
        cols.append(red_tgt.express(lv_tgt.to_level(img)))
    return cols


def _relative_norm(c: SphereComplex, s: int, j: int):
    """The transfer from level j-1 to level j on bottom-level vectors of
    degree s: v -> v + gamma^(2^(n-j)) v."""
    power = 1 << (c.n - j)
    perm = c.gamma[s]

    def norm(v: int) -> int:
        w = v
        for _ in range(power):
            w = _permute(w, perm)
        return v ^ w

    return norm


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


def _factor_d(block: int, u: int, x: int):
    """Support of a minimal factor's differential from factor degree u to
    u + 1, applied to the cell with coordinate x."""
    if u % 2:  # 1 - gamma (on alpha's two points this is also the norm)
        return (x, (x + 1) % block)
    return range(block)  # nu at u = 0, the norm above


def _factor_d_t(block: int, u: int, y: int):
    """Support of the transpose of that differential, applied to the cell
    with coordinate y in factor degree u + 1."""
    if u == 0:
        return (0,)
    if u % 2:
        return (y, (y - 1) % block)
    return range(block)


class _CellClass:
    """The orbits of one factor-degree signature at one level.

    Representatives fix the coordinate of the first factor with the largest
    block to [0, p) when that block exceeds p; every other coordinate is
    free.  Orbit index = offset + mixed radix of the representative.
    """

    __slots__ = ("sig", "blocks", "star", "radices", "strides", "offset", "count")

    def __init__(self, sig: tuple[int, ...], blocks: tuple[int, ...], p: int, offset: int):
        self.sig = sig
        self.blocks = blocks
        big = max(blocks, default=1)
        self.star = blocks.index(big) if big > p else -1
        self.radices = tuple(p if f == self.star else b for f, b in enumerate(blocks))
        strides, step = [], 1
        for r in reversed(self.radices):
            strides.append(step)
            step *= r
        self.strides = tuple(reversed(strides))
        self.offset = offset
        self.count = step


class _LevelSlice:
    """Level-j fixed subcomplex of the model of degree d, in cochain degrees
    s-1, s and s+1 only (s = -t), with orbit-sum bases.

    dims[deg] is the orbit count of degree deg; at level 0 every orbit is a
    single cell, so those are the bottom-level widths.
    """

    def __init__(self, n: int, d: Degree, j: int):
        self.factors = _factors(n, d)
        self.s = -d.t
        self.p = 1 << (n - j)
        self.classes: dict[int, dict[tuple[int, ...], _CellClass]] = {}
        self.dims: dict[int, int] = {}
        ranges = [range(length + 1) for _, length, _ in self.factors]
        signs = [sign for _, _, sign in self.factors]
        by_degree: dict[int, list] = {deg: [] for deg in (self.s - 1, self.s, self.s + 1)}
        for sig in product(*ranges):
            deg = sum(sign * u for sign, u in zip(signs, sig))
            if deg in by_degree:
                by_degree[deg].append(sig)
        for deg, sigs in by_degree.items():
            table, offset = {}, 0
            for sig in sigs:
                blocks = tuple(b if u else 1 for (b, _, _), u in zip(self.factors, sig))
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

    def cells(self, deg: int):
        """(class, representative) of every orbit of degree deg, in index order."""
        for cls in self.classes[deg].values():
            for x in product(*map(range, cls.radices)):
                yield cls, x

    def rows(self, deg: int) -> list[int]:
        """Rows of the level differential from degree deg to deg + 1: one per
        target orbit O', with bit O set when |supp d^T(rep O') & O| is odd."""
        src = self.classes[deg]
        out = []
        for sig, cls in self.classes[deg + 1].items():
            moves = []
            for f, (block, length, sign) in enumerate(self.factors):
                u = sig[f]
                if sign > 0 and u > 0:
                    pre = sig[:f] + (u - 1,) + sig[f + 1:]
                    moves.append((f, src[pre], _factor_d_t, block, u - 1))
                elif sign < 0 and u < length:
                    pre = sig[:f] + (u + 1,) + sig[f + 1:]
                    moves.append((f, src[pre], _factor_d, block, u))
            for y in product(*map(range, cls.radices)):
                row = 0
                for f, pre_cls, support, block, u in moves:
                    x = list(y)
                    for c in support(block, u, y[f]):
                        x[f] = c
                        row ^= 1 << self.index(pre_cls, x)
                out.append(row)
        return out

    def reducer(self) -> CohomologyReducer:
        s = self.s
        return CohomologyReducer(
            self.dims[s],
            _transpose(self.rows(s - 1), self.dims[s - 1]),
            _transpose(self.rows(s), self.dims[s]),
        )


def _transpose(rows: list[int], width: int) -> list[int]:
    cols = [0] * width
    for i, row in enumerate(rows):
        for b in _bits(row):
            cols[b] |= 1 << i
    return cols


def _shift(cls: _CellClass, x, m: int) -> list[int]:
    """gamma^m on cell coordinates."""
    return [(v + m) % b for v, b in zip(x, cls.blocks)]


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


def split_degree(d: Degree) -> tuple[Degree, Degree]:
    """Disjoint-support actual representations with d = t + P - N."""
    pos_a, neg_a = max(d.c_alpha, 0), max(-d.c_alpha, 0)
    pos_l = tuple(max(c, 0) for c in d.c_lambda)
    neg_l = tuple(max(-c, 0) for c in d.c_lambda)
    return (
        make_degree(d.n, 0, pos_a, pos_l),
        make_degree(d.n, 0, neg_a, neg_l),
    )


def _model(n: int, d: Degree) -> tuple[SphereComplex, int]:
    p, nn = split_degree(d)
    c = smash(sphere_complex(n, p), dualize(sphere_complex(n, nn)))
    return c, -d.t


def predict_cols(n: int, d: Degree) -> int:
    """Largest bottom-level coordinate count among the three degrees used:
    the level-0 orbit counts of the builder's own size table."""
    return max(_LevelSlice(n, d, 0).dims.values())


def _check_budget(n: int, d: Degree, budget: int | None) -> None:
    cap = DEFAULT_BUDGET if budget is None else budget
    predicted = predict_cols(n, d)
    if predicted > cap:
        raise BudgetExceededError(d, predicted, cap)


def oracle_top_dim(n: int, d: Degree, budget: int | None = None) -> int:
    """Top-level dimension of the graded Mackey functor at degree d."""
    _check_budget(n, d, budget)
    sl = _LevelSlice(n, d, n)
    s = sl.s
    if not sl.dims[s]:
        return 0
    return sl.dims[s] - rank(sl.rows(s)) - rank(sl.rows(s - 1))


def oracle_pi(n: int, d: Degree, budget: int | None = None) -> MackeyAnswer:
    """Full Mackey functor at degree d: levelwise dimensions with induced
    restriction, transfer and Weyl-generator matrices on cohomology."""
    _check_budget(n, d, budget)
    slices = [_LevelSlice(n, d, j) for j in range(n + 1)]
    s = -d.t
    reducers = [sl.reducer() for sl in slices]
    cells = [list(sl.cells(s)) if red.h_dim else [] for sl, red in zip(slices, reducers)]
    res_mats, tr_mats, gamma_mats = [], [], []
    for j in range(1, n + 1):
        hi, lo = slices[j], slices[j - 1]

        def res(b: int, j=j, hi=hi, lo=lo) -> int:
            # O_j(x) -> O_{j-1}(x) + O_{j-1}(x + p_j), one term if they coincide
            cls, x = cells[j][b]
            lo_cls = lo.classes[s][cls.sig]
            return (1 << lo.index(lo_cls, x)) | (1 << lo.index(lo_cls, _shift(cls, x, hi.p)))

        def tr(b: int, j=j, hi=hi, lo=lo) -> int:
            # O_{j-1}(x) -> O_j(x), or 0 when O_{j-1}(x + p_j) is the same orbit
            cls, x = cells[j - 1][b]
            if lo.index(cls, _shift(cls, x, hi.p)) == b:
                return 0
            return 1 << hi.index(hi.classes[s][cls.sig], x)

        res_mats.append(_orbit_induced(reducers[j], reducers[j - 1], res))
        tr_mats.append(_orbit_induced(reducers[j - 1], reducers[j], tr))
    for j, sl in enumerate(slices):

        def gamma(b: int, j=j, sl=sl) -> int:
            cls, x = cells[j][b]
            return 1 << sl.index(cls, _shift(cls, x, 1))

        gamma_mats.append(_orbit_induced(reducers[j], reducers[j], gamma))
    return MackeyAnswer(n, d, [r.h_dim for r in reducers], res_mats, tr_mats, gamma_mats)


# -- multiplication by the alpha Euler class ----------------------------------


def _alpha_mult_setup(n: int, d: Degree, budget: int | None):
    """Complexes and inclusion realizing multiplication by a_alpha from
    degree d to degree d - alpha."""
    _check_budget(n, d, budget)
    d_target = d - reps.alpha_degree(n)
    _check_budget(n, d_target, budget)
    src, s = _model(n, d)
    dual_alpha = dualize(_alpha_complex(n, 1))
    tgt = smash(src, dual_alpha)

    def include(v: int, s_deg: int) -> int:
        off = tgt.pair_offsets[(s_deg, 0)]
        out = 0
        for b in _bits(v):
            out |= 1 << (off + b)
        return out

    return src, tgt, s, include


def mult_a_alpha(n: int, d: Degree, j: int, budget: int | None = None):
    """Induced map on level-j cohomology: pi_d -> pi_{d-alpha}.

    Returns (columns, source reducer, target reducer).
    """
    src, tgt, s, include = _alpha_mult_setup(n, d, budget)
    red_s = level_cohomology(src, j, s)
    red_t = level_cohomology(tgt, j, s)
    cols = _induced(src, tgt, j, j, s, red_s, red_t, lambda v: include(v, s))
    return cols, red_s, red_t


def verify_lemma_kernel(n: int, d: Degree, budget: int | None = None) -> dict:
    """Check ker(a_alpha) = im(tr) on pi_d and im(a_alpha) = ker(res) on
    pi_{d-alpha}, at the top level."""
    src, tgt, s, include = _alpha_mult_setup(n, d, budget)
    red_top_s = level_cohomology(src, n, s)
    red_top_t = level_cohomology(tgt, n, s)
    red_sub_s = level_cohomology(src, n - 1, s)
    red_sub_t = level_cohomology(tgt, n - 1, s)

    a_cols = _induced(src, tgt, n, n, s, red_top_s, red_top_t, lambda v: include(v, s))
    tr_cols = (
        _induced(src, src, n - 1, n, s, red_sub_s, red_top_s, _relative_norm(src, s, n))
        if s in src.dims
        else []
    )
    res_t_cols = (
        _induced(tgt, tgt, n, n - 1, s, red_top_t, red_sub_t, lambda v: v)
        if s in tgt.dims
        else []
    )

    ker_a = nullspace(a_cols)
    ker_res = nullspace(res_t_cols)

    def span_eq(gens_a, gens_b) -> bool:
        sa, sb = Span(), Span()
        for g in gens_a:
            sa.add(g)
        for g in gens_b:
            sb.add(g)
        return sa.dim == sb.dim and all(sa.contains(g) for g in gens_b)

    im_tr = [c for c in tr_cols]
    im_a = [c for c in a_cols]
    ker_eq = span_eq(ker_a, im_tr)
    im_eq = span_eq(im_a, ker_res)
    return {
        "degree": reps.format_degree(d),
        "dim_pi_d": red_top_s.h_dim,
        "dim_pi_d_minus_alpha": red_top_t.h_dim,
        "ker_a_alpha_dim": rank(ker_a),
        "im_tr_dim": rank(im_tr),
        "im_a_alpha_dim": rank(im_a),
        "ker_res_dim": rank(ker_res),
        "ker_eq_im_tr": ker_eq,
        "im_eq_ker_res": im_eq,
        "pass": ker_eq and im_eq,
    }
