"""Bottom-level Bredon oracle: the independent reference for `hf2.oracle`.

This route stores the whole cochain complex of a sphere at the trivial-
subgroup level, with the generator's permutation action, and reads every
level off it: the level-j fixed subcomplex has one orbit-sum basis vector
per gamma^(2^(n-j))-orbit of coordinates.  Restriction is inclusion of
fixed points, transfer is the relative norm, and multiplication by a_alpha
is the inclusion of the model into its smash with one dual alpha cell pair.

The package's level-direct builder (`hf2.oracle._LevelSlice`) never forms a
bottom-level vector; the parity tests compare it against this module, and
its differentials against `level_cols`, which forms d cell by cell.  The
smash-of-one-copy-each route and the minimal models agree levelwise
(tested), which also pins the orbit-sum convention for the first
differential.  Nothing here is budgeted: callers keep to small degrees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from hf2.gf2 import CohomologyReducer
from hf2.oracle import _bits, _lemma_report
from hf2.reps import Degree, DegreeError, make_degree


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
    """Fixed subcomplex of one degree at one subgroup level.

    `step` is the level's generator on coordinates (gamma^(2^(n-j))).  An
    orbit is represented by its smallest coordinate; `rep_mask` marks the
    representatives and `orbit_of` maps each coordinate to its orbit index.
    """

    __slots__ = ("orbits", "orbit_of", "rep_mask", "dim")

    def __init__(self, step: list[int]):
        self.orbit_of = [-1] * len(step)
        self.orbits: list[int] = []
        self.rep_mask = 0
        for start in range(len(step)):
            if self.orbit_of[start] >= 0:
                continue
            idx = len(self.orbits)
            mask = 0
            i = start
            while self.orbit_of[i] < 0:
                self.orbit_of[i] = idx
                mask |= 1 << i
                i = step[i]
            self.rep_mask |= 1 << start
            self.orbits.append(mask)
        self.dim = len(self.orbits)

    def to_level(self, mask: int) -> int:
        """Express a fixed vector in the orbit-sum basis."""
        out = 0
        for b in _bits(mask & self.rep_mask):
            out |= 1 << self.orbit_of[b]
        return out

    def to_ambient(self, vec: int) -> int:
        out = 0
        for b in _bits(vec):
            out ^= self.orbits[b]
        return out


def _perm_pow2(perm: list[int], e: int) -> list[int]:
    """perm composed with itself 2^e times, by repeated squaring."""
    for _ in range(e):
        perm = [perm[i] for i in perm]
    return perm


def _level(c: SphereComplex, j: int, s: int) -> _Level:
    key = (j, s)
    if key not in c._levels:
        c._levels[key] = _Level(_perm_pow2(c.gamma[s], c.n - j))
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
    step = _perm_pow2(c.gamma[s], c.n - j)
    return lambda v: v ^ _permute(v, step)


# -- the model of a virtual degree --------------------------------------------


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


# -- multiplication by the alpha Euler class ----------------------------------


def _alpha_mult_setup(n: int, d: Degree):
    """Complexes and inclusion realizing multiplication by a_alpha from
    degree d to degree d - alpha: the source smashed with the dual of one
    alpha cell pair, entered through the pair's degree-0 cell."""
    src, s = _model(n, d)
    tgt = smash(src, dualize(_alpha_complex(n, 1)))

    def include(v: int) -> int:
        off = tgt.pair_offsets[(s, 0)]
        out = 0
        for b in _bits(v):
            out |= 1 << (off + b)
        return out

    return src, tgt, s, include


def mult_a_alpha(n: int, d: Degree, j: int):
    """Induced map on level-j cohomology: pi_d -> pi_{d-alpha}.

    Returns (columns, source reducer, target reducer).
    """
    src, tgt, s, include = _alpha_mult_setup(n, d)
    red_s = level_cohomology(src, j, s)
    red_t = level_cohomology(tgt, j, s)
    return _induced(src, tgt, j, j, s, red_s, red_t, include), red_s, red_t


def verify_lemma_kernel(n: int, d: Degree) -> dict:
    """The report of `hf2.oracle.verify_lemma_kernel`, from bottom-level
    models."""
    src, tgt, s, include = _alpha_mult_setup(n, d)
    red_top_s = level_cohomology(src, n, s)
    red_top_t = level_cohomology(tgt, n, s)
    red_sub_s = level_cohomology(src, n - 1, s)
    red_sub_t = level_cohomology(tgt, n - 1, s)
    a_cols = _induced(src, tgt, n, n, s, red_top_s, red_top_t, include)
    tr_cols = (
        _induced(src, src, n - 1, n, s, red_sub_s, red_top_s, _relative_norm(src, s, n))
        if s in src.dims
        else []
    )
    res_cols = (
        _induced(tgt, tgt, n, n - 1, s, red_top_t, red_sub_t, lambda v: v)
        if s in tgt.dims
        else []
    )
    return _lemma_report(d, red_top_s.h_dim, red_top_t.h_dim, a_cols, tr_cols, res_cols)


# -- the level-direct differential, cell by cell ------------------------------


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


def level_cols(sl, deg: int) -> list[int]:
    """`_LevelSlice.cols(deg)` from the cells: for each degree-deg orbit
    representative x, the bottom-level support of d(x) (the factor maps
    above, one factor moving at a time), its hits per target orbit,
    and the coefficient hits * |O| / |O'| mod 2 of each target orbit sum.
    Orbits and their sizes are listed by applying gamma^p to the slice's
    representatives, so no index arithmetic of the slice is reused."""

    def orbits(d: int):
        """(class, representative) per orbit index, the orbit index of every
        cell, and the size of every orbit."""
        reps, where, sizes = [], {}, []
        for cls in sl.classes[d].values():
            for x in product(*map(range, cls.radices)):
                i = len(reps)
                reps.append((cls, x))
                orbit, y = [], x
                while not orbit or y != x:  # apply gamma^p until x comes back
                    orbit.append(y)
                    y = tuple((v + sl.p) % b for v, b in zip(y, cls.blocks))
                for y in orbit:
                    if where.setdefault((cls.sig, y), i) != i:
                        raise AssertionError(f"representatives {where[cls.sig, y]} and {i} share an orbit")
                sizes.append(len(orbit))
        return reps, where, sizes

    sources, _, src_sizes = orbits(deg)
    _, where, tgt_sizes = orbits(deg + 1)
    out = []
    for (cls, x), size in zip(sources, src_sizes):
        cells = Counter()
        for f, (block, length, sign) in enumerate(sl.factors):
            u = cls.sig[f]
            if sign > 0 and u < length:
                v, cs = u + 1, _factor_d(block, u, x[f])
            elif sign < 0 and u > 0:
                v, cs = u - 1, _factor_d_t(block, u - 1, x[f])
            else:
                continue
            sig = cls.sig[:f] + (v,) + cls.sig[f + 1:]
            for c in cs:
                cells[sig, x[:f] + (c,) + x[f + 1:]] ^= 1
        hits = Counter(where[cell] for cell, odd in cells.items() if odd)
        col = 0
        for o, h in hits.items():
            coeff, rest = divmod(h * size, tgt_sizes[o])
            if rest:
                raise AssertionError(f"{h} hits of an orbit of {tgt_sizes[o]} from one of {size}")
            col |= (coeff & 1) << o
        out.append(col)
    return out
