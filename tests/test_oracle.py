import hashlib
import json
import random
import time
from itertools import product
from operator import mul

import pytest

from hf2 import engine, oracle
from hf2.gf2 import Span, rank
from hf2.oracle import (
    BudgetExceededError,
    mult_a_alpha,
    oracle_pi,
    oracle_top_dim,
    verify_lemma_kernel,
)
from hf2.reps import (
    DegreeError,
    alpha_degree,
    lambda_degree,
    make_degree,
    restrict,
    underlying_dim,
    zero_degree,
)

import reference_oracle as ref
from fixtures import box_degrees
from reference_oracle import (
    OrbitModule,
    dualize,
    level_cohomology,
    smash,
    sphere_complex,
    sphere_complex_smash_route,
    unit_complex,
    _alpha_complex,
    _induced,
    _model,
    _permute,
    _relative_norm,
    _rep_complex,
)


def _mat_apply(cols, vec):
    out = 0
    for i in range(vec.bit_length()):
        if (vec >> i) & 1:
            out ^= cols[i]
    return out


def _compose(outer, inner):
    return [_mat_apply(outer, c) for c in inner]


class TestOrbitModule:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gamma_order(self, n):
        for k in range(n + 1):
            om = OrbitModule(n, k)
            for j in range(n + 1):
                dim = om.level_dim(j)
                assert dim == 1 << (n - max(j, k))
                gam = om.gamma(j)
                vec = list(range(dim))
                order = 1
                perm = gam
                while perm != [1 << i for i in range(dim)]:
                    perm = _compose(gam, perm)
                    order += 1
                    assert order <= dim
                assert order == dim or dim == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_res_tr_commute_with_gamma(self, n):
        for k in range(n + 1):
            om = OrbitModule(n, k)
            for j in range(1, n + 1):
                res, tr = om.res(j), om.tr(j)
                g_hi, g_lo = om.gamma(j), om.gamma(j - 1)
                assert _compose(g_lo, res) == _compose(res, g_hi)
                assert _compose(g_hi, tr) == _compose(tr, g_lo)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_coset(self, n):
        for k in range(n + 1):
            om = OrbitModule(n, k)
            for j in range(1, n + 1):
                comp = _compose(om.res(j), om.tr(j))
                dim_lo = om.level_dim(j - 1)
                gam = om.gamma(j - 1)
                power = [1 << i for i in range(dim_lo)]
                for _ in range(1 << (n - j)):
                    power = _compose(gam, power)
                expected = [(1 << i) ^ power[i] for i in range(dim_lo)]
                assert comp == expected


SAMPLE_REPS = [
    (2, (0, 0, (1,))),
    (2, (0, 1, (1,))),
    (2, (0, 2, (2,))),
    (3, (0, 1, (1, 1))),
    (3, (0, 0, (0, 2))),
    (1, (0, 3, ())),
]


class TestComplexes:
    @pytest.mark.parametrize("n,coords", SAMPLE_REPS)
    def test_validates(self, n, coords):
        v = make_degree(n, *coords[:2], coords[2])
        sphere_complex(n, v).validate()
        dualize(sphere_complex(n, v)).validate()

    @pytest.mark.parametrize("n,coords", SAMPLE_REPS)
    def test_bottom_cohomology_is_a_sphere(self, n, coords):
        v = make_degree(n, *coords[:2], coords[2])
        c = sphere_complex(n, v)
        top = underlying_dim(v)
        for s in range(-1, top + 2):
            dim = level_cohomology(c, 0, s).h_dim
            assert dim == (1 if s == top else 0), s

    def test_unit_sphere(self):
        c = unit_complex(2)
        assert level_cohomology(c, 0, 0).h_dim == 1
        assert level_cohomology(c, 2, 0).h_dim == 1

    def test_rejects_bad_input(self):
        with pytest.raises(Exception):
            sphere_complex(2, make_degree(2, 1, 0, [0]))
        with pytest.raises(Exception):
            sphere_complex(2, make_degree(2, 0, -1, [0]))

    def test_smash_orbit_counts(self):
        # two free two-dimensional cells over C_8: 16 points in 4 orbits
        c = smash(_rep_complex(3, 1, 1), _rep_complex(3, 1, 1))
        from reference_oracle import _level

        assert c.dims[2] == 4 + 16 + 4
        lv = _level(c, 3, 2)
        assert lv.dim == 1 + 4 + 1
        c2 = smash(unit_complex(2), _rep_complex(2, 1, 1))
        assert c2.dims == _rep_complex(2, 1, 1).dims

    def test_kunneth_bottom_level(self):
        v1 = lambda_degree(2, 0)
        v2 = alpha_degree(2) + alpha_degree(2)
        c1, c2 = sphere_complex(2, v1), sphere_complex(2, v2)
        c = smash(c1, c2)

        def betti(cx, top):
            return [level_cohomology(cx, 0, s).h_dim for s in range(top + 1)]

        b1, b2, b = betti(c1, 2), betti(c2, 2), betti(c, 4)
        conv = [
            sum(b1[i] * b2[s - i] for i in range(len(b1)) if 0 <= s - i < len(b2))
            for s in range(5)
        ]
        assert b == conv

    @pytest.mark.parametrize(
        "n,k,copies", [(2, 0, 2), (2, 0, 3), (3, 1, 2), (3, 0, 2)]
    )
    def test_minimal_model_matches_smash_route(self, n, k, copies):
        v = make_degree(
            n, 0, 0, tuple(copies if i == k else 0 for i in range(n - 1))
        )
        a = sphere_complex(n, v)
        b = sphere_complex_smash_route(n, v)
        for j in range(n + 1):
            for s in range(2 * copies + 1):
                assert (
                    level_cohomology(a, j, s).h_dim == level_cohomology(b, j, s).h_dim
                ), (j, s)

    @pytest.mark.parametrize("n,copies", [(1, 2), (2, 3), (3, 2)])
    def test_alpha_models_match(self, n, copies):
        v = make_degree(n, 0, copies, (0,) * (n - 1))
        a = sphere_complex(n, v)
        b = sphere_complex_smash_route(n, v)
        for j in range(n + 1):
            for s in range(copies + 1):
                assert (
                    level_cohomology(a, j, s).h_dim == level_cohomology(b, j, s).h_dim
                ), (j, s)

    @pytest.mark.parametrize("n,coords", SAMPLE_REPS)
    def test_dual_involution(self, n, coords):
        v = make_degree(n, *coords[:2], coords[2])
        c = sphere_complex(n, v)
        cc = dualize(dualize(c))
        for j in range(n + 1):
            for s in range(underlying_dim(v) + 1):
                assert level_cohomology(c, j, s).h_dim == level_cohomology(cc, j, s).h_dim


class TestOraclePi:
    def test_tower_example(self):
        d = make_degree(3, -3, 0, [0, 2])
        mk = oracle_pi(3, d)
        assert mk.level_dims == [0, 0, 1, 1]
        assert mk.res[2] == [1]  # restriction is the identity
        assert mk.tr[2] == [0]  # transfer vanishes

    def test_negative_cone_generator(self):
        assert oracle_top_dim(1, make_degree(1, -2, 2, [])) == 1

    def test_unit(self):
        assert oracle_top_dim(2, zero_degree(2)) == 1

    def test_restriction_compatibility(self):
        # level j of the Mackey answer is the engine answer for the
        # restricted group and degree
        for d in box_degrees(2, (-4, 4), (-2, 2), (-2, 2)):
            mk = oracle_pi(2, d)
            assert mk.level_dims[0] == (1 if underlying_dim(d) == 0 else 0)
            assert mk.level_dims[1] == engine.dimension(1, restrict(d, 1))
            assert mk.level_dims[2] == engine.dimension(2, d)

    def test_restriction_compatibility_deeper(self):
        for d in box_degrees(3, (-3, 3), (-1, 1), (-1, 1)):
            mk = oracle_pi(3, d)
            assert mk.level_dims[0] == (1 if underlying_dim(d) == 0 else 0)
            for j in (1, 2, 3):
                assert mk.level_dims[j] == engine.dimension(j, restrict(d, j)), (
                    str(d),
                    j,
                )

    def test_double_coset_on_cohomology(self):
        for coords in [(-3, 0, 0, 2), (0, 0, 0, 0), (1, -1, 0, 1)]:
            d = make_degree(3, coords[0], coords[1], list(coords[2:]))
            mk = oracle_pi(3, d)
            for j in range(1, 4):
                if not mk.level_dims[j - 1]:
                    continue
                comp = _compose(mk.res[j - 1], mk.tr[j - 1])
                gam = mk.gamma[j - 1]
                power = [1 << i for i in range(mk.level_dims[j - 1])]
                for _ in range(1 << (3 - j)):
                    power = _compose(gam, power)
                expected = [
                    (1 << i) ^ power[i] for i in range(mk.level_dims[j - 1])
                ]
                assert comp == expected, (d, j)

    def test_json_shape(self):
        d = make_degree(3, -3, 0, [0, 2])
        payload = oracle_pi(3, d).to_json()
        assert [lv["dim"] for lv in payload["levels"]] == [0, 0, 1, 1]
        assert payload["res"][2] == ["1"]


PARITY_BOXES = [(2, (-6, 6), (-2, 2)), (3, (-5, 5), (-1, 1))]


def _map_ranks(res, tr, gamma):
    """Basis-free invariants of the Mackey maps: ranks of res_j, tr_j and
    gamma_j + 1."""
    return (
        [rank(m) for m in res],
        [rank(m) for m in tr],
        [rank([col ^ (1 << i) for i, col in enumerate(m)]) for m in gamma],
    )


def _reference_ranks(n, d):
    """Map ranks from the bottom-level complex."""
    c, s = _model(n, d)
    reds = [level_cohomology(c, j, s) for j in range(n + 1)]
    if s not in c.dims:
        return _map_ranks([[]] * n, [[]] * n, [[]] * (n + 1))
    res = [
        _induced(c, c, j, j - 1, s, reds[j], reds[j - 1], lambda v: v)
        for j in range(1, n + 1)
    ]
    tr = [
        _induced(c, c, j - 1, j, s, reds[j - 1], reds[j], _relative_norm(c, s, j))
        for j in range(1, n + 1)
    ]
    gamma = [
        _induced(c, c, j, j, s, reds[j], reds[j], lambda v, p=c.gamma[s]: _permute(v, p))
        for j in range(n + 1)
    ]
    return _map_ranks(res, tr, gamma)


class TestLevelDirectParity:
    """The level-direct builder against the bottom-level reference."""

    @pytest.mark.parametrize("n,t_range,r", PARITY_BOXES)
    def test_level_dims(self, n, t_range, r):
        for d in box_degrees(n, t_range, r, r):
            c, s = _model(n, d)
            ref = [level_cohomology(c, j, s).h_dim for j in range(n + 1)]
            assert oracle_pi(n, d).level_dims == ref, str(d)
            assert oracle_top_dim(n, d) == ref[n], str(d)

    @pytest.mark.parametrize("n,t_range,r", PARITY_BOXES)
    def test_map_ranks_on_sample(self, n, t_range, r):
        degrees = random.Random(2026 + n).sample(list(box_degrees(n, t_range, r, r)), 80)
        nontrivial = 0
        for d in degrees:
            mk = oracle_pi(n, d)
            ranks = _map_ranks(mk.res, mk.tr, mk.gamma)
            assert ranks == _reference_ranks(n, d), str(d)
            nontrivial += any(any(x) for x in ranks)
        assert nontrivial >= 10  # the sample exercises nonzero maps


def _check_cols(n: int, degrees) -> int:
    """Compare `_LevelSlice.cols` with the cell-by-cell reference at every
    level, at both degrees the reducer reads, for each degree's model and the
    a_alpha target model (two alpha factors); returns the nonzero matrices."""
    nonzero = 0
    for d in degrees:
        for factors in (oracle._factors(n, d), oracle._factors(n, d) + [(2, 1, -1)]):
            for j in range(n + 1):
                sl = oracle._LevelSlice(n, factors, -d.t, j)
                for deg in (sl.s - 1, sl.s):
                    cols = sl.cols(deg)
                    assert cols == ref.level_cols(sl, deg), (str(d), factors, j, deg)
                    nonzero += any(cols)
    return nonzero


class TestColumns:
    """The level differentials against the cell-by-cell reference."""

    @pytest.mark.parametrize("n,t_range,r,sample", [
        (1, (-6, 6), (-3, 3), None), (2, (-5, 5), (-2, 2), None), (3, (-5, 5), (-1, 1), 80),
    ])
    def test_against_reference(self, n, t_range, r, sample):
        degrees = list(box_degrees(n, t_range, r, r))
        if sample:
            degrees = random.Random(2026 + n).sample(degrees, sample)
        assert _check_cols(n, degrees) >= 50


# n = 4 degrees with c_lambda0 = +-2: at the top level lambda_0's moves between
# factor degrees 2 and 3 (N, and its transpose in the dual) run inside the
# block-16 star, through all 16 star shifts, which no n <= 3 degree reaches.
# The seeded +-1 sample adds nu into that star from classes of period 8.
N4_FULL_STAR = [(-3, 0, (2, 1, 0)), (2, 0, (-2, 1, 0))]


def test_cols_n4_seeded():
    degrees = [make_degree(4, t, a, lam) for t, a, lam in N4_FULL_STAR]
    for d in degrees:
        top = oracle._LevelSlice(4, oracle._factors(4, d), -d.t, 4)
        u = 2 if d.c_lambda[0] > 0 else 3  # the source's factor degree of that move
        sources = [cls for deg in (top.s - 1, top.s) for cls in top.classes[deg].values()]
        assert any(cls.sig[0] == u for cls in sources)
    degrees += random.Random(2031).sample(list(box_degrees(4, (-6, 6), (-1, 1), (-1, 1))), 6)
    assert _check_cols(4, degrees) >= 50


@pytest.mark.slow
def test_cols_n4_sample():
    degrees = random.Random(2030).sample(list(box_degrees(4, (-6, 6), (-1, 1), (-1, 1))), 200)
    assert _check_cols(4, degrees) >= 50


def _column_degrees() -> dict[int, list]:
    """Per n, the degrees `TestColumns` (n = 1..3) and `test_cols_n4_seeded`
    (n = 4) read."""
    return {
        1: list(box_degrees(1, (-6, 6), (-3, 3), (-3, 3))),
        2: list(box_degrees(2, (-5, 5), (-2, 2), (-2, 2))),
        3: random.Random(2029).sample(list(box_degrees(3, (-5, 5), (-1, 1), (-1, 1))), 80),
        4: [make_degree(4, t, a, lam) for t, a, lam in N4_FULL_STAR]
        + random.Random(2031).sample(list(box_degrees(4, (-6, 6), (-1, 1), (-1, 1))), 6),
    }


def _positions(sl, deg: int) -> set[int]:
    """The orbit indices in the boxes of `sl.cleared(deg)`."""
    out = set()
    for sig, box in sl.cleared(deg).items():
        cls = sl.classes[deg][sig]
        values = [box.get(g, range(r)) for g, r in enumerate(cls.radices)]
        out.update(cls.offset + sum(map(mul, x, cls.strides)) for x in product(*values))
    return out


def _check_clearing(n: int, degrees) -> list[int]:
    """`_LevelSlice.cleared` against the differential it reads, built here
    in full from a slice one degree lower, at every level, for each degree's
    model and the a_alpha target model: the cleared positions are top bits
    of d_{deg-1}'s columns, the cleared columns are the full ones with 0 at
    those positions, and at deg = s they lie at pivots of d_in.  Returns the
    d_in columns cleared and those that reduce to 0, then the d_out columns
    cleared and those at pivots of d_in."""
    counts = [0, 0, 0, 0]
    for d in degrees:
        for factors in (oracle._factors(n, d), oracle._factors(n, d) + [oracle._DUAL_ALPHA]):
            for j in range(n + 1):
                sl = oracle._LevelSlice(n, factors, -d.t, j)
                cleared = {}
                for deg in (sl.s - 1, sl.s):
                    cleared[deg] = _positions(sl, deg)
                    below = oracle._LevelSlice(n, factors, deg, j)  # degrees deg-1..deg+1
                    tops = {c.bit_length() - 1 for c in below.cols(deg - 1) if c}
                    assert cleared[deg] <= tops, (str(d), factors, j, deg)
                    expected = [0 if k in cleared[deg] else c for k, c in enumerate(sl.cols(deg))]
                    assert sl.cols(deg, clear=True) == expected, (str(d), factors, j, deg)
                span = Span()
                span.absorb(sl.cols(sl.s - 1))
                assert cleared[sl.s] <= span.pivots.keys(), (str(d), factors, j)
                counts[0] += len(cleared[sl.s - 1])
                counts[1] += sl.dims[sl.s - 1] - span.dim
                counts[2] += len(cleared[sl.s])
                counts[3] += span.dim
    return counts


class TestClearing:
    """Clearing across degrees: the top-move rule against the differential
    one degree lower, on the degrees `TestColumns` and the n = 4 column
    tests read, and a floor on how much of what could be cleared it clears
    (zero-reducing d_in columns, d_out columns at pivots of d_in), so that a
    rule which silently clears nothing fails."""

    def test_boxes(self):
        degrees = _column_degrees()
        counts = [sum(c) for c in zip(*(_check_clearing(n, ds) for n, ds in degrees.items()))]
        cleared_in, zero_in, cleared_out, pivots_out = counts
        # measured 0.82 and 0.87
        assert cleared_in >= 0.8 * zero_in and cleared_out >= 0.8 * pivots_out, counts

    @pytest.mark.slow
    def test_n4_sample(self):
        degrees = random.Random(2030).sample(list(box_degrees(4, (-6, 6), (-1, 1), (-1, 1))), 200)
        counts = _check_clearing(4, degrees)
        cleared_in, zero_in, cleared_out, pivots_out = counts
        # measured 0.91 and 0.92
        assert cleared_in >= 0.9 * zero_in and cleared_out >= 0.9 * pivots_out, counts


class TestMoveTemplates:
    """Moves compiled once per shape (`_LevelSlice.cols`), on the degrees of
    `_column_degrees` at every level, for each degree's model and the
    a_alpha target model, with clearing off and on.  Each move is built three
    ways: directly, with the memo bypassed; from an emptied memo; and from
    one kept warm across every slice.  The key is complete when no key
    gets two templates, and the warm memo gives what the direct build
    does."""

    @pytest.fixture(scope="class")
    def runs(self):
        built = {}  # key -> the templates built for it, one per move

        class Bypass(dict):
            def get(self, key, default=None):
                return None

            def __setitem__(self, key, template):
                built.setdefault(key, []).append(template)

        warm, mismatches, compared = {}, [], 0
        saved = oracle._TEMPLATES
        try:
            for n, degrees in _column_degrees().items():
                for d in degrees:
                    for factors in (oracle._factors(n, d), oracle._factors(n, d) + [oracle._DUAL_ALPHA]):
                        for j in range(n + 1):
                            sl = oracle._LevelSlice(n, factors, -d.t, j)
                            for deg, clear in product((sl.s - 1, sl.s), (False, True)):
                                out = []
                                for memo in (Bypass(), {}, warm):
                                    oracle._TEMPLATES = memo
                                    out.append(sl.cols(deg, clear))
                                if not clear:
                                    out.append(ref.level_cols(sl, deg))
                                    compared += 1
                                if any(cols != out[0] for cols in out):
                                    mismatches.append((str(d), factors, j, deg, clear))
        finally:
            oracle._TEMPLATES = saved
        return built, warm, mismatches, compared

    def test_key_is_complete(self, runs):
        built, _, _, _ = runs
        conflicts = [key for key, templates in built.items() if len(set(templates)) > 1]
        assert not conflicts, conflicts[:5]
        # shapes repeat (measured 16580 moves over 2348 keys), which is what
        # the memo rests on
        moves = sum(map(len, built.values()))
        assert len(built) >= 1000 and moves >= 5 * len(built), (len(built), moves)

    def test_cold_equals_warm(self, runs):
        _, _, mismatches, compared = runs
        assert not mismatches, mismatches[:5]
        assert compared >= 1000

    def test_cap(self, runs):
        built, warm, _, _ = runs
        assert warm.keys() == built.keys()
        for p, blocks, *_ in warm:
            assert oracle._SHAPES[blocks, p][4] <= oracle.TEMPLATE_MAX


def test_oracle_pi_pinned():
    """oracle_pi's JSON, representatives included, on 60 seeded degrees of
    n = 2..4 (some with nonzero res, tr and gamma), against its SHA-1.  The
    parity tests above compare ranks only; this catches any change of
    bitstrings.  A change that alters representatives on purpose updates the
    digest and records why."""
    rng = random.Random(2032)
    h, nonzero = hashlib.sha1(), [0, 0, 0]
    for n, t_range, r, k in [(2, (-6, 6), 2, 24), (3, (-5, 5), 1, 24), (4, (-4, 4), 1, 12)]:
        for d in rng.sample(list(box_degrees(n, t_range, (-r, r), (-r, r))), k):
            mk = oracle_pi(n, d)
            h.update(json.dumps(mk.to_json(), sort_keys=True).encode() + b"\n")
            for i, mats in enumerate((mk.res, mk.tr, mk.gamma)):
                nonzero[i] += any(any(m) for m in mats)
    assert min(nonzero) > 0
    assert h.hexdigest() == "db9fd3773048fd8574a9e13f01f1947276ca315e"


LEMMA_BOXES = [(1, (-6, 6), (-3, 3)), (2, (-5, 5), (-2, 2)), (3, (-4, 4), (-1, 1))]


class TestAlphaParity:
    """Multiplication by a_alpha on the level-direct builder against the
    bottom-level reference."""

    @pytest.mark.parametrize("n,t_range,r", LEMMA_BOXES)
    def test_lemma_reports(self, n, t_range, r):
        nontrivial = 0
        for d in box_degrees(n, t_range, r, r):
            rep = verify_lemma_kernel(n, d)
            assert rep == ref.verify_lemma_kernel(n, d), str(d)
            nontrivial += bool(rep["im_a_alpha_dim"] or rep["im_tr_dim"])
        assert nontrivial >= 10  # the box exercises nonzero a_alpha and tr images

    @pytest.mark.parametrize("n,t_range,r", LEMMA_BOXES)
    def test_mult_a_alpha_on_sample(self, n, t_range, r):
        degrees = random.Random(2027 + n).sample(list(box_degrees(n, t_range, r, r)), 80)
        nonzero = 0
        for d in degrees:
            for j in range(n + 1):
                cols, red_s, red_t = mult_a_alpha(n, d, j)
                ref_cols, ref_s, ref_t = ref.mult_a_alpha(n, d, j)
                got = (red_s.h_dim, red_t.h_dim, rank(cols))
                assert got == (ref_s.h_dim, ref_t.h_dim, rank(ref_cols)), (str(d), j)
                nonzero += got[2] > 0
        assert nonzero >= 5  # the sample exercises nonzero a_alpha maps

    @pytest.mark.parametrize("j", [-1, 3])
    def test_mult_a_alpha_level_out_of_range(self, j):
        # unchecked, j = -1 reads as level 0 and j = n + 1 as a negative shift
        with pytest.raises(DegreeError, match=rf"^level j={j} out of range for n=2$"):
            mult_a_alpha(2, make_degree(2, 0, 0, [0]), j)


class TestLemmaKernel:
    def test_unit_degree(self):
        rep = verify_lemma_kernel(2, zero_degree(2))
        assert rep["pass"] and rep["ker_a_alpha_dim"] == 0

    def test_transfer_hit_degree(self):
        rep = verify_lemma_kernel(2, make_degree(2, 2, -2, [0]))
        assert rep["pass"]

    def test_trivial_degree(self):
        rep = verify_lemma_kernel(1, make_degree(1, 3, 0, []))
        assert rep["pass"] and rep["dim_pi_d"] == 0

    def test_small_box(self):
        for d in box_degrees(2, (-3, 3), (-1, 1), (-1, 1)):
            assert verify_lemma_kernel(2, d)["pass"], str(d)


class TestTopDim:
    def test_rank_formula(self):
        """The reducer's h_dim against dim - rank(D_s) - rank(D_{s-1}) on the
        same top slice, with the two ranks taken independently."""
        n = 3
        for d in box_degrees(n, (-5, 5), (-1, 1), (-1, 1)):
            [[sl]] = oracle._slices(n, d, [n], None)
            s = sl.s
            expected = sl.dims[s] - rank(sl.cols(s)) - rank(sl.cols(s - 1)) if sl.dims[s] else 0
            assert oracle_top_dim(n, d) == expected, str(d)


def _product_signatures(factors, s):
    """The signatures of degrees s-1..s+1 by filtering the whole product of
    factor-degree ranges, when degree s has cells: the reference for
    `oracle._signatures`, order included."""
    by_degree = {deg: [] for deg in (s - 1, s, s + 1)}
    lo = -sum(length for _, length, sign in factors if sign < 0)
    if lo <= s <= lo + sum(length for _, length, _ in factors):
        degrees = [0]  # of every signature, in product order
        for _, length, sign in factors:
            degrees = [deg + sign * u for deg in degrees for u in range(length + 1)]
        for sig, deg in zip(product(*(range(length + 1) for _, length, _ in factors)), degrees):
            if deg in by_degree:
                by_degree[deg].append(sig)
    return by_degree


def test_signatures_in_product_order():
    rng = random.Random(1403)
    nonempty = 0
    for _ in range(20000):
        factors = [(rng.choice((1, 2, 4, 8)), rng.randint(1, 4), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 5))]
        lo = -sum(length for _, length, sign in factors if sign < 0)
        hi = sum(length for _, length, sign in factors if sign > 0)
        s = rng.randint(lo - 2, hi + 2)
        expected = _product_signatures(factors, s)
        assert oracle._signatures(factors, s) == expected, (factors, s)
        nonempty += any(expected.values())
    assert nonempty >= 11000


class TestWorkFollowsTheAnswer:
    """Large coefficients give exponent boxes of millions of signatures (41^4
    * 21 for n = 5 at 20, 121^3 * 61 for n = 4 at 60), yet these degrees, at
    the ends of the model, read a handful of them."""

    @pytest.mark.parametrize("t", [0, -1, -180, -179])
    def test_top_dim(self, t):
        d = make_degree(5, t, 20, [20] * 4)
        assert oracle_top_dim(5, d) == engine.dimension(5, d)

    # s = -t at both ends of the model's degrees 0..7c
    @pytest.mark.parametrize("c, t", [(c, t) for c in (20, 60) for t in (0, -1, -7 * c, 1 - 7 * c)])
    def test_level_dims(self, c, t):
        d = make_degree(4, t, c, [c] * 3)
        expected = [1 if underlying_dim(d) == 0 else 0]
        expected += [engine.dimension(j, restrict(d, j)) for j in range(1, 5)]
        assert oracle_pi(4, d).level_dims == expected


class TestBudget:
    def test_budget_error(self):
        d = make_degree(3, -2, 2, [2, 2])  # level-3 widths 3, 11, 26
        with pytest.raises(BudgetExceededError) as err:
            oracle_top_dim(3, d, budget=3)
        assert err.value.predicted > 3
        assert "budget" in str(err.value)

    def test_predicted_equals_built(self, monkeypatch):
        """Each entry point is refused exactly when the widest degree among
        the slices it builds exceeds the budget, with that width predicted;
        a call whose slices are all empty is never refused."""
        built = []

        class Recording(oracle._LevelSlice):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(max(self.dims.values()))

        monkeypatch.setattr(oracle, "_LevelSlice", Recording)
        n = 3
        calls = {
            "top": oracle_top_dim, "pi": oracle_pi, "lemma": verify_lemma_kernel,
            **{f"mult{j}": lambda n, d, budget=None, j=j: mult_a_alpha(n, d, j, budget)
               for j in range(n + 1)},
        }
        refusable = 0
        for d in box_degrees(n, (-5, 5), (-1, 1), (-1, 1)):
            for name, call in calls.items():
                built.clear()
                call(n, d)
                widest = max(built)
                call(n, d, budget=widest)
                built.clear()
                if widest:
                    refusable += 1
                    with pytest.raises(BudgetExceededError) as err:
                        call(n, d, budget=widest - 1)
                    assert (err.value.predicted, err.value.cap) == (widest, widest - 1), (name, str(d))
                    assert not built, (name, str(d))  # refused before any slice is built
                else:
                    call(n, d, budget=-1)
        assert refusable == 949  # of 297 degrees x 7 calls


def test_widths_closed_form():
    """`oracle._widths` against the built tables: the closed form (forced by
    a cap below every count) equals the widest built degree, and the
    whole-model count (returned under a cap above it) bounds it."""
    rng = random.Random(1501)
    slices = nonempty = 0
    for n in range(1, 5):
        for _ in range(400):
            d = make_degree(n, rng.randint(-12, 4), rng.randint(-3, 3),
                            [rng.randint(-2, 2) for _ in range(n - 1)])
            for extra in (None, oracle._DUAL_ALPHA):
                *_, model = oracle._slices(n, d, range(n + 1), 10 ** 9, extra)
                for sl in model:
                    built = max(sl.dims.values())
                    assert oracle._widths(sl.factors, sl.s, sl.p, -1) == built, (str(d), extra)
                    assert oracle._widths(sl.factors, sl.s, sl.p, 10 ** 9) >= built
                    slices += 1
                    nonempty += built > 0
    assert (slices, nonempty) == (11200, 4535)


@pytest.mark.parametrize("call, predicted", [(oracle_top_dim, 798892080), (oracle_pi, 25541764480)])
def test_refusal_builds_nothing(call, predicted):
    """Degree s = 80 lies in the middle of the model's degrees 0..180, where
    millions of signatures meet: the budget refuses it before listing any."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        call(5, make_degree(5, -80, 20, [20] * 4))
    assert time.perf_counter() - start < 1
    assert (err.value.predicted, err.value.cap) == (predicted, oracle.DEFAULT_BUDGET)


def test_empty_degree_builds_nothing(monkeypatch):
    """Degree s = -12 has no cells in the model of 12,1,1 over C_4 (degrees
    0..3) nor in its a_alpha target model (-1..3): every entry point answers
    zeros without building a differential, and budget 0 refuses none."""

    def refuse(self, deg):
        raise AssertionError(f"cols({deg}) built at an empty degree")

    monkeypatch.setattr(oracle._LevelSlice, "cols", refuse)
    n, d = 2, make_degree(2, 12, 1, [1])
    assert oracle_top_dim(n, d, budget=0) == 0
    assert oracle_pi(n, d, budget=0).to_json() == {
        "degree": "12,1,1",
        "levels": [{"k": j, "dim": 0} for j in range(n + 1)],
        "res": [[]] * n,
        "tr": [[]] * n,
        "gamma": [[]] * (n + 1),
    }
    for j in range(n + 1):
        cols, red_s, red_t = mult_a_alpha(n, d, j, budget=0)
        assert (cols, red_s.h_dim, red_t.h_dim) == ([], 0, 0), j
    rep = verify_lemma_kernel(n, d, budget=0)
    assert rep["pass"] and rep["dim_pi_d"] == rep["dim_pi_d_minus_alpha"] == 0


@pytest.mark.slow
def test_n5_box_against_engine():
    # top slices up to 9472 columns wide, all within the default budget
    mismatches, skipped = [], 0
    for d in box_degrees(5, (-6, 6), (-1, 1), (-1, 1)):
        try:
            o = oracle_top_dim(5, d)
        except BudgetExceededError:
            skipped += 1
            continue
        if o != engine.dimension(5, d):
            mismatches.append(str(d))
    print(f"n=5 box: 3159 degrees, {len(mismatches)} mismatches, {skipped} over budget")
    assert not mismatches and not skipped, (mismatches, skipped)


@pytest.mark.slow
def test_lemma_kernel_n4_box():
    failed, skipped = [], 0
    for d in box_degrees(4, (-4, 4), (-1, 1), (-1, 1)):
        try:
            rep = verify_lemma_kernel(4, d)
        except BudgetExceededError:
            skipped += 1
            continue
        if not rep["pass"]:
            failed.append(str(d))
    print(f"n=4 lemma box: 729 degrees, {len(failed)} failing, {skipped} over budget")
    assert not failed and not skipped, (failed, skipped)
