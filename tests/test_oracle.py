import hashlib
import json
import pickle
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from hf2 import engine, oracle
from hf2.gf2 import rank
from hf2.oracle import (
    BudgetExceededError,
    MackeyAnswer,
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
from fixtures import box_degrees, closed_top_width
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

    @pytest.mark.parametrize(
        "n,coords", SAMPLE_REPS + [(3, (0, 1, (2, 1))), (4, (0, 1, (1, 0, 1)))])
    def test_lean_complex_is_the_sphere(self, n, coords):
        """The cell model with one cell orbit per dimension: d d = 0 and
        gamma-naturality, one orbit per degree at the top level, and at
        every level the cohomology of the minimal tensor model."""
        v = make_degree(n, *coords[:2], coords[2])
        lean, tensor = ref.lean_sphere_complex(n, v), sphere_complex(n, v)
        lean.validate()
        dualize(lean).validate()
        assert lean.degrees() == list(range(underlying_dim(v) + 1))
        assert all(level_cohomology(lean, n, s).dim == 1 for s in lean.degrees())
        for j in range(n + 1):
            for s in range(-1, underlying_dim(v) + 2):
                expected = level_cohomology(tensor, j, s).h_dim
                assert level_cohomology(lean, j, s).h_dim == expected, (j, s)


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


class TestMackeyAnswerValue:
    """MackeyAnswer is a value: equal by its fields, with no order, and its
    fields cannot be assigned.  It holds lists, so it does not hash."""

    D = make_degree(3, -3, 0, [0, 2])

    def test_equality(self):
        a, b = oracle_pi(3, self.D), oracle_pi(3, make_degree(3, -3, 0, (0, 2)))
        assert a is not b and a == b and not a != b
        assert a == MackeyAnswer(3, self.D, [0, 0, 1, 1], a.res, a.tr, a.gamma)
        assert a != a._replace(level_dims=[0, 0, 1, 0]) != oracle_pi(3, zero_degree(3))

    def test_no_order_and_no_hash(self):
        a, b = oracle_pi(3, self.D), oracle_pi(3, zero_degree(3))
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
            with pytest.raises(TypeError):
                compare()
        with pytest.raises(TypeError):
            hash(a)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            oracle_pi(3, self.D).level_dims = []

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        a = oracle_pi(3, self.D)
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is MackeyAnswer and back == a and back.to_json() == a.to_json()


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
        """oracle_pi builds level 0 only at |d| = 0, so the level-0 slice is
        built here for every degree and checked against the reference and
        the closed form [|d| = 0]."""
        for d in box_degrees(n, t_range, r, r):
            c, s = _model(n, d)
            ref = [level_cohomology(c, j, s).h_dim for j in range(n + 1)]
            assert oracle_pi(n, d).level_dims == ref, str(d)
            assert oracle_top_dim(n, d) == ref[n], str(d)
            model = oracle._Model(n, oracle._factors(n, d), -d.t)
            level0 = oracle._LevelSlice(model, 0).reducer.h_dim
            assert level0 == ref[0] == (1 if underlying_dim(d) == 0 else 0), str(d)

    @pytest.mark.parametrize("n,t_range,r", PARITY_BOXES)
    def test_level0_rule_changes_no_answer(self, n, t_range, r):
        """oracle_pi's JSON equals the answer read off every level's slice,
        level 0 included, as if no level were left out."""
        skipped = 0
        for d in box_degrees(n, t_range, r, r):
            [slices] = oracle._slices(n, d, range(n + 1), None)
            pairs = list(zip(slices, slices[1:]))
            full = MackeyAnswer(
                n, d, [sl.reducer.h_dim for sl in slices],
                [oracle._orbit_induced(hi, lo, oracle._res) for lo, hi in pairs],
                [oracle._orbit_induced(lo, hi, oracle._tr) for lo, hi in pairs],
                [oracle._orbit_induced(sl, sl, oracle._gamma) for sl in slices],
            )
            assert oracle_pi(n, d).to_json() == full.to_json(), str(d)
            skipped += underlying_dim(d) != 0
        assert skipped > 0  # the box exercises the level-0 shortcut

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


def _models(n: int, d):
    """The `_Model` of d and of its a_alpha target, each with its bottom-level
    cell model from the reference."""
    for extra in (False, True):
        factors = oracle._factors(n, d) + ([oracle._DUAL_ALPHA] if extra else [])
        yield oracle._Model(n, factors, -d.t), ref.lean_model(n, d, extra)


def _check_cols(n: int, degrees) -> int:
    """Compare `_LevelSlice.cols` with the bottom-level cell model at every
    level, at both degrees the reducer reads, for each degree's model and the
    a_alpha target model (one more dual alpha factor); returns the nonzero
    matrices."""
    nonzero = 0
    for d in degrees:
        for model, cells in _models(n, d):
            for j in range(n + 1):
                sl = oracle._LevelSlice(model, j)
                for deg in (sl.s - 1, sl.s):
                    cols = sl.cols(deg)
                    expected = ref.lean_level_cols(sl, deg, cells)
                    assert cols == expected, (str(d), model.factors, j, deg)
                    nonzero += any(cols)
    return nonzero


class TestColumns:
    """The level differentials against the bottom-level cell model."""

    @pytest.mark.parametrize("n,t_range,r,sample", [
        (1, (-6, 6), (-3, 3), None), (2, (-5, 5), (-2, 2), None), (3, (-5, 5), (-1, 1), 80),
    ])
    def test_against_reference(self, n, t_range, r, sample):
        degrees = list(box_degrees(n, t_range, r, r))
        if sample:
            degrees = random.Random(2026 + n).sample(degrees, sample)
        assert _check_cols(n, degrees) >= 50


# n = 4 degrees whose positive part ends in lambda_0: at the top level its
# whole-block move from a smaller block into the block-16 star runs through 8
# star shifts (the source's period is 8), with the source's star on that
# factor (-6,1,1,1,1: from lambda_1's block 8) or off it (-3,1,1,-1,1: from
# lambda_2's block 4, with the star on N = lambda_1's block 8); no n <= 3
# degree reaches either.
N4_STAR_ENTRY = [(-6, 1, (1, 1, 1)), (-3, 1, (1, -1, 1))]


def test_cols_n4_seeded():
    degrees = [make_degree(4, t, a, lam) for t, a, lam in N4_STAR_ENTRY]
    for d in degrees:
        top = oracle._LevelSlice(oracle._Model(4, oracle._factors(4, d), -d.t), 4)
        [positive, *_] = top.factors
        moves = [sig for deg in (top.s - 1, top.s) for sig in top.classes[deg]
                 if positive.blocks[sig[0]:sig[0] + 2] in ((8, 16), (4, 16))]
        assert moves, str(d)
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
        4: [make_degree(4, t, a, lam) for t, a, lam in N4_STAR_ENTRY]
        + random.Random(2031).sample(list(box_degrees(4, (-6, 6), (-1, 1), (-1, 1))), 6),
    }


class TestMoveTemplates:
    """Moves compiled once per pair of classes (`_LevelSlice.cols`), on the degrees of
    `_column_degrees` at every level, for each degree's model and the
    a_alpha target model.  Each move is built three ways: directly, with the
    memo bypassed; from an emptied memo; and from one kept warm across every
    slice.  The key is complete when no key gets two templates, and the warm
    memo gives what the direct build and the bottom-level cell model do."""

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
                    for model, cells in _models(n, d):
                        for j in range(n + 1):
                            sl = oracle._LevelSlice(model, j)
                            for deg in (sl.s - 1, sl.s):
                                out = []
                                for memo in (Bypass(), {}, warm):
                                    oracle._TEMPLATES = memo
                                    out.append(sl.cols(deg))
                                out.append(ref.lean_level_cols(sl, deg, cells))
                                compared += 1
                                if any(cols != out[0] for cols in out):
                                    mismatches.append((str(d), model.factors, j, deg))
        finally:
            oracle._TEMPLATES = saved
        return built, warm, mismatches, compared

    def test_key_is_complete(self, runs):
        built, _, _, _ = runs
        conflicts = [key for key, templates in built.items() if len(set(templates)) > 1]
        assert not conflicts, conflicts[:5]
        # shapes repeat (measured 5241 moves over 739 keys), which is what
        # the memo rests on
        moves = sum(map(len, built.values()))
        assert len(built) >= 700 and moves >= 5 * len(built), (len(built), moves)

    def test_cold_equals_warm(self, runs):
        _, _, mismatches, compared = runs
        assert not mismatches, mismatches[:5]
        assert compared >= 1000

    def test_cap(self, runs):
        built, warm, _, _ = runs
        assert warm.keys() == built.keys()
        for cls, *_ in warm:
            assert cls.count <= oracle.TEMPLATE_MAX


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

    def test_target_cells_below_the_model(self):
        """Degree s = lo - 1, where d's model has no cell but its a_alpha
        target has: every such degree of the `LEMMA_BOXES`, with mult_a_alpha
        at every level and the kernel-lemma report against the reference."""
        degrees = nonzero = 0
        for n, t_range, r in LEMMA_BOXES:
            for d in box_degrees(n, t_range, r, r):
                if -d.t != oracle._Model(n, oracle._factors(n, d), -d.t).lo - 1:
                    continue
                degrees += 1
                assert verify_lemma_kernel(n, d) == ref.verify_lemma_kernel(n, d), str(d)
                for j in range(n + 1):
                    cols, red_s, red_t = mult_a_alpha(n, d, j)
                    ref_cols, ref_s, ref_t = ref.mult_a_alpha(n, d, j)
                    got = (red_s.h_dim, red_t.h_dim, rank(cols))
                    assert got == (ref_s.h_dim, ref_t.h_dim, rank(ref_cols)), (str(d), j)
                    nonzero += got[1] > 0
        assert (degrees, nonzero) == (54, 53)  # nonzero target groups over every level

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
    `oracle._Model(..., s).signatures`, order included."""
    by_degree = {deg: [] for deg in (s - 1, s, s + 1)}
    lengths = [len(f.kinds) for f in factors]
    lo = -sum(length for f, length in zip(factors, lengths) if f.sign < 0)
    if lo <= s <= lo + sum(lengths):
        degrees = [0]  # of every signature, in product order
        for f, length in zip(factors, lengths):
            degrees = [deg + f.sign * u for deg in degrees for u in range(length + 1)]
        for sig, deg in zip(product(*(range(length + 1) for length in lengths)), degrees):
            if deg in by_degree:
                by_degree[deg].append(sig)
    return by_degree


def test_signatures_in_product_order():
    rng, cells = random.Random(1403), random.Random(1404)
    nonempty = 0
    for _ in range(20000):
        factors = []
        for _ in range(rng.randint(0, 5)):
            block, length, sign = rng.choice((1, 2, 4, 8)), rng.randint(1, 4), rng.choice((1, -1))
            blocks = sorted(cells.choice((2, block, 2 * block)) for _ in range(length))
            kinds = tuple(cells.randint(0, 1) for _ in range(length))
            factors.append(oracle._Factor(sign, (1, *blocks), kinds))
        lo = -sum(len(f.kinds) for f in factors if f.sign < 0)
        hi = sum(len(f.kinds) for f in factors if f.sign > 0)
        s = rng.randint(lo - 2, hi + 2)
        expected = _product_signatures(factors, s)
        listed = oracle._Model(3, factors, s).signatures
        sigs = {deg: [sig for sig, _ in pairs] for deg, pairs in listed.items()}
        assert sigs == expected, (factors, s)
        assert all(blocks == tuple(f.blocks[u] for f, u in zip(factors, sig))
                   for pairs in listed.values() for sig, blocks in pairs), (factors, s)
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
        d = make_degree(3, -2, 2, [-2, 2])  # level-3 widths 15, 17, 13
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
    """The tables `_slices` builds, and those of each model built in full,
    against `orbit_counts`, which counts orbits over every signature without
    a table: a table's width is the largest count of degrees s-1..s+1, and
    the built dimensions are the counts (all 0 when degree s has no cells).
    The width `oracle_top` returns with its answer is the top-level one."""
    rng = random.Random(1501)
    slices = nonempty = 0
    for n in range(1, 5):
        for _ in range(400):
            d = make_degree(n, rng.randint(-12, 4), rng.randint(-3, 3),
                            [rng.randint(-2, 2) for _ in range(n - 1)])
            for extra in ((), (oracle._DUAL_ALPHA,)):
                *_, levels = oracle._slices(n, d, range(n + 1), 10 ** 9, extra)
                model = oracle._Model(n, oracle._factors(n, d) + list(extra), -d.t)
                for sl in levels:
                    built = max(sl.dims.values())
                    counts, live = model.orbit_counts(sl.p), model.lo <= sl.s <= model.hi
                    expected = {deg: counts.get(deg, 0) if live else 0
                                for deg in (sl.s - 1, sl.s, sl.s + 1)}
                    width = max(model.table(sl.p)[1].values())
                    assert width == max(expected.values()), (str(d), extra)
                    for deg, count in expected.items():
                        assert sl.dims[deg] == count, (str(d), extra, deg)
                    slices += 1
                    nonempty += built > 0
            assert oracle.oracle_top(n, d, 10 ** 9)[1] == closed_top_width(n, d), str(d)
    assert (slices, nonempty) == (11200, 4535)


def test_top_width_decides_the_top_level_budget(monkeypatch):
    """A cache stores the top-level width (`oracle_top`'s second value)
    beside each value and answers a hit only where it fits the budget.
    Over every degree of n = 2..4 boxes, at budgets around the width (the
    CLI takes none below 0), the width exceeds the budget exactly where
    `oracle_top_dim` refuses, before it builds a slice, and it is the width
    it predicts."""

    class Accepted(Exception):
        pass

    def accept(*args):
        raise Accepted  # past the budget: the first slice would be built

    monkeypatch.setattr(oracle, "_LevelSlice", accept)
    checked = refused = 0
    boxes = {2: ((-8, 8), 2), 3: ((-6, 6), 1), 4: ((-5, 5), 1)}
    for n, (t_range, r) in boxes.items():
        for d in box_degrees(n, t_range, (-r, r), (-r, r)):
            model = oracle._Model(n, oracle._factors(n, d), -d.t)
            w = max(model.table(1)[1].values())
            for cap in {0, w - 1, w, w + 1, oracle.DEFAULT_BUDGET} - {-1}:
                checked += 1
                if w > cap:
                    refused += 1
                    with pytest.raises(BudgetExceededError) as err:
                        oracle_top_dim(n, d, cap)
                    assert (err.value.predicted, err.value.cap) == (w, cap), (str(d), cap)
                else:
                    with pytest.raises(Accepted):
                        oracle_top_dim(n, d, cap)
    assert (checked, refused) == (6104, 1103)


def test_oracle_pi_budget_at_its_lowest_built_level(monkeypatch):
    """oracle_pi builds levels 1..n when |d| != 0 and 0..n when |d| = 0.
    Over every degree of n = 3 and n = 4 boxes, at budgets around the width
    of that lowest level, it refuses exactly when the width exceeds the
    budget, predicts that width, and otherwise builds that level first."""

    class Accepted(Exception):
        pass

    def accept(model, j):
        raise Accepted(j)  # past the budget: the first slice would be built

    monkeypatch.setattr(oracle, "_LevelSlice", accept)
    checked = refused = 0
    boxes = {3: ((-6, 6), 1), 4: ((-5, 5), 1)}
    for n, (t_range, r) in boxes.items():
        for d in box_degrees(n, t_range, (-r, r), (-r, r)):
            low = 1 if underlying_dim(d) else 0
            model = oracle._Model(n, oracle._factors(n, d), -d.t)
            w = max(model.table(1 << (n - low))[1].values())
            for cap in {0, w - 1, w, w + 1, oracle.DEFAULT_BUDGET} - {-1}:
                checked += 1
                if w > cap:
                    refused += 1
                    with pytest.raises(BudgetExceededError) as err:
                        oracle_pi(n, d, cap)
                    assert (err.value.predicted, err.value.cap) == (w, cap), (str(d), cap)
                else:
                    with pytest.raises(Accepted) as acc:
                        oracle_pi(n, d, cap)
                    assert acc.value.args == (low,), str(d)
    assert (checked, refused) == (4860, 1134)


@pytest.mark.parametrize("call, t, c, predicted", [
    pytest.param(oracle_top_dim, 0, 700, 22401, id="oracle_top_dim-22401"),
    pytest.param(oracle_pi, -1, 100, 51201, id="oracle_pi-51201"),
    pytest.param(oracle_pi, 0, 100, 102401, id="oracle_pi-102401"),
])
def test_refusal_builds_nothing(call, t, c, predicted):
    """lambda_0 = c and lambda_1 = -c give two factors of 2c cells each, and
    degree s = -t near the middle of the model's degrees -2c..2c meets about
    2c signatures: the budget refuses it on their count alone, listing no
    other degree's.  oracle_pi sizes its lowest built level: level 1 at
    |d| = -1, level 0 at |d| = 0."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as err:
        call(5, make_degree(5, t, 0, [c, -c, 0, 0]))
    assert time.perf_counter() - start < 1
    assert (err.value.predicted, err.value.cap) == (predicted, oracle.DEFAULT_BUDGET)


def _check_levels_against_subgroups(n, t_range, r):
    """oracle_pi's level j against oracle_top_dim of C_{2^j} at restrict(d, j),
    for j = 1..n: oracle-only evidence for the level construction, each side
    built from its own model."""
    checked = nonzero = 0
    for d in box_degrees(n, t_range, (-r, r), (-r, r)):
        dims = oracle_pi(n, d).level_dims
        for j in range(1, n + 1):
            assert dims[j] == oracle_top_dim(j, restrict(d, j)), (str(d), j)
            checked += 1
            nonzero += dims[j] > 0
    return checked, nonzero


def test_levels_are_subgroup_top_dims_n3():
    assert _check_levels_against_subgroups(3, (-8, 8), 2) == (6375, 1338)


@pytest.mark.slow
def test_levels_are_subgroup_top_dims_n4():
    assert _check_levels_against_subgroups(4, (-6, 6), 1) == (4212, 786)


def test_one_emptiness_rule(monkeypatch):
    """`_slices` decides on the coefficients alone whether degree s has cells
    in the widest of its models, d's (lo..hi) or, with the dual alpha pair,
    its a_alpha target's (lo-1..hi): it builds the factors exactly then.
    Each model's slices, at the bottom and the top level, list the orbit
    counts of that model, or nothing where it has no cells at s."""
    calls = []

    def counting(n, d):
        calls.append(d)
        return factors(n, d)

    factors = oracle._factors
    monkeypatch.setattr(oracle, "_factors", counting)
    rng = random.Random(1601)
    checked = built = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        d0 = make_degree(n, 0, rng.randint(-3, 3), [rng.randint(-3, 3) for _ in range(n - 1)])
        full = factors(n, d0)
        wholes = [oracle._Model(n, full + tail, 0) for tail in ([], [oracle._DUAL_ALPHA])]
        counts = [[whole.orbit_counts(1 << (n - j)) for j in (0, n)] for whole in wholes]
        lo, hi = wholes[0].lo, wholes[0].hi
        for extra in ((), (oracle._DUAL_ALPHA,)):
            for s in range(lo - 2, hi + 3):
                d = make_degree(n, -s, d0.c_alpha, d0.c_lambda)
                calls.clear()
                models = oracle._slices(n, d, (0, n), 10 ** 9, extra)
                live = lo - len(extra) <= s <= hi
                assert calls == ([d] if live else []), (str(d), extra)
                built += live
                for k, slices in enumerate(models):  # k = 1: the a_alpha target
                    cells = lo - k <= s <= hi
                    for sl, count in zip(slices, counts[k]):
                        expected = {deg: count.get(deg, 0) if cells else 0
                                    for deg in (s - 1, s, s + 1)}
                        assert sl.dims == expected, (str(d), extra, k, sl.p)
                        checked += 1
    assert (checked, built) == (165072, 41024)


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


def _box_against_engine(n, t_range, r):
    """oracle_top_dim against engine.dimension over a box (t in t_range, the
    other coefficients in -r..r): the degrees, the mismatches and the count
    over the default budget, which the lean model's widths keep at 0."""
    mismatches, over_budget, total = [], 0, 0
    for d in box_degrees(n, t_range, (-r, r), (-r, r)):
        total += 1
        try:
            o = oracle_top_dim(n, d)
        except BudgetExceededError:
            over_budget += 1
            continue
        if o != engine.dimension(n, d):
            mismatches.append(str(d))
    print(f"n={n} box: {total} degrees, {len(mismatches)} mismatches, {over_budget} over budget")
    return total, mismatches, over_budget


@pytest.mark.parametrize("n, t_range, r, total", [
    pytest.param(5, (-6, 6), 1, 3159, id="n5"),
    pytest.param(6, (-6, 6), 1, 9477, id="n6"),
    pytest.param(7, (-4, 4), 1, 19683, id="n7", marks=pytest.mark.slow),
    pytest.param(8, (-4, 4), 1, 59049, id="n8", marks=pytest.mark.slow),
])
def test_box_against_engine(n, t_range, r, total):
    assert _box_against_engine(n, t_range, r) == (total, [], 0)


@pytest.mark.parametrize("n, refused", [
    pytest.param(10, 0, id="n10"),
    pytest.param(12, 0, id="n12", marks=pytest.mark.slow),
    pytest.param(14, 2, id="n14", marks=pytest.mark.slow),
])
def test_sample_against_engine(n, refused):
    """oracle_top_dim against engine.dimension on 300 degrees drawn from
    random.Random(7): t in -8..8, then c_alpha and each c_lambda in -1..1,
    in that order; `refused` of them over the default budget, and reported.
    Some top-level source classes here have more than `TEMPLATE_MAX`
    orbits, so their moves are compiled anew each time, not kept."""
    rng = random.Random(7)
    mismatches, over, large = [], [], 0
    for _ in range(300):
        t, a = rng.randint(-8, 8), rng.randint(-1, 1)
        d = make_degree(n, t, a, [rng.randint(-1, 1) for _ in range(n - 1)])
        try:
            if oracle_top_dim(n, d) != engine.dimension(n, d):
                mismatches.append(str(d))
        except BudgetExceededError as exc:
            over.append(f"{d} ({exc.predicted} columns)")
        classes, _ = oracle._Model(n, oracle._factors(n, d), -t).table(1)
        large += any(cls.count > oracle.TEMPLATE_MAX
                     for deg in (-t - 1, -t) for cls, _ in classes[deg].values())
    print(f"n={n} sample: 300 degrees, {len(mismatches)} mismatches, {len(over)} over "
          f"budget {over}, {large} with a source class over TEMPLATE_MAX")
    assert not mismatches, mismatches[:5]
    assert len(over) == refused
    assert large >= 10


def test_n512_moves_that_cancel_build_nothing():
    """Two n = 512 degrees in a fresh process capped at 1.5 GB of address
    space: t = -3, c_alpha = 0, c_lambda_0 = c_lambda_255 = 1 and
    c_lambda_510 = -1, then 0.  Their whole-block moves with the star on
    the moved factor are wider than the index period P (`_LevelSlice._move`)
    and have no image; built mask by mask, they ran out of memory under
    that cap."""
    src = str(Path(oracle.__file__).parents[1])
    code = (
        "import resource, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))\n"
        "from hf2 import engine, oracle\n"
        "from hf2.reps import Degree\n"
        "for last in (-1, 0):\n"
        "    d = Degree(512, -3, 0, (1,) + (0,) * 254 + (1,) + (0,) * 254 + (last,))\n"
        "    print(oracle.oracle_top_dim(512, d), engine.dimension(512, d))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["0", "0", "1", "1"]


@pytest.mark.slow
@pytest.mark.parametrize("n, t_range, sample, seed", [
    (5, (-6, 6), 3159, None), (6, (-6, 6), 1500, 2033), (7, (-4, 4), 500, 2034),
])
def test_oracle_pi_levels_against_engine(n, t_range, sample, seed):
    """oracle_pi at every level j against the engine at restrict(d, j) (level
    0: F_2 exactly at |d| = 0) over the box with the other coefficients in
    -1..1, whole or as a seeded sample; none over the default budget.  The
    move templates kept meanwhile stay small: `TEMPLATE_MAX` bounds them."""
    degrees = list(box_degrees(n, t_range, (-1, 1), (-1, 1)))
    if seed is not None:
        degrees = random.Random(seed).sample(degrees, sample)
    mismatches, nonzero = [], 0
    for d in degrees:
        expected = [1 if underlying_dim(d) == 0 else 0]
        expected += [engine.dimension(j, restrict(d, j)) for j in range(1, n + 1)]
        dims = oracle_pi(n, d).level_dims
        if dims != expected:
            mismatches.append((str(d), dims, expected))
        nonzero += any(dims)
    print(f"n={n} oracle_pi sample: {len(degrees)} degrees, {len(mismatches)} mismatches")
    assert len(degrees) == sample and not mismatches, mismatches[:5]
    assert nonzero >= sample // 10
    mask_bytes = sum(m.bit_length() for _, ms in oracle._TEMPLATES.values() for m in ms) // 8
    print(f"template masks: {len(oracle._TEMPLATES)} templates, {mask_bytes} bytes")
    assert mask_bytes < 2 * 10 ** 6  # 0.67 MB at most in the slow suite; 62 MB uncapped


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
