"""Acceptance suite: the thirteen exit criteria, one test each, and more
tests for criterion 13: its seeded columns at n=16 and 32, and its wider
boxes and n=64 columns.

Every criterion prints a single PASS/FAIL line (run pytest with -s or read
captured output).  All comparisons are exact; the boxes are the stated
desk-scale boxes.  Criterion 12 (the n=4 box with radius 2, about 1 s), the
n=6,7 boxes of criterion 13 (about 10 s) and its n=64 columns (about 5 s)
are opt-in: `pytest -m slow`.
"""

import itertools
import random

import pytest

from hf2 import engine, oracle, duality, tate
from hf2.monomial import Monomial, degree_of, eps_rename, multiply, times_a_lambda
from hf2.oracle import oracle_pi, oracle_top_dim
from hf2.reps import make_degree, pullback_eps, restrict, trivial_degree

from fixtures import box_degrees, c2_closed_form, c4_closed_form, c8_closed_form
from reference_oracle import OrbitModule, dualize, sphere_complex


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _engine_strs(n, d):
    return {str(m) for m in engine.basis(n, d).monomials()}


def test_criterion_1_differential_n2():
    mismatches = []
    for d in box_degrees(2, (-10, 10), (-3, 3), (-3, 3)):
        e = engine.dimension(2, d)
        o = oracle_top_dim(2, d)
        f = len(c4_closed_form(d))
        if not e == o == f:
            mismatches.append((str(d), e, o, f))
    _report(
        1,
        f"n=2 engine vs oracle vs closed form over 1029 degrees "
        f"({len(mismatches)} mismatches)",
        not mismatches,
    )


def test_criterion_2_differential_n3():
    mismatches, skipped = [], []
    for d in box_degrees(3, (-8, 8), (-2, 2), (-2, 2)):
        e = engine.dimension(3, d)
        f = len(c8_closed_form(d))
        try:
            o = oracle_top_dim(3, d)
        except oracle.BudgetExceededError as exc:
            skipped.append((str(d), str(exc)))
            continue
        if not e == o == f:
            mismatches.append((str(d), e, o, f))
    _report(
        2,
        f"n=3 engine vs oracle vs order-8 fixture over 2125 degrees "
        f"({len(mismatches)} mismatches, {len(skipped)} over budget)",
        not mismatches and not skipped,
    )


def test_criterion_3_base_cases():
    bad = 0
    for d in box_degrees(1, (-10, 10), (-3, 3), (0, 0)):
        if _engine_strs(1, d) != c2_closed_form(d):
            bad += 1
    for d in box_degrees(2, (-10, 10), (-3, 3), (-3, 3)):
        if _engine_strs(2, d) != c4_closed_form(d):
            bad += 1
    _report(3, f"n=1,2 symbol-for-symbol closed forms ({bad} mismatches)", bad == 0)


def test_criterion_4_induction_slice():
    boxes = {
        3: ((-10, 10), (-3, 3), (-3, 3)),
        4: ((-8, 8), (-2, 2), (-2, 2)),
        5: ((-6, 6), (-1, 1), (-1, 1)),
    }
    bad = 0
    total = 0
    for n, (tr, ar, lr) in boxes.items():
        for d_low in box_degrees(n - 1, tr, ar, lr):
            total += 1
            renamed = {str(eps_rename(m)) for m in engine.basis(n - 1, d_low).monomials()}
            if renamed != _engine_strs(n, pullback_eps(d_low)):
                bad += 1
    _report(
        4,
        f"renaming bijection onto the no-lambda_0 slice for n=3,4,5 "
        f"({total} degrees, {bad} mismatches)",
        bad == 0,
    )


def test_criterion_5_duality_symmetry():
    bad = 0
    total = 0
    for n in (2, 3, 4):
        for d in box_degrees(n, (-10, 10), (-3, 3), (-3, 3)):
            total += 1
            if engine.dimension(n, d) != engine.dimension(n, duality.dual_degree(n, d)):
                bad += 1
    _report(
        5,
        f"dimension(d) = dimension(lambda_0 - 2 - d) for n=2,3,4 "
        f"({total} degrees, {bad} mismatches)",
        bad == 0,
    )


def test_criterion_6_mackey_tower():
    ok = True
    for n in (3, 4):
        d = make_degree(n, -3, 0, [0, 2] + [0] * (n - 3))
        mk = oracle_pi(n, d)
        expected_dims = [1 if j >= 2 else 0 for j in range(n + 1)]
        ok &= mk.level_dims == expected_dims
        for j in range(3, n + 1):
            ok &= mk.res[j - 1] == [1]  # identity between one-dimensional levels
            ok &= mk.tr[j - 1] == [0]
        ok &= mk.res[1] == [0] and mk.tr[1] == []
    _report(6, "Mackey tower at 2*lambda_1 - 3 for n=3,4 (res=1, tr=0)", ok)


def test_criterion_7_tate_exactness():
    bad = 0
    total = 0
    boxes = {2: ((-10, 10), (-3, 3), (-3, 3)), 3: ((-8, 8), (-2, 2), (-2, 2))}
    for n, (tr, ar, lr) in boxes.items():
        one = trivial_degree(n, 1)
        for d in box_degrees(n, tr, ar, lr):
            total += 1
            lhs = len(tate.hb_basis(n, d - one))
            rhs = len(tate.ht_basis(n, d)) - len(tate.hh_basis(n, d))
            if lhs != rhs:
                bad += 1
    _report(
        7,
        f"dim hb(d-1) = dim ht(d) - dim hh(d) for n=2,3 ({total} degrees, {bad} violations)",
        bad == 0,
    )


def test_criterion_8_summand_count():
    ok = True
    for n in (3, 4, 5, 6):
        audit = engine.summand_audit(n)
        ok &= audit["total"] == n * n + 2 * n - 2
        print(
            f"  summands n={n}: total={audit['total']} families={audit['families']} "
            f"recurrence={[r['p2_families'] for r in audit['p2_recurrence']]}"
        )
    _report(8, "summand count n^2+2n-2 for n=3,4,5,6 with recurrence audit", ok)


def test_criterion_9_structural_invariants():
    ok = True
    rng = random.Random(2026)

    # cochain complexes: d after d = 0 and gamma naturality on the reference,
    # and d after d = 0 on the level-direct columns at every level and
    # degree of each sphere and its dual
    for n, coords in [(2, (0, 1, (1,))), (3, (0, 2, (1, 1))), (3, (0, 0, (0, 2)))]:
        v = make_degree(n, *coords[:2], coords[2])
        c = sphere_complex(n, v)
        c.validate()
        dualize(c).validate()
        for w in (v, make_degree(n, 0, -v.c_alpha, [-x for x in v.c_lambda])):
            factors = oracle._factors(n, w)
            top = sum(len(f.kinds) for f in factors)
            for j in range(n + 1):
                for s in range(-top - 1, top + 2):
                    sl = oracle._LevelSlice(oracle._Model(n, factors, s), j)
                    d_in, d_out = sl.cols(s - 1), sl.cols(s)
                    ok &= all(_apply(d_out, col) == 0 for col in d_in)

    # Mackey compatibility and double coset on orbit modules (exhaustive)
    for n in (1, 2, 3):
        for k in range(n + 1):
            om = OrbitModule(n, k)
            for j in range(1, n + 1):
                res, tr = om.res(j), om.tr(j)
                comp = [_apply(res, col) for col in tr]
                gam = om.gamma(j - 1)
                power = [1 << i for i in range(om.level_dim(j - 1))]
                for _ in range(1 << (n - j)):
                    power = [_apply(gam, col) for col in power]
                ok &= comp == [
                    (1 << i) ^ power[i] for i in range(om.level_dim(j - 1))
                ]

    # degree additivity on random monomial pairs
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        m1 = _random_monomial(rng, n, sigma=rng.randint(0, 1))
        m2 = _random_monomial(rng, n, sigma=0)
        ok &= degree_of(multiply(m1, m2)) == degree_of(m1) + degree_of(m2)

    # part disjointness over an exhaustive box
    for d in box_degrees(3, (-5, 5), (-2, 2), (-2, 2)):
        sets = [
            engine.part_pos(3, d),
            engine.part2(3, d),
            engine.part3(3, d),
            engine.part4(3, d),
        ]
        for a, b in itertools.combinations(sets, 2):
            ok &= not (a & b)
        ok &= frozenset().union(*sets) == engine.basis(3, d).monomials()

    # divisibility closure, both for the divisible sets and for part (2)
    for d in box_degrees(3, (-4, 4), (-2, 2), (-2, 2)):
        for m in engine.d_divisible(3, "aL1", d):
            for idx in (0, 1):
                down = times_a_lambda(m, idx, -1)
                ok &= down in engine.d_divisible(3, "aL1", degree_of(down))
        for m in engine.d_divisible(3, "aL0", d):
            down = times_a_lambda(m, 0, -1)
            ok &= down in engine.d_divisible(3, "aL0", degree_of(down))
        for m in engine.part2(3, d):
            for idx in (0, 1):
                down = times_a_lambda(m, idx, -1)
                ok &= down in engine.part2(3, degree_of(down))

    # dual-monomial involution on the supported shapes
    for ea in (0, 1):
        for eu in range(3):
            for k in range(3):
                for u0 in range(2):
                    m = Monomial(3, 0, ea, eu, (k, 0), (u0, 1))
                    ok &= duality.dual_monomial(duality.dual_monomial(m)) == m

    _report(9, "structural invariants suite (complexes, Mackey, parts, duals)", ok)


def test_criterion_10_closed_route_equality():
    boxes = {4: ((-8, 8), (-2, 2), (-2, 2)), 5: ((-6, 6), (-1, 1), (-1, 1))}
    bad = 0
    total = 0
    for n, (tr, ar, lr) in boxes.items():
        for d in box_degrees(n, tr, ar, lr):
            total += 1
            if engine.part2(n, d) != engine.part2_closed(n, d):
                bad += 1
    _report(
        10,
        f"recursive vs closed part-(2) construction for n=4,5 "
        f"({total} degrees, {bad} mismatches)",
        bad == 0,
    )


def test_criterion_11_differential_n4():
    mismatches, skipped = [], []
    for d in box_degrees(4, (-6, 6), (-1, 1), (-1, 1)):
        e = engine.dimension(4, d)
        try:
            o = oracle_top_dim(4, d)
        except oracle.BudgetExceededError as exc:
            skipped.append((str(d), str(exc)))
            continue
        if e != o:
            mismatches.append((str(d), e, o))
    _report(
        11,
        f"n=4 engine vs oracle over 1053 degrees "
        f"({len(mismatches)} mismatches, {len(skipped)} over budget)",
        not mismatches and not skipped,
    )


@pytest.mark.slow
def test_criterion_12_differential_n4_wide():
    mismatches, skipped = [], []
    for d in box_degrees(4, (-8, 8), (-2, 2), (-2, 2)):
        e = engine.dimension(4, d)
        try:
            o = oracle_top_dim(4, d)
        except oracle.BudgetExceededError as exc:
            skipped.append((str(d), str(exc)))
            continue
        if e != o:
            mismatches.append((str(d), e, o))
    _report(
        12,
        f"n=4 engine vs oracle over 10625 degrees "
        f"({len(mismatches)} mismatches, {len(skipped)} over budget)",
        not mismatches and not skipped,
    )


def _euler_mismatches(columns) -> tuple[int, list]:
    """The Euler characteristic of every column d0 in columns (degrees at t =
    0; the column is t free) at every level j = 1..n: the engine's
    alternating sum of pi^{C_{2^j}} at `restrict(d_s, j)`, d_s the column's
    degree with t = -s, over s in lo-2..hi+2, against that of the orbit
    counts W_j(s) of the column's model, with no elimination; and every
    engine group 0 outside lo..hi.  Integers only: the sign is read from
    s % 2.  Returns the identities checked and the mismatches."""
    checked, bad = 0, []
    for d0 in columns:
        n = d0.n
        model = oracle._Model(n, oracle._factors(n, d0), -d0.t)
        for j in range(1, n + 1):
            counts = model.orbit_counts(1 << (n - j))
            euler_engine = euler_cells = 0
            for s in range(model.lo - 2, model.hi + 3):
                d = make_degree(n, -s, d0.c_alpha, d0.c_lambda)
                h = engine.dimension(j, restrict(d, j))
                sign = 1 - 2 * (s % 2)
                euler_engine += sign * h
                euler_cells += sign * counts.get(s, 0)
                if h and not model.lo <= s <= model.hi:
                    bad.append((str(d), j, "nonzero outside the cells"))
            checked += 1
            if euler_engine != euler_cells:
                bad.append((str(d0), j, euler_engine, euler_cells))
    return checked, bad


def _box_columns(radii: dict[int, int]) -> list:
    """The columns of each n box at radius radii[n]: the other coefficients
    in -r..r."""
    return [d0 for n, r in radii.items() for d0 in box_degrees(n, (0, 0), (-r, r), (-r, r))]


def _seeded_columns(counts: dict[int, int]) -> list:
    """counts[n] columns per n, drawn from its own random.Random(3): c_alpha,
    then each c_lambda, in -1..1."""
    columns = []
    for n, count in counts.items():
        rng = random.Random(3)
        for _ in range(count):
            a = rng.randint(-1, 1)
            columns.append(make_degree(n, 0, a, [rng.randint(-1, 1) for _ in range(n - 1)]))
    return columns


def test_criterion_13_euler_characteristic():
    checked, bad = _euler_mismatches(_box_columns({2: 3, 3: 2, 4: 2, 5: 1}))
    _report(
        13,
        f"Euler characteristic of each column and level, engine vs orbit counts, "
        f"n=2 at +-3, n=3,4 at +-2, n=5 at +-1 ({checked} identities, {len(bad)} mismatches)",
        checked == 4188 and not bad,
    )


def test_criterion_13_euler_characteristic_seeded():
    checked, bad = _euler_mismatches(_seeded_columns({16: 5, 32: 2}))
    _report(
        13,
        f"Euler characteristic of each level, engine vs orbit counts, on seeded "
        f"columns at +-1: five at n=16, two at n=32 ({checked} identities, "
        f"{len(bad)} mismatches)",
        checked == 144 and not bad,
    )


@pytest.mark.slow
def test_criterion_13_euler_characteristic_wide():
    checked, bad = _euler_mismatches(_box_columns({6: 1, 7: 1}))
    _report(
        13,
        f"Euler characteristic of each column and level, engine vs orbit counts, "
        f"n=6,7 at +-1 ({checked} identities, {len(bad)} mismatches)",
        checked == 19683 and not bad,
    )


@pytest.mark.slow
def test_criterion_13_euler_characteristic_seeded_wide():
    checked, bad = _euler_mismatches(_seeded_columns({64: 2}))
    _report(
        13,
        f"Euler characteristic of each level, engine vs orbit counts, on two "
        f"seeded n=64 columns at +-1 ({checked} identities, {len(bad)} mismatches)",
        checked == 128 and not bad,
    )


def _apply(cols, vec):
    out = 0
    for i in range(vec.bit_length()):
        if (vec >> i) & 1:
            out ^= cols[i]
    return out


def _random_monomial(rng, n, sigma):
    return Monomial(
        n,
        sigma,
        rng.randint(-4, 4),
        rng.randint(-4, 4),
        tuple(rng.randint(-4, 4) for _ in range(n - 1)),
        tuple(rng.randint(-4, 4) for _ in range(n - 1)),
    )
