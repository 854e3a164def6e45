import gc
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hf2 import engine, tate
from hf2.engine import (
    AnswerBasis,
    BasisElement,
    PartOverlapError,
    basis,
    d_divisible,
    dimension,
    part2,
    part2_closed,
    part3,
    part4,
    part_pos,
    summand_audit,
    summand_count,
)
from hf2.monomial import Monomial, degree_of, parse_monomial, times_a_lambda
from hf2.reps import DegreeError, lambda_degree, make_degree, zero_degree

from fixtures import box_degrees, c2_closed_form, c4_closed_form, c8_closed_form


def strs(ms):
    return {str(m) for m in ms}


def basis_strs(n, d):
    return strs(basis(n, d).monomials())


class TestBasisExamples:
    def test_c2_negative_cone(self):
        d = make_degree(1, -2, 2, [])
        assert basis_strs(1, d) == {"S * aA^-1 * uA^-1"}

    def test_c4_duality_unit(self):
        d = make_degree(2, -2, 0, [1])
        assert basis_strs(2, d) == {"S * aA * uA^-1 * aL0^-1"}

    def test_c8_renamed_line(self):
        d = make_degree(3, -2, 0, [0, 1])
        els = basis(3, d).sorted_elements()
        assert [str(e.monomial) for e in els] == ["S * aA * uA^-1 * aL1^-1"]
        assert els[0].part == "P2" and els[0].depth == 1

    def test_unit_everywhere(self):
        for n in (1, 2, 3, 4, 5):
            els = basis(n, zero_degree(n)).sorted_elements()
            assert [str(e.monomial) for e in els] == ["1"]
            assert els[0].part == "POS"


class TestDimensionExamples:
    def test_values(self):
        assert dimension(2, make_degree(2, -2, 2, [0])) == 1
        assert dimension(3, zero_degree(3)) == 1
        assert dimension(2, make_degree(2, -1, 1, [0])) == 0

    def test_integer_line(self):
        # Eilenberg-MacLane: only degree zero survives on the integer axis
        for n in (1, 2, 3):
            for t in range(-6, 7):
                d = make_degree(n, t, 0, [0] * (n - 1))
                assert dimension(n, d) == (1 if t == 0 else 0)


class TestParts:
    def test_part_pos_delegates(self):
        d = make_degree(3, 2, 0, [-1, -1])
        assert part_pos(3, d) == engine.positive_cone_basis(3, d)

    def test_part3_empty_solver_case(self):
        assert part3(3, make_degree(3, 1, -1, [2, 0])) == frozenset()

    def test_part3_augmentation_family(self):
        # degree of a_l0^-1 a_l1 a_alpha^2
        d = make_degree(3, 0, -2, [1, -1])
        assert strs(part3(3, d)) == {"aA^2 * aL0^-1 * aL1"}

    def test_part3_does_not_capture_orbit_classes(self):
        d = make_degree(3, -1, 0, [1, 0])
        assert part3(3, d) == frozenset()
        assert dimension(3, d) == 0

    def test_part4_example(self):
        d = make_degree(2, 1, 1, [-1])
        assert strs(part4(2, d)) == {"uA^-1 * uL0"}

    def test_part4_positive_powers_excluded(self):
        assert part4(2, make_degree(2, 2, 0, [-1])) == frozenset()
        assert basis_strs(2, make_degree(2, 2, 0, [-1])) == {"uL0"}

    def test_part4_mixed_inverted_block(self):
        d = make_degree(3, 0, 0, [-1, 1])
        assert strs(part4(3, d)) == {"uL0 * uL1^-1"}

    def test_part2_renamed_negative_cone(self):
        d = make_degree(3, -2, 2, [1, 0])
        assert strs(part2(3, d)) == {"S * aA^-1 * uA^-1 * aL0^-1"}

    def test_part2_laurent_periodicity(self):
        for d in box_degrees(3, (-4, 4), (-2, 2), (-2, 2)):
            shifted = d - lambda_degree(3, 0)
            lhs = {times_a_lambda(m, 0, 1) for m in d_divisible(3, "aL1", d)}
            assert lhs == d_divisible(3, "aL1", shifted)
            assert {times_a_lambda(m, 0, 1) for m in part2(3, d)} == part2(3, shifted)

    def test_part2_division_closure(self):
        for d in box_degrees(3, (-4, 4), (-2, 2), (-2, 2)):
            for m in part2(3, d):
                for idx in (0, 1):
                    down = times_a_lambda(m, idx, -1)
                    assert down in part2(3, degree_of(down)), str(m)

    def test_part2_needs_n3(self):
        with pytest.raises(DegreeError):
            part2(2, zero_degree(2))


def rows_windows(n, d):
    """B2 and part (4) read off the exponent tuples of both rows
    (`tate.rows`): a row's class is in when its first nonzero orientation
    power, over u_lambda_0, ..., u_lambda_{n-2} and then u_alpha, is
    negative (B2, orbit row) or positive with a negative power after it
    (part (4), Borel row)."""
    def lowest(row):
        us = row[4] + (row[2],)
        for r, u in enumerate(us):
            if u:
                return u, us[r + 1:]
        return 0, ()

    borel, orbit = tate.rows(n, d)
    b2 = p4 = ()
    if orbit is not None and lowest(orbit)[0] < 0:
        b2 = (Monomial(n, *orbit),)
    if borel is not None:
        low, after = lowest(borel)
        if low > 0 and any(u < 0 for u in after):
            p4 = (Monomial(n, *borel),)
    return b2, p4


def window_degrees() -> list:
    """Every degree of boxes n = 1, 2 (t +-8, others +-3), n = 3, 4 (t +-6,
    +-2) and n = 5 (t +-4, +-1), then 2000 seeded degrees of n = 6..24."""
    boxes = ((1, 8, 3), (2, 8, 3), (3, 6, 2), (4, 6, 2), (5, 4, 1))
    out = [d for n, t, r in boxes for d in box_degrees(n, (-t, t), (-r, r), (-r, r))]
    rng = random.Random(34)
    for _ in range(2000):
        n = rng.randint(6, 24)
        out.append(make_degree(n, rng.randint(-10, 10), rng.randint(-2, 2),
                               [rng.randint(-2, 2) for _ in range(n - 1)]))
    return out


class TestWindows:
    """`engine._windows` decides B2 and part (4) on the scalars of the row
    solve; these read them off both rows' exponent tuples instead."""

    def test_matches_rows(self):
        degrees = window_degrees()
        fired = [0, 0]
        for d in degrees:
            got = engine._windows(d.n, d)
            assert got == rows_windows(d.n, d), str(d)
            fired[0] += bool(got[0])
            fired[1] += bool(got[1])
        assert len(degrees) == 119 + 833 + 1625 + 8125 + 2187 + 2000
        assert min(fired) > 500, fired

    def test_builds_nothing_outside(self, monkeypatch):
        rng = random.Random(35)
        degrees = []
        while len(degrees) < 500:
            n = rng.randint(1, 8)
            d = make_degree(n, rng.randint(-8, 8), rng.randint(-2, 2),
                            [rng.randint(-2, 2) for _ in range(n - 1)])
            if rows_windows(n, d) == ((), ()):
                degrees.append(d)
        built = []
        monkeypatch.setattr(engine, "Monomial", lambda *a: built.append(a))
        monkeypatch.setattr(engine, "exponents", lambda *a: built.append(a))
        for d in degrees:
            assert engine._windows(d.n, d) == ((), ())
        assert built == []


class TestDivisible:
    def test_alpha_square_tower_is_divisible(self):
        d = make_degree(2, 0, -2, [-1])
        assert "aA^2 * aL0" in strs(d_divisible(2, "aL0", d))

    def test_orientation_class_not_divisible(self):
        d = make_degree(2, 1, -1, [0])
        assert "uA" not in strs(d_divisible(2, "aL0", d))
        assert dimension(2, d) == 1  # u_alpha itself survives, in the cone

    def test_lambda1_matches_part2_source(self):
        d = make_degree(3, -2, 2, [1, 0])
        assert strs(d_divisible(3, "aL1", d)) == {"S * aA^-1 * uA^-1 * aL0^-1"}

    def test_divisible_closure(self):
        for d in box_degrees(3, (-4, 4), (-2, 2), (-2, 2)):
            dl1 = d_divisible(3, "aL1", d)
            for m in dl1:
                down = times_a_lambda(m, 1, -1)
                assert down in d_divisible(3, "aL1", degree_of(down))
                down0 = times_a_lambda(m, 0, -1)
                assert down0 in d_divisible(3, "aL1", degree_of(down0))
            for m in d_divisible(3, "aL0", d):
                down0 = times_a_lambda(m, 0, -1)
                assert down0 in d_divisible(3, "aL0", degree_of(down0))

    def test_parts_closed_under_localized_division(self):
        for d in box_degrees(3, (-4, 4), (-2, 2), (-2, 2)):
            union = part2(3, d) | part3(3, d)
            for m in union:
                down = times_a_lambda(m, 0, -1)
                dd = degree_of(down)
                assert down in part2(3, dd) | part3(3, dd)

    def test_unsupported_generator(self):
        with pytest.raises(Exception):
            d_divisible(3, "uA", zero_degree(3))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_degree_over_another_group_refused(self, warm):
        # the memo is keyed by the degree alone, so the group is checked
        # before it is read: a warm n = 3 entry must not answer for n = 4
        clear_memo()
        d = make_degree(3, -2, 2, [1, 0])
        if warm:
            d_divisible(3, "aL0", d)
            assert d in engine._QUOTIENTS
        for generator in ("aL0", "aL1"):
            with pytest.raises(DegreeError, match=r"^degree is over n=3, expected 4$"):
                d_divisible(4, generator, d)

    def test_n2000_under_default_recursion_limit(self):
        # the induction is a loop: a cold query at n = 2000 walks 1999 groups
        # down and builds them back up with no call nesting per group order,
        # through both entries to the memo (basis by _blocks, aL0 by _quotient)
        from hf2.oracle import oracle_top_dim

        n = 2000
        d = make_degree(n, -2, 1, [-1] + [0] * (n - 3) + [1])
        assert sys.getrecursionlimit() <= 1000
        clear_memo()
        assert dimension(n, d) == 2 == oracle_top_dim(n, d)
        clear_memo()
        assert len(d_divisible(n, "aL0", d)) == 1


def clear_memo() -> None:
    engine._QUOTIENTS.clear()
    engine._INTS.clear()


def memo_scan(seed: int) -> list:
    """1000 seeded degrees for each of n = 5..8, over the boxes of the
    engine-scan benchmark (n = 5 at t +-6, +-2; n = 6..8 at +-1)."""
    rng = random.Random(seed)
    boxes = ((5, 6, 2), (6, 6, 1), (7, 5, 1), (8, 4, 1))
    return [make_degree(n, rng.randint(-t, t), rng.randint(-r, r),
                        [rng.randint(-r, r) for _ in range(n - 1)])
            for _ in range(1000) for n, t, r in boxes]


def seeded_scan(n: int, count: int, seed: int) -> list:
    """count seeded degrees of one n: t in -10..10, every other slot in -2..2."""
    rng = random.Random(seed)
    return [make_degree(n, rng.randint(-10, 10), rng.randint(-2, 2),
                        [rng.randint(-2, 2) for _ in range(n - 1)])
            for _ in range(count)]


def memo_bytes(degrees) -> tuple[int, int, int]:
    """What clearing the memo frees after a scan of degrees into an empty
    one, with its entries and weight just before the clear."""
    clear_memo()
    gc.collect()
    tracemalloc.start()
    try:
        for d in degrees:
            basis(d.n, d)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        entries, weight = len(engine._QUOTIENTS), engine._QUOTIENTS.weight
        clear_memo()
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], entries, weight
    finally:
        tracemalloc.stop()


class TestMemo:
    """The quotient memo, `engine._QUOTIENTS`: what one entry costs, and the
    cap that bounds the engine's memory over a long scan."""

    def test_bytes_per_entry(self):
        # 194 B here; the a_lambda_0 memo this one replaced, which held the
        # divisible classes alone, took 213 B, and an lru_cache of
        # frozensets before it 530 B
        freed, entries, _ = memo_bytes(memo_scan(30))
        assert entries > 5000
        assert freed / entries <= 400, (freed, entries)

    def test_bounded_after_n64_scan(self):
        # 400 degrees of n = 64 reach a weight (the sum of the keys' n) of
        # about 8e5, past the cap of 2^19, so the memo has been cleared on
        # the way: it retains 16 MB here, and would retain 46 MB unbounded
        freed, entries, weight = memo_bytes(seeded_scan(64, 400, 64))
        assert 0 < weight <= 1 << 19 and entries > 0
        assert freed <= 32 << 20, freed
        assert freed <= 64 * weight, (freed, weight)

    def test_weight_is_the_sum_of_key_n(self):
        clear_memo()
        for d in memo_scan(33)[:400]:
            basis(d.n, d)
        assert engine._QUOTIENTS.weight == sum(k.n for k in engine._QUOTIENTS) > 0
        clear_memo()
        assert engine._QUOTIENTS.weight == 0 and not engine._QUOTIENTS

    def test_cold_and_warm_answers_agree(self):
        degrees = list(box_degrees(5, (-6, 6), (-1, 1), (-1, 1)))
        cold = []
        for d in degrees:
            clear_memo()
            cold.append(basis(5, d))
        for d in degrees:
            basis(5, d)
        assert [basis(5, d) for d in degrees] == cold

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_divisible_cold_and_warm_agree(self, n):
        # both divisibility queries read the memo: aL0 the entry of d itself,
        # aL1 the entry of its quotient degree
        degrees = seeded_scan(n, 150, n)
        for generator in ("aL0", "aL1"):
            cold = []
            for d in degrees:
                clear_memo()
                cold.append(d_divisible(n, generator, d))
            for d in degrees:
                d_divisible(n, generator, d)
            assert [d_divisible(n, generator, d) for d in degrees] == cold
            assert sum(map(bool, cold)) > 10, generator

    def test_empty_answers_share_one_tuple(self):
        # every entry with nothing to hand on is the one _NOTHING, and every
        # empty field is the one ()
        clear_memo()
        for d in memo_scan(31)[:2000]:
            basis(d.n, d)
        memo = engine._QUOTIENTS
        empty = [v for v in memo.values() if not any(v)]
        assert 2 * len(empty) > len(memo)
        assert all(v is engine._NOTHING for v in empty)
        fields = [f for v in memo.values() for f in v]
        blank = [f for f in fields if not f]
        assert all(type(f) is tuple for f in fields)
        assert blank[0] == () and all(f is blank[0] for f in blank)
        assert all(len(v) == 4 and len(v[0]) == len(v[1]) for v in memo.values())

    def test_keys_share_c_lambda(self):
        # one stored c_lambda tuple per coefficient list, and every key over
        # the degree of the classes its own entry holds
        clear_memo()
        for d in memo_scan(32)[:2000]:
            basis(d.n, d)
        keys = list(engine._QUOTIENTS)
        assert len({id(k.c_lambda) for k in keys}) == len({k.c_lambda for k in keys})
        for k in keys[::50]:
            div, _, b1, b3 = engine._QUOTIENTS[k]
            assert all(degree_of(m) == k for m in div + b1 + b3)

    def test_cold_walk_past_the_cap(self, monkeypatch):
        # a cold walk to n = 1100 stores groups whose n sum past the cap, so
        # the memo is cleared partway up; `_quotient` stores each entry, after
        # any clear, before the next step up reads it, so the walk goes down
        # once (n - 1 quotient degrees), and the answer is the one an
        # uncapped walk and a warm memo give
        n = 1100
        rng = random.Random(3)
        d = make_degree(n, rng.randint(-4, 4), rng.randint(-2, 2),
                        [rng.choice((0, 0, 0, -1, 1)) for _ in range(n - 1)])
        stripped, strip = [], engine.strip_lambda0
        monkeypatch.setattr(engine, "strip_lambda0", lambda q: stripped.append(q) or strip(q))
        clear_memo()
        cold = basis(n, d)
        assert 0 < engine._QUOTIENTS.weight < n * (n - 1) // 2
        assert len(stripped) == n - 1
        monkeypatch.setattr(engine, "_MEMO_CAP", 1 << 30)
        clear_memo()
        uncapped = basis(n, d)
        assert engine._QUOTIENTS.weight == n * (n - 1) // 2
        assert cold == uncapped == basis(n, d)
        assert len(cold.elements) == 5 and max(e.depth for e in cold.elements) > 1000
        clear_memo()

    @pytest.mark.slow
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_n128_scan_peak_rss(self):
        # a seeded n = 128 scan in a fresh process: 564 MB peak RSS when the
        # memo was unbounded, about 74 MB under the cap.  The child reads its
        # own VmHWM, as ru_maxrss carries the parent's peak across the exec
        code = (
            "import re, sys\n"
            f"sys.path[:0] = {[str(Path(__file__).parent), str(Path(engine.__file__).parents[1])]!r}\n"
            "from test_engine import seeded_scan\n"
            "from hf2.engine import basis\n"
            "for d in seeded_scan(128, 1000, 128):\n"
            "    basis(d.n, d)\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(re.search(r'^VmHWM:\\s*(\\d+) kB', fh.read(), re.M)[1])\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100 * 1024, proc.stdout  # VmHWM is in kB


class TestPartition:
    def test_parts_disjoint_and_exhaustive(self):
        # the n = 3 box, then small n = 4 and n = 5 boxes, whose blocks and
        # part (2) are renamed from memo entries one and two groups down
        boxes = ((3, (-5, 5), (-2, 2), (-2, 2)), (4, (-5, 5), (-1, 1), (-1, 1)),
                 (5, (-4, 4), (-1, 1), (-1, 1)))
        for n, *box in boxes:
            for d in box_degrees(n, *box):
                sets = [part_pos(n, d), part2(n, d), part3(n, d), part4(n, d)]
                for a, b in itertools.combinations(sets, 2):
                    assert not (a & b), str(d)
                union = frozenset().union(*sets)
                assert union == basis(n, d).monomials(), str(d)

    def test_tags_partition(self):
        for d in box_degrees(3, (-5, 5), (-2, 2), (-2, 2)):
            els = basis(3, d).elements
            assert len({e.monomial for e in els}) == len(els)

    def test_all_degrees_match(self):
        # the n = 3 box, then 300 seeded degrees for each of n = 2, 4, 5, 6:
        # slot walks that go past a nonzero c_lambda need n >= 4 to show
        rng = random.Random(9)
        degrees = [(3, d) for d in box_degrees(3, (-5, 5), (-2, 2), (-2, 2))]
        for n in (2, 4, 5, 6):
            for _ in range(300):
                t, a = rng.randint(-8, 8), rng.randint(-3, 3)
                degrees.append((n, make_degree(n, t, a, [rng.randint(-2, 2) for _ in range(n - 1)])))
        for n, d in degrees:
            for e in basis(n, d).elements:
                assert degree_of(e.monomial) == d, str(d)


class TestClosedForms:
    def test_c2_box(self):
        for d in box_degrees(1, (-10, 10), (-4, 4), (0, 0)):
            assert basis_strs(1, d) == c2_closed_form(d), str(d)

    def test_c4_box(self):
        for d in box_degrees(2, (-8, 8), (-3, 3), (-3, 3)):
            assert basis_strs(2, d) == c4_closed_form(d), str(d)

    def test_c8_box(self):
        for d in box_degrees(3, (-6, 6), (-2, 2), (-2, 2)):
            assert basis_strs(3, d) == c8_closed_form(d), str(d)


class TestDisplayGap:
    """A narrower reading of the order-8 augmentation-ideal family (without
    its u_alpha factor) misses classes that the oracle and the duality
    symmetry both require; these witnesses pin the difference."""

    WITNESSES = [
        ((1, -2, 1, -2), "aA * uA * aL0^-1 * aL1^2"),
        ((1, -2, 1, -1), "aA * uA * aL0^-1 * aL1"),
        ((1, -3, 1, -1), "aA^2 * uA * aL0^-1 * aL1"),
    ]

    def test_witnesses(self):
        from hf2.oracle import oracle_top_dim

        for coords, witness in self.WITNESSES:
            d = make_degree(3, *coords[:2], list(coords[2:]))
            literal = c8_closed_form(d, literal_display=True)
            corrected = c8_closed_form(d)
            assert witness in corrected - literal
            assert basis_strs(3, d) == corrected
            assert oracle_top_dim(3, d) == len(corrected)
            assert len(literal) < len(corrected)

    def test_duality_forces_the_witnesses(self):
        from hf2.duality import dual_degree

        for coords, _ in self.WITNESSES:
            d = make_degree(3, *coords[:2], list(coords[2:]))
            assert dimension(3, d) == dimension(3, dual_degree(3, d))


class TestClosedRoute:
    def test_matches_recursion_small(self):
        for d in box_degrees(4, (-4, 4), (-1, 1), (-1, 1)):
            assert part2_closed(4, d) == part2(4, d), str(d)

    def test_needs_n4(self):
        with pytest.raises(DegreeError):
            part2_closed(3, zero_degree(3))


class TestSummands:
    def test_counts(self):
        assert summand_count(1) == 2
        assert summand_count(2) == 6
        assert summand_count(3) == 13
        assert summand_count(4) == 22
        assert summand_count(6) == 46

    def test_formula(self):
        for n in range(3, 9):
            assert summand_count(n) == n * n + 2 * n - 2

    def test_audit_trail(self):
        audit = summand_audit(5)
        assert audit["families"]["P2"] == 18
        assert [row["p2_families"] for row in audit["p2_recurrence"]] == [4, 10, 18]


class TestInductionSlice:
    def test_bijection(self):
        from hf2.monomial import eps_rename
        from hf2.reps import pullback_eps

        for d in box_degrees(2, (-6, 6), (-2, 2), (-2, 2)):
            renamed = {str(eps_rename(m)) for m in basis(2, d).monomials()}
            assert renamed == basis_strs(3, pullback_eps(d)), str(d)


def test_basis_pinned():
    """Engine output over 500 seeded degrees per n = 1..6, tags and depths
    included, pinned by digest.  The closed-form fixtures stop at n = 3 and
    part2_closed compares part (2) only; this catches any change to what
    basis lists, under which tag and at which renaming depth."""
    rng = random.Random(8)
    h = hashlib.sha1()
    for n in range(1, 7):
        for _ in range(500):
            t, a = rng.randint(-8, 8), rng.randint(-3, 3)
            d = make_degree(n, t, a, [rng.randint(-2, 2) for _ in range(n - 1)])
            h.update(json.dumps([e.to_json() for e in basis(n, d).sorted_elements()]).encode())
    assert h.hexdigest() == "221dbf12f318e5ceb1237c01b6819e2d92a67b50"


class TestValueTypes:
    """BasisElement and AnswerBasis are immutable values, equal and hashed by
    their fields; BasisElement orders by them and AnswerBasis has no order."""

    D = make_degree(3, -3, 0, [0, 2])

    def test_equality_and_hash(self):
        a, b = basis(3, self.D), basis(3, make_degree(3, -3, 0, (0, 2)))
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != basis(3, zero_degree(3))
        assert a == (3, self.D, a.elements)
        e = min(a.elements)
        assert e == BasisElement(e.monomial, e.part, e.depth) and hash(e) == hash(tuple(e))

    def test_element_order_is_by_fields(self):
        elements = [e for d in box_degrees(3, (-3, 3), (-1, 1), (-1, 1)) for e in basis(3, d).elements]
        assert len({e.part for e in elements}) >= 3
        assert sorted(elements) == sorted(elements, key=lambda e: (e.monomial, e.part, e.depth))

    def test_answer_has_no_order(self):
        a, b = basis(3, self.D), basis(3, zero_degree(3))
        for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
            with pytest.raises(TypeError):
                compare()

    def test_fields_cannot_be_assigned(self):
        a = basis(3, self.D)
        with pytest.raises(AttributeError):
            a.elements = frozenset()
        with pytest.raises(AttributeError):
            min(a.elements).depth = 5

    def test_repr(self):
        e = BasisElement(parse_monomial("1", 1), "POS", 0)
        assert repr(e) == (
            "BasisElement(monomial=Monomial(n=1, sigma=0, e_a_alpha=0, e_u_alpha=0, "
            "e_a_lambda=(), e_u_lambda=()), part='POS', depth=0)"
        )
        assert repr(AnswerBasis(1, zero_degree(1), frozenset([e]))) == (
            f"AnswerBasis(n=1, degree=Degree(n=1, t=0, c_alpha=0, c_lambda=()), "
            f"elements=frozenset({{{e!r}}}))"
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        a = basis(3, self.D)
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is AnswerBasis and back == a
        assert back.sorted_elements() == a.sorted_elements()
