import pytest

from hf2.monomial import degree_of
from hf2.reps import DegreeError, make_degree, trivial_degree, zero_degree
from hf2.tate import group_cohomology_dim, hb_basis, hh_basis, ht_basis, perp_hb_basis

from fixtures import box_degrees, brute_tate_rows


def strs(ms):
    return {str(m) for m in ms}


class TestGroupCohomology:
    def test_values(self):
        assert group_cohomology_dim(1, 5) == 1
        assert group_cohomology_dim(3, 0) == 1
        assert group_cohomology_dim(3, -1) == 0

    def test_bad_n(self):
        with pytest.raises(DegreeError):
            group_cohomology_dim(0, 0)


class TestBorel:
    def test_euler_class(self):
        assert strs(hh_basis(2, make_degree(2, 0, 0, [-1]))) == {"aL0"}

    def test_unit(self):
        assert strs(hh_basis(2, zero_degree(2))) == {"1"}

    def test_solver_case(self):
        # 2 - 2 alpha is hit by u_alpha^2 alone
        assert strs(hh_basis(1, make_degree(1, 2, -2, []))) == {"uA^2"}

    def test_dims_at_most_one(self):
        for d in box_degrees(2, (-6, 6), (-2, 2), (-2, 2)):
            assert len(hh_basis(2, d)) <= 1


class TestTate:
    def test_inverted_euler(self):
        assert strs(ht_basis(2, make_degree(2, 0, 0, [1]))) == {"aL0^-1"}
        assert strs(ht_basis(1, make_degree(1, 0, 1, []))) == {"aA^-1"}

    def test_unit(self):
        assert strs(ht_basis(2, zero_degree(2))) == {"1"}

    def test_everywhere_one_dimensional(self):
        for n in (1, 2, 3):
            for d in box_degrees(n, (-5, 5), (-2, 2), (-2, 2)):
                assert len(ht_basis(n, d)) == 1


class TestOrbits:
    def test_first_negative_power(self):
        assert strs(hb_basis(1, make_degree(1, -2, 2, []))) == {"S * aA^-1 * uA^-1"}

    def test_single_inverse_euler(self):
        # alpha - 1 carries S a_alpha^-1
        assert strs(hb_basis(1, make_degree(1, -1, 1, []))) == {"S * aA^-1"}

    def test_lambda_inverse(self):
        assert strs(hb_basis(2, make_degree(2, -1, 0, [1]))) == {"S * aL0^-1"}

    def test_degrees(self):
        for n in (1, 2, 3):
            for d in box_degrees(n, (-5, 5), (-2, 2), (-2, 2)):
                for m in hb_basis(n, d):
                    assert degree_of(m) == d


class TestPerpSlice:
    def test_first_power(self):
        assert strs(perp_hb_basis(2, make_degree(2, 1, 0, [0]))) == {"S * aL0^-1 * uL0"}
        assert strs(perp_hb_basis(3, make_degree(3, 1, 0, [0, 0]))) == {"S * aL0^-1 * uL0"}

    def test_even_offset_with_alpha_factor(self):
        got = strs(perp_hb_basis(2, make_degree(2, 0, 0, [0])))
        assert got == {"S * aA * uA^-1 * aL0^-1 * uL0"}

    def test_empty_below(self):
        assert perp_hb_basis(2, make_degree(2, -3, 0, [0])) == frozenset()
        assert perp_hb_basis(3, make_degree(3, -3, 0, [0, 0])) == frozenset()

    def test_precondition(self):
        with pytest.raises(DegreeError):
            perp_hb_basis(2, make_degree(2, 0, 0, [1]))
        with pytest.raises(DegreeError):
            perp_hb_basis(1, make_degree(1, 0, 1, []))

    def test_matched_powers(self):
        for d in box_degrees(1, (-8, 8), (0, 0), (0, 0)):
            for m in perp_hb_basis(1, d):
                assert m.e_u_alpha == -m.e_a_alpha


class TestRowIdentities:
    def test_exactness(self):
        for n in (1, 2, 3):
            for d in box_degrees(n, (-8, 8), (-3, 3), (-3, 3)):
                lhs = len(hb_basis(n, d - trivial_degree(n, 1)))
                assert lhs == len(ht_basis(n, d)) - len(hh_basis(n, d)), str(d)

    def test_localization(self):
        # every Borel monomial is a Tate monomial; the rest of Tate is a
        # nonnegative Euler-power shift of a Borel class
        from hf2.monomial import times_a_lambda

        for d in box_degrees(2, (-6, 6), (-2, 2), (-2, 2)):
            hh = hh_basis(2, d)
            ht = ht_basis(2, d)
            assert hh <= ht
            for m in ht - hh:
                k = -m.e_a_lambda[0]
                assert k >= 1
                shifted = times_a_lambda(m, 0, k)
                assert shifted in hh_basis(2, degree_of(shifted))

    def test_no_positive_higher_euler_powers(self):
        for n in (2, 3):
            for d in box_degrees(n, (-5, 5), (-2, 2), (-2, 2)):
                for m in hh_basis(n, d) | ht_basis(n, d) | hb_basis(n, d):
                    assert all(a <= 0 for a in m.e_a_lambda[1:])
                    assert m.e_a_alpha <= 1


def test_rows_match_search():
    # criterion 7's boxes plus n = 1, symbol for symbol
    boxes = {
        1: ((-10, 10), (-4, 4), (0, 0)),
        2: ((-10, 10), (-3, 3), (-3, 3)),
        3: ((-8, 8), (-2, 2), (-2, 2)),
    }
    rows = {"hh": hh_basis, "ht": ht_basis, "hb": hb_basis}
    total = 0
    for n, box in boxes.items():
        for d in box_degrees(n, *box):
            total += 1
            want = brute_tate_rows(n, d)
            for name, row in rows.items():
                assert strs(row(n, d)) == want[name], (name, str(d))
    assert total == 189 + 1029 + 2125
