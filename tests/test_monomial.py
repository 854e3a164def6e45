import pytest
from hypothesis import given, strategies as st

from hf2.monomial import (
    Monomial,
    MonomialError,
    degree_of,
    divide,
    eps_rename,
    format_monomial,
    is_gold_zero,
    multiply,
    parse_monomial,
    positive_cone_basis,
    times_a_lambda,
    unit,
)
from hf2.reps import make_degree, zero_degree

from fixtures import box_degrees, brute_positive_cone


def monomials(n, lo=-4, hi=4, sigma=st.integers(0, 1)):
    coord = st.integers(lo, hi)
    return st.builds(
        Monomial,
        st.just(n),
        sigma,
        coord,
        coord,
        st.tuples(*([coord] * (n - 1))),
        st.tuples(*([coord] * (n - 1))),
    )


LAMBDA_C4 = Monomial(2, 1, 1, -1, (-1,), (0,))


class TestDegree:
    def test_duality_unit_degree(self):
        assert degree_of(LAMBDA_C4) == make_degree(2, -2, 0, [1])

    def test_unit(self):
        assert degree_of(unit(3)) == zero_degree(3)

    def test_mixed(self):
        m = multiply(parse_monomial("aA", 2), parse_monomial("uL0", 2))
        assert degree_of(m) == make_degree(2, 2, -1, [-1])


class TestMultiply:
    def test_squares(self):
        m = multiply(parse_monomial("aA", 2), parse_monomial("aA", 2))
        assert m.e_a_alpha == 2

    def test_lambda_cancel(self):
        m = multiply(LAMBDA_C4, parse_monomial("aL0", 2))
        assert (m.sigma, m.e_a_alpha, m.e_u_alpha, m.e_a_lambda) == (1, 1, -1, (0,))

    def test_sigma_overflow(self):
        with pytest.raises(MonomialError, match="sigma"):
            multiply(LAMBDA_C4, LAMBDA_C4)

    def test_divide_inverts(self):
        assert divide(LAMBDA_C4, LAMBDA_C4) == unit(2)

    @given(monomials(3, sigma=st.just(0)), monomials(3, sigma=st.just(0)))
    def test_degree_additive(self, m1, m2):
        assert degree_of(multiply(m1, m2)) == degree_of(m1) + degree_of(m2)

    @given(monomials(2, sigma=st.just(1)), monomials(2, sigma=st.just(0)))
    def test_degree_additive_suspended(self, m1, m2):
        assert degree_of(multiply(m1, m2)) == degree_of(m1) + degree_of(m2)


class TestGold:
    def test_euler_above_orientation(self):
        m = Monomial(3, 0, 0, 0, (0, 1), (1, 0))  # aL1 * uL0
        assert is_gold_zero(m)

    def test_euler_below_orientation(self):
        m = Monomial(3, 0, 0, 0, (1, 0), (0, 1))  # aL0 * uL1
        assert not is_gold_zero(m)

    def test_alpha_square(self):
        m = Monomial(2, 0, 2, 0, (0,), (1,))  # aA^2 * uL0
        assert is_gold_zero(m)

    def test_preconditions(self):
        with pytest.raises(MonomialError):
            is_gold_zero(Monomial(2, 1, 0, 0, (0,), (0,)))
        with pytest.raises(MonomialError):
            is_gold_zero(Monomial(2, 0, -1, 0, (0,), (0,)))

    def test_sign_pattern_exhaustive(self):
        # every pair with an Euler class strictly above an orientation class dies
        for ea0 in range(2):
            for ea1 in range(2):
                for eu0 in range(2):
                    for eu1 in range(2):
                        m = Monomial(3, 0, 0, 0, (ea0, ea1), (eu0, eu1))
                        assert is_gold_zero(m) == bool(ea1 and eu0)


class TestPositiveCone:
    def test_gold_selects_survivor(self):
        d = make_degree(3, 2, 0, [-1, -1])
        assert {str(m) for m in positive_cone_basis(3, d)} == {"aL0 * uL1"}

    def test_unique_solution(self):
        d = make_degree(2, 3, -2, [-1])
        assert {str(m) for m in positive_cone_basis(2, d)} == {"aA * uA * uL0"}

    def test_unit_cone(self):
        for n in (1, 2, 3, 4):
            assert positive_cone_basis(n, zero_degree(n)) == frozenset({unit(n)})

    def test_against_brute(self):
        for d in box_degrees(3, (-6, 6), (-3, 1), (-3, 1)):
            got = {str(m) for m in positive_cone_basis(3, d)}
            assert got == brute_positive_cone(3, d), str(d)

    def test_degrees_match(self):
        for d in box_degrees(2, (-4, 6), (-3, 0), (-3, 0)):
            for m in positive_cone_basis(2, d):
                assert degree_of(m) == d


class TestRenaming:
    def test_eps_rename(self):
        m = Monomial(2, 1, 1, -2, (3,), (-1,))
        up = eps_rename(m)
        assert up == Monomial(3, 1, 1, -2, (0, 3), (0, -1))
        for k in (-2, 3):
            assert eps_rename(m, k) == times_a_lambda(up, 0, k)

    def test_times_a_lambda(self):
        m = times_a_lambda(unit(3), 1, -4)
        assert m.e_a_lambda == (0, -4)


class TestGrammar:
    def test_duality_unit(self):
        assert parse_monomial("S * aL0^-1 * aA * uA^-1", 2) == LAMBDA_C4
        assert format_monomial(LAMBDA_C4) == "S * aA * uA^-1 * aL0^-1"

    def test_unit(self):
        assert parse_monomial("1", 3) == unit(3)
        assert format_monomial(unit(3)) == "1"

    def test_index_out_of_range(self):
        with pytest.raises(MonomialError):
            parse_monomial("aL5", 3)

    def test_malformed(self):
        for bad in ("aB", "aL0^x", "S^2", "aL0 ^ 2"):
            with pytest.raises(MonomialError):
                parse_monomial(bad, 3)

    @given(monomials(3))
    def test_roundtrip(self, m):
        assert parse_monomial(format_monomial(m), 3) == m

    def test_roundtrip_on_engine_corpus(self):
        from hf2.engine import basis

        for d in box_degrees(3, (-5, 5), (-2, 2), (-2, 2)):
            for m in basis(3, d).monomials():
                assert parse_monomial(format_monomial(m), 3) == m
