import pytest
from hypothesis import given, strategies as st

from hf2.reps import (
    Degree,
    DegreeError,
    alpha_degree,
    fixed_dim,
    format_degree,
    lambda_degree,
    make_degree,
    parse_degree,
    pullback_eps,
    restrict,
    strip_lambda0,
    trivial_degree,
    underlying_dim,
    zero_degree,
)
from hf2.oracle import check_budget, mult_a_alpha, oracle_pi, oracle_top_dim, verify_lemma_kernel
from hf2.tate import hb_basis, hh_basis, ht_basis, perp_hb_basis


def degrees(n, lo=-6, hi=6):
    coord = st.integers(lo, hi)
    return st.builds(
        lambda t, a, lam: make_degree(n, t, a, lam),
        coord,
        coord,
        st.tuples(*([coord] * (n - 1))),
    )


class TestMakeDegree:
    def test_constructor(self):
        d = make_degree(3, 1, 1, [2, 0])
        assert (d.n, d.t, d.c_alpha, d.c_lambda) == (3, 1, 1, (2, 0))

    def test_zero_for_c2(self):
        assert make_degree(1, 0, 0, []) == zero_degree(1)

    def test_length_mismatch(self):
        with pytest.raises(DegreeError, match="c_lambda"):
            make_degree(2, 0, 0, [1, 0])

    def test_bad_n(self):
        with pytest.raises(DegreeError, match="n"):
            make_degree(0, 0, 0, [])


class TestDims:
    def test_underlying(self):
        assert underlying_dim(make_degree(3, 1, 1, [2, 0])) == 6
        assert underlying_dim(zero_degree(3)) == 0
        assert underlying_dim(make_degree(2, -1, 0, [-1])) == -3

    def test_fixed(self):
        d = make_degree(3, 1, 1, [2, 0])
        assert fixed_dim(d, 1) == 2
        assert fixed_dim(d, 0) == 6
        assert fixed_dim(make_degree(3, 0, 0, [0, 1]), 1) == 2

    def test_fixed_range(self):
        with pytest.raises(DegreeError):
            fixed_dim(zero_degree(2), 3)

    def test_fixed_at_zero_is_underlying(self):
        d = make_degree(4, 3, -2, [1, 0, -1])
        assert fixed_dim(d, 0) == underlying_dim(d)

    def test_generator_thresholds(self):
        # exhaustive over generators and levels
        for n in (1, 2, 3, 4):
            for k in range(n + 1):
                assert fixed_dim(trivial_degree(n, 1), k) == 1
                assert fixed_dim(alpha_degree(n), k) == (1 if k <= n - 1 else 0)
                for j in range(n - 1):
                    assert fixed_dim(lambda_degree(n, j), k) == (2 if k <= j else 0)

    @given(degrees(3), degrees(3))
    def test_additive(self, d1, d2):
        assert underlying_dim(d1 + d2) == underlying_dim(d1) + underlying_dim(d2)
        for k in range(4):
            assert fixed_dim(d1 + d2, k) == fixed_dim(d1, k) + fixed_dim(d2, k)


class TestRestrict:
    def test_lambda1_to_c4(self):
        assert restrict(lambda_degree(3, 1), 2) == make_degree(2, 0, 2, [0])

    def test_lambda1_to_c2(self):
        assert restrict(lambda_degree(3, 1), 1) == make_degree(1, 2, 0, [])

    def test_identity(self):
        assert restrict(lambda_degree(3, 0), 3) == lambda_degree(3, 0)

    def test_to_trivial_group(self):
        assert restrict(make_degree(3, 1, 1, [2, 0]), 0) == 6

    @given(degrees(3), degrees(3))
    def test_additive(self, d1, d2):
        for m in (1, 2, 3):
            assert restrict(d1 + d2, m) == restrict(d1, m) + restrict(d2, m)

    @given(degrees(4))
    def test_transitive(self, d):
        for m in (1, 2, 3):
            for m2 in range(1, m + 1):
                assert restrict(restrict(d, m), m2) == restrict(d, m2)


class TestPullback:
    def test_lambda_shift(self):
        assert pullback_eps(lambda_degree(2, 0)) == lambda_degree(3, 1)

    def test_alpha_fixed(self):
        assert pullback_eps(alpha_degree(2)) == alpha_degree(3)

    def test_zero(self):
        assert pullback_eps(zero_degree(2)) == zero_degree(3)

    @given(degrees(2))
    def test_injective_image(self, d):
        up = pullback_eps(d)
        assert up.c_lambda[0] == 0
        assert strip_lambda0(up) == d

    @given(degrees(3))
    def test_image_is_exactly_the_slice(self, d):
        d0 = Degree(d.n, d.t, d.c_alpha, (0,) + d.c_lambda[1:])
        assert pullback_eps(strip_lambda0(d0)) == d0


class TestTextForm:
    def test_format(self):
        assert format_degree(make_degree(3, -3, 0, [0, 2])) == "-3,0,0,2"

    def test_roundtrip(self):
        for s, n in [("-3,0,0,2", 3), ("0,0", 1), ("5,-1,2", 2)]:
            assert format_degree(parse_degree(s, n)) == s

    def test_parse_errors(self):
        with pytest.raises(DegreeError):
            parse_degree("1,2,3", 3)
        with pytest.raises(DegreeError):
            parse_degree("1,x,3", 2)


@pytest.mark.parametrize("query", [
    lambda d: hh_basis(1, d),
    lambda d: ht_basis(1, d),
    lambda d: hb_basis(1, d),
    lambda d: perp_hb_basis(3, d),
    lambda d: oracle_top_dim(3, d),
    lambda d: oracle_pi(1, d),
    lambda d: mult_a_alpha(3, d, 3),
    lambda d: verify_lemma_kernel(3, d),
    lambda d: check_budget(1, d),
], ids=["hh_basis", "ht_basis", "hb_basis", "perp_hb_basis", "oracle_top_dim", "oracle_pi",
        "mult_a_alpha", "verify_lemma_kernel", "check_budget"])
def test_degree_over_another_group_refused(query):
    with pytest.raises(DegreeError, match=r"^degree is over n=2, expected [13]$"):
        query(make_degree(2, 0, 0, [5]))
