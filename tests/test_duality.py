import pytest
from hypothesis import given, strategies as st

from hf2.duality import dual_degree, dual_monomial, duality_scan, lambda_class
from hf2.engine import dimension
from hf2.monomial import Monomial, MonomialError, degree_of, parse_monomial, unit
from hf2.reps import Degree, DegreeError, lambda_degree, make_degree, trivial_degree, zero_degree

from fixtures import box_degrees


def degrees(n):
    coord = st.integers(-8, 8)
    return st.builds(
        lambda t, a, lam: make_degree(n, t, a, lam),
        coord,
        coord,
        st.tuples(*([coord] * (n - 1))),
    )


class TestDualDegree:
    def test_zero(self):
        assert dual_degree(2, zero_degree(2)) == make_degree(2, -2, 0, [1])

    def test_unit_degree_back_to_zero(self):
        assert dual_degree(2, make_degree(2, -2, 0, [1])) == zero_degree(2)

    @given(degrees(3))
    def test_involution(self, d):
        assert dual_degree(3, dual_degree(3, d)) == d

    def test_needs_lambda0(self):
        with pytest.raises(DegreeError):
            dual_degree(1, zero_degree(1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_closed_form_is_the_difference(self, n):
        # lambda_0 - 2 - d through the Degree arithmetic, and back again
        unit = lambda_degree(n, 0) - trivial_degree(n, 2)
        for d in box_degrees(n, (-3, 3), (-1, 1), (-1, 1)):
            dd = dual_degree(n, d)
            assert type(dd) is Degree and dd == unit - d, str(d)
            assert dual_degree(n, dd) == d

    def test_degree_over_another_group_refused(self):
        with pytest.raises(DegreeError, match="expected 3"):
            dual_degree(3, zero_degree(2))


class TestDualMonomial:
    def test_unit_pair(self):
        lam = lambda_class(2)
        assert dual_monomial(unit(2)) == lam
        assert dual_monomial(lam) == unit(2)

    def test_alpha(self):
        got = dual_monomial(parse_monomial("aA", 2))
        assert str(got) == "S * uA^-1 * aL0^-1"

    def test_orientation_monomial(self):
        got = dual_monomial(parse_monomial("aL0 * uL0", 2))
        assert str(got) == "S * aA * uA^-1 * aL0^-2 * uL0^-1"

    def test_degree_compatibility(self):
        for ea in (0, 1):
            for eu in range(3):
                for k in range(3):
                    for ul in range(3):
                        m = Monomial(2, 0, ea, eu, (k,), (ul,))
                        dm = dual_monomial(m)
                        assert degree_of(dm) == dual_degree(2, degree_of(m))

    def test_involution_on_supported_set(self):
        for ea in (0, 1):
            for eu in range(3):
                for k in range(3):
                    m = Monomial(3, 0, ea, eu, (k, 0), (1, 2))
                    assert dual_monomial(dual_monomial(m)) == m

    def test_unsupported_shapes(self):
        with pytest.raises(MonomialError):
            dual_monomial(parse_monomial("aA^2", 2))
        with pytest.raises(MonomialError):
            dual_monomial(parse_monomial("aL1", 3))
        with pytest.raises(MonomialError):
            dual_monomial(parse_monomial("uA^-1", 2))


class TestScan:
    def test_small_boxes_symmetric(self):
        for n in (2, 3):
            report = duality_scan(n, box_degrees(n, (-6, 6), (-2, 2), (-2, 2)))
            assert report["pass"], report["mismatches"][:3]

    def test_degenerate_box(self):
        report = duality_scan(2, [zero_degree(2)])
        assert report["checked"] == 1 and report["pass"]
        assert dimension(2, zero_degree(2)) == 1

    def test_oracle_level_symmetry(self):
        from hf2.oracle import oracle_top_dim

        for d in box_degrees(2, (-4, 4), (-2, 2), (-2, 2)):
            assert oracle_top_dim(2, d) == oracle_top_dim(2, dual_degree(2, d))
