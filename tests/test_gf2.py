import random

import pytest
from hypothesis import given, settings, strategies as st

from hf2.gf2 import (
    CohomologyReducer,
    InternalInvariantError,
    Span,
    columns_to_bitstrings,
    nullspace,
    rank,
)


class TestSpan:
    def test_rank_known(self):
        # rows 101, 011, 110 over F_2: third = first + second
        assert rank([0b101, 0b011, 0b110]) == 2

    def test_express(self):
        s = Span()
        s.absorb([0b101], tagged=True)
        s.absorb([0b011], tagged=True)
        assert s.express(0b110) == 0b11  # sum of both generators
        assert s.express(0b001) is None

    def test_contains(self):
        s = Span()
        s.absorb([0b1], tagged=True)
        assert s.express(0b1) is not None and s.express(0b10) is None


class TestNullspace:
    def test_zero_map(self):
        assert sorted(nullspace([0, 0])) == [0b01, 0b10]

    def test_identityish(self):
        assert nullspace([0b1, 0b10]) == []

    def test_rank_nullity(self):
        rng = random.Random(7)
        for _ in range(50):
            cols = [rng.getrandbits(8) for _ in range(rng.randrange(1, 12))]
            assert rank(cols) + len(nullspace(cols)) == len(cols)

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(11)
        for _ in range(30):
            cols = [rng.getrandbits(6) for _ in range(10)]
            for kv in nullspace(cols):
                img = 0
                for i in range(10):
                    if (kv >> i) & 1:
                        img ^= cols[i]
                assert img == 0


class TestReducer:
    def test_dims(self):
        # d_in: image spanned by 110; d_out: kernel = {000, 110, 011, 101}
        red = CohomologyReducer(3, [0b110], [0b1, 0b1, 0b1])
        assert red.h_dim == 1

    def test_express_mod_boundary(self):
        red = CohomologyReducer(2, [0b11], [0, 0])
        assert red.h_dim == 1
        # the two basis vectors agree modulo the boundary 11
        assert red.express(0b01) == red.express(0b10)

    def test_rejects_non_cocycle(self):
        red = CohomologyReducer(2, [], [0b1, 0])
        with pytest.raises(ValueError):
            red.express(0b01)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            CohomologyReducer(3, [], [0])


def test_bitstrings():
    assert columns_to_bitstrings([0b101], 3) == ["101"]
    assert columns_to_bitstrings([0], 2) == ["00"]


# -- properties against brute-force enumeration --------------------------------
#
# Up to 12 columns of up to 12 bits: every combination of columns is listed.
# These pin the invariant the oracle's output rests on: which generators are
# kept, the kernel basis and every coordinate are determined by the columns
# alone, not by how elimination proceeds.

MATRICES = st.integers(0, 12).flatmap(
    lambda bits: st.lists(st.integers(0, (1 << bits) - 1), max_size=12)
)
NOISE = st.one_of(st.just(0), st.integers(0, (1 << 12) - 1))


def _apply(cols, x: int) -> int:
    out = 0
    for i, c in enumerate(cols):
        if x >> i & 1:
            out ^= c
    return out


def _subset_sums(cols) -> list[int]:
    """sums[m] is the sum of the columns selected by the bitmask m."""
    sums = [0]
    for c in cols:
        sums += [x ^ c for x in sums]
    return sums


def _greedy_independent(cols) -> list[int]:
    """Indices of the columns outside the span of the columns before them."""
    out, reach = [], {0}
    for j, c in enumerate(cols):
        if c not in reach:
            out.append(j)
            reach |= {x ^ c for x in reach}
    return out


def _combinations(cols, idx, v: int) -> list[int]:
    """Every subset of the columns idx, as a bitmask over column indices,
    that sums to v."""
    sums = _subset_sums([cols[i] for i in idx])
    return [
        sum(1 << i for b, i in enumerate(idx) if m >> b & 1)
        for m, x in enumerate(sums)
        if x == v
    ]


@st.composite
def complexes(draw):
    """(dim, d_in, d_out) with d_out d_in = 0."""
    dim = draw(st.integers(0, 10))
    d_out = draw(st.lists(st.integers(0, 255), min_size=dim, max_size=dim))
    kernel = [x for x in range(1 << dim) if _apply(d_out, x) == 0]
    d_in = draw(st.lists(st.sampled_from(kernel), max_size=8))
    return dim, d_in, d_out


class TestAgainstBruteForce:
    @settings(deadline=None)
    @given(MATRICES)
    def test_rank(self, cols):
        assert 1 << rank(cols) == len(set(_subset_sums(cols)))

    @settings(deadline=None)
    @given(MATRICES, st.integers(0), NOISE)
    def test_contains_and_express(self, cols, pick, noise):
        v = _subset_sums(cols)[pick % (1 << len(cols))] ^ noise
        s = Span()
        kept = [j for j, c in enumerate(cols) if not s.absorb([c], tagged=True)]
        assert kept == _greedy_independent(cols)
        hits = _combinations(cols, kept, v)
        assert len(hits) <= 1  # coordinates over kept generators are unique
        assert s.express(v) == (hits[0] if hits else None)

    @settings(deadline=None)
    @given(MATRICES)
    def test_nullspace_is_greedy_canonical(self, cols):
        kept = _greedy_independent(cols)
        expected = []
        for j, c in enumerate(cols):
            if j not in kept:
                (comb,) = _combinations(cols, [i for i in kept if i < j], c)
                expected.append(1 << j | comb)
        assert nullspace(cols) == expected

    @settings(deadline=None)
    @given(complexes(), st.data())
    def test_reducer(self, cx, data):
        dim, d_in, d_out = cx
        red = CohomologyReducer(dim, d_in, d_out)
        kernel = [x for x in range(1 << dim) if _apply(d_out, x) == 0]
        image = sorted(set(_subset_sums(d_in)))
        assert 1 << red.h_dim == len(kernel) // len(image)
        # representatives: the kernel basis vectors independent of the image
        # and of the representatives before them
        reps = []
        for z in nullspace(d_out):
            if z not in _subset_sums(d_in + reps):
                reps.append(z)
        assert red.reps == reps
        assert [red.express(z) for z in reps] == [1 << i for i in range(len(reps))]
        z1, z2 = data.draw(st.sampled_from(kernel)), data.draw(st.sampled_from(kernel))
        b = data.draw(st.sampled_from(image))
        assert red.express(z1 ^ b) == red.express(z1)  # well defined mod boundaries
        assert (red.express(z1) == 0) == (z1 in image)
        assert red.express(z1 ^ z2) == red.express(z1) ^ red.express(z2)
        non_cocycles = [x for x in range(1 << dim) if _apply(d_out, x)]
        if non_cocycles:
            with pytest.raises(InternalInvariantError):
                red.express(data.draw(st.sampled_from(non_cocycles)))

    @settings(deadline=None)
    @given(complexes())
    def test_reducer_clears(self, cx):
        # clearing: no representative touches a leading bit of a boundary,
        # and the one pass gives the rank formula's dimension
        dim, d_in, d_out = cx
        red = CohomologyReducer(dim, d_in, d_out)
        cleared = {b.bit_length() - 1 for b in _subset_sums(d_in) if b}
        assert all(z >> i & 1 == 0 for z in red.reps for i in cleared)
        assert red.h_dim == dim - rank(d_out) - rank(d_in)
        assert [red.express(z) for z in red.reps] == [1 << i for i in range(red.h_dim)]
