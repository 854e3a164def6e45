"""Dense GF(2) linear algebra on int bitmasks.

Vectors in F_2^dim are Python ints with bit i = coordinate i.  Matrices are
stored column-major as lists of such ints (columns[j] = image of the j-th
source basis vector).  Cohomology takes one elimination with clearing (the
"twist" of Chen-Kerber): with d_in reduced first, a d_out column whose index
j leads some boundary b equals d_out of b + e_j, which lies below j, so it is
skipped; the kernel of the other columns is then a basis of cohomology, as
none of its vectors leads at a boundary pivot.

Elimination keys each stored row by its leading bit (its pivot), so reducing
a vector costs one dictionary lookup per XOR it actually needs.  Every
elimination (`rank`, `nullspace`, `CohomologyReducer`) is a `Span.absorb` of
a whole column list, which runs that walk inline.  Results do not depend on
the order rows are met in: a generator is kept exactly when it lies outside
the span of the ones before it, and coordinates over the kept generators are
unique.  The kernel basis of `nullspace`, the representatives of
`CohomologyReducer` and every coordinate vector are therefore fixed by the
input columns alone (tests/test_gf2.py checks this against brute force).
"""

from __future__ import annotations


class InternalInvariantError(ValueError):
    """An invariant the oracle's own construction guarantees was violated;
    this is a defect in hf2, never a problem with the caller's input."""


class Span:
    """Span of added generators, kept as rows keyed by their leading bit.

    Every stored row has a distinct leading bit, its pivot, so each nonzero
    vector of the span has a pivot as its leading bit.  Reduction therefore
    looks up the vector's current top bit: a hit is an XOR that must happen,
    a miss (or 0) ends it, and rows that cannot apply are never visited.

    Each row keeps the combination of added generators that produced it, so
    express() can return coordinates of a vector over the generators.  A
    generator is kept exactly when it is independent of the earlier ones,
    and coordinates over independent generators are unique, so neither the
    kept generators nor any coordinates depend on how elimination proceeds.
    """

    def __init__(self):
        self.pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, combination)
        self.n_gens = 0

    def _reduce(self, v: int, comb: int) -> tuple[int, int]:
        """(v, comb) minus span rows until v is 0 or its top bit is no pivot."""
        pivots = self.pivots
        while v:
            row = pivots.get(v.bit_length() - 1)
            if row is None:
                break
            v ^= row[0]
            comb ^= row[1]
        return v, comb

    def absorb(self, columns: list[int], tagged: bool = False, skip=()) -> list[int]:
        """Reduce each column whose index is not in skip and keep it as a new
        row unless it reduces to 0.  Tagged columns are generators, column j
        with combination 1 << (n_gens + j); untagged ones carry 0.  Returns
        the combinations of the columns that reduced to 0, in order."""
        pivots = self.pivots
        first = self.n_gens
        kernel = []
        for j, v in enumerate(columns):
            if j in skip:
                continue
            comb = 1 << first + j if tagged else 0
            while v:
                top = v.bit_length() - 1
                row = pivots.get(top)
                if row is None:
                    pivots[top] = (v, comb)
                    break
                v ^= row[0]
                comb ^= row[1]
            else:
                kernel.append(comb)
        if tagged:
            self.n_gens += len(columns)
        return kernel

    def add(self, v: int) -> bool:
        """Add a generator; returns True if it enlarged the span."""
        return not self.absorb([v], tagged=True)

    def contains(self, v: int) -> bool:
        return self._reduce(v, 0)[0] == 0

    def express(self, v: int):
        """Coordinates of v over the added generators (bitmask), or None."""
        v, comb = self._reduce(v, 0)
        return comb if v == 0 else None

    @property
    def dim(self) -> int:
        return len(self.pivots)


def rank(vectors: list[int]) -> int:
    s = Span()
    s.absorb(vectors)  # no generator coordinates are needed
    return s.dim


def nullspace(columns: list[int]) -> list[int]:
    """Kernel basis of the map with the given columns.

    Returns bitmasks over the column index space (vectors x with A x = 0).
    """
    return Span().absorb(columns, tagged=True)


class CohomologyReducer:
    """Basis of ker(d_out)/im(d_in) plus coordinates for arbitrary cocycles,
    from one elimination with clearing (module docstring).

    The span holds d_in without coordinates, so a reduced cocycle's
    combination is its class.  The d_out columns off its pivots are reduced
    once, each tagged with its index, and each that reduces to 0 gives a
    representative, in column order: the kernel basis vectors of
    nullspace(d_out) independent of the image and of the ones before them.
    """

    def __init__(self, dim: int, d_in_columns: list[int], d_out_columns: list[int]):
        if len(d_out_columns) != dim:
            raise ValueError("d_out must have one column per basis vector (zeros allowed)")
        self.dim = dim
        self.span = Span()
        self.span.absorb(d_in_columns)  # its pivots are the cleared set
        self.reps = Span().absorb(d_out_columns, tagged=True, skip=self.span.pivots)
        self.span.absorb(self.reps, tagged=True)

    @property
    def h_dim(self) -> int:
        return len(self.reps)

    def express(self, v: int) -> int:
        """Coordinates of the class of a cocycle v over the chosen basis."""
        comb = self.span.express(v)
        if comb is None:
            raise InternalInvariantError("vector is not a cocycle of this degree")
        return comb


def columns_to_bitstrings(columns: list[int], dim: int) -> list[str]:
    return ["".join("1" if (c >> i) & 1 else "0" for i in range(dim)) for c in columns]
