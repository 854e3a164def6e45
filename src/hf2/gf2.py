"""Dense GF(2) linear algebra on int bitmasks.

Vectors in F_2^dim are Python ints with bit i = coordinate i.  Matrices are
stored column-major as lists of such ints (columns[j] = image of the j-th
source basis vector).  Sizes here stay in the low thousands, where int XOR
beats anything fancier.
"""

from __future__ import annotations


class InternalInvariantError(ValueError):
    """An invariant the oracle's own construction guarantees was violated;
    this is a defect in hf2, never a problem with the caller's input."""


class Span:
    """Row-echelon span with optional tracking of generator coordinates.

    Each stored row keeps the combination of added generators that produced
    it, so express() can return coordinates of a vector over the generators.
    """

    def __init__(self):
        self.rows: list[tuple[int, int, int]] = []  # (pivot, vector, combination)
        self.n_gens = 0

    def _reduce(self, v: int, comb: int) -> tuple[int, int]:
        for pivot, row, rcomb in self.rows:
            if (v >> pivot) & 1:
                v ^= row
                comb ^= rcomb
        return v, comb

    def add(self, v: int) -> bool:
        """Add a generator; returns True if it enlarged the span."""
        gen_index = self.n_gens
        self.n_gens += 1
        v, comb = self._reduce(v, 1 << gen_index)
        if v == 0:
            return False
        self.rows.append((v.bit_length() - 1, v, comb))
        return True

    def contains(self, v: int) -> bool:
        return self._reduce(v, 0)[0] == 0

    def express(self, v: int):
        """Coordinates of v over the added generators (bitmask), or None."""
        v, comb = self._reduce(v, 0)
        return comb if v == 0 else None

    @property
    def dim(self) -> int:
        return len(self.rows)


def rank(vectors) -> int:
    s = Span()
    for v in vectors:
        s.add(v)
    return s.dim


def nullspace(columns: list[int]) -> list[int]:
    """Kernel basis of the map with the given columns.

    Returns bitmasks over the column index space (vectors x with A x = 0).
    """
    s = Span()
    kernel = []
    for j, col in enumerate(columns):
        v, comb = s._reduce(col, 1 << j)
        if v == 0:
            kernel.append(comb)
        else:
            s.rows.append((v.bit_length() - 1, v, comb))
        s.n_gens += 1
    return kernel


class CohomologyReducer:
    """Basis of ker(d_out)/im(d_in) plus coordinates for arbitrary cocycles."""

    def __init__(self, dim: int, d_in_columns: list[int], d_out_columns: list[int]):
        if len(d_out_columns) != dim:
            raise ValueError("d_out must have one column per basis vector (zeros allowed)")
        self.dim = dim
        self.span = Span()
        for col in d_in_columns:
            self.span.add(col)
        self.reps: list[int] = []
        self._rep_gen_indices: list[int] = []
        for z in nullspace(d_out_columns):
            idx = self.span.n_gens
            if self.span.add(z):
                self.reps.append(z)
                self._rep_gen_indices.append(idx)

    @property
    def h_dim(self) -> int:
        return len(self.reps)

    def express(self, v: int) -> int:
        """Coordinates of the class of a cocycle v over the chosen basis."""
        comb = self.span.express(v)
        if comb is None:
            raise InternalInvariantError("vector is not a cocycle of this degree")
        out = 0
        for i, gen_idx in enumerate(self._rep_gen_indices):
            if (comb >> gen_idx) & 1:
                out |= 1 << i
        return out


def columns_to_bitstrings(columns: list[int], dim: int) -> list[str]:
    return ["".join("1" if (c >> i) & 1 else "0" for i in range(dim)) for c in columns]
