"""The dense matrix arithmetic that `Matrix` ran before it kept only its
nonzero columns, kept as the oracle of the column store.

`DenseMatrix` holds every entry in `entries`, a tuple of dense rows of
Scalars, and does one Scalar operation per entry: `+`, `-` and `scale`
entry by entry, `@` row by row, and `apply` and `column` over whole
columns.  Unlike the old `Matrix`, equality and the hash read the shape
as well as the entries, so an empty 0 x 3 and 0 x 5 differ.

`Matrix` has no dense constructor and no dense view: tests build their
matrices as `DenseMatrix(rows).to_matrix()` or
`DenseMatrix.from_columns(columns, rows=n).to_matrix()`, and read the
dense rows of a `Matrix` M as `DenseMatrix.of(M).entries`.
"""

from nctangent.scalars import ONE, ZERO, Matrix, Scalar


class DenseMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = tuple(tuple(Scalar.promote(e) for e in row) for row in entries)
        rows = len(entries)
        if rows:
            width = len(entries[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count contradicts entries")
            cols = width
        elif cols is None:
            cols = 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        self.rows, self.cols, self.entries = rows, cols, entries

    @classmethod
    def of(cls, matrix):
        """The dense copy of a `Matrix`, read from its nonzero columns."""
        dense = [[ZERO] * matrix.cols for _ in range(matrix.rows)]
        for j, column in enumerate(matrix.nonzero_columns()):
            for i, a in column:
                dense[i][j] = a
        return cls(dense, cols=matrix.cols)

    def to_matrix(self):
        """The `Matrix` with these entries: the nonzero `(row, entry)`
        pairs of each column, through `Matrix._of`."""
        return Matrix._of(
            [tuple((i, a) for i, a in enumerate(self.column(j)) if a) for j in range(self.cols)],
            self.rows,
        )

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def zero(cls, rows, cols):
        return cls([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        if not columns:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            return cls.zero(rows, 0)
        n = len(columns[0])
        if rows is not None and rows != n:
            raise ValueError("explicit row count contradicts the columns")
        if any(len(col) != n for col in columns):
            raise ValueError("ragged columns")
        return cls(list(zip(*columns)) if n else [], cols=len(columns))

    def column(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column index %r out of range" % (j,))
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other):
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return DenseMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DenseMatrix([[-a for a in row] for row in self.entries], self.cols)

    def scale(self, c):
        c = Scalar.promote(c)
        return DenseMatrix([[c * a for a in row] for row in self.entries], self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        for ri in self.entries:
            row = [ZERO] * other.cols
            for a, brow in zip(ri, other.entries):
                if a:
                    row = [x + a * b for x, b in zip(row, brow)]
            out.append(row)
        return DenseMatrix(out, other.cols)

    def apply(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum((a * x for a, x in zip(row, v)), ZERO) for row in self.entries)

    def is_zero(self):
        return not any(a for row in self.entries for a in row)
