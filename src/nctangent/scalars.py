"""Exact Gaussian-rational arithmetic and the sparse linear algebra under it.

Everything downstream runs over Q(i).  A `Scalar` is held as three
Python ints (a, b, q) meaning (a + b*i)/q, with q > 0 and
gcd(a, b, q) = 1, so each value has exactly one representation; its
real and imaginary parts are available as `fractions.Fraction` values.
Equality is exact everywhere; the package has no notion of tolerance.

Three layers live here:

* `Scalar`, the field element, with `ZERO`, `ONE`, `MINUS_ONE` and `I`;
* `Matrix`, stored by the nonzero `(row, entry)` pairs of its columns,
  and plain tuple vectors, with exact elimination, solving and null
  spaces.  The element kernels (`Matrix.apply`, `Matrix @` and `+`,
  `StarAlgebra.multiply` and its multiply-accumulate `_mac`,
  `StarAlgebra.involute`, `forms.koszul_d`), and the calculus routes on
  them, sum their products on the ints of the Scalars, in one
  accumulator (`_axpy` adds into a dict of running sums, `_scalars` and
  `_pairs` read it out), and build one Scalar per nonzero output
  coordinate.  One elimination, `eliminate`, works on sparse rows
  ({column: entry} dicts) and touches only nonzero entries;
  `solve_linear` and `nullspace` take such rows, and `rref` ranks dense
  rows through it.  The dense matrix arithmetic, solve and null space
  and the Scalar-operator routes are the oracles in tests/;
* `Subspace` (canonical reduced-echelon bases) with sums, intersections,
  and quotient projections.  A subspace keeps the sparse rows of its one
  elimination and builds its dense basis from them once; membership
  sums on ints along the rows, a sum eliminates both row lists, an
  intersection is one Zassenhaus elimination, and `quotient_projection`
  builds a quotient's projection column by column from one elimination
  of any spanning rows.  The dense routes are the oracles in tests/.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("cannot interpret %r as a rational number" % (x,))


class Scalar:
    """A Gaussian rational (a + b*i)/q held as reduced ints.

    q > 0 and gcd(a, b, q) = 1, so zero is (0, 0, 1) and two Scalars are
    equal exactly when their triples are.  `re` and `im` return the
    parts as `Fraction` values.  Results of arithmetic are built straight
    from ints, without going through `Fraction` or `__init__`; a zero
    term, or a factor of zero or one, hands back an operand unchanged,
    which is safe because Scalars are immutable.

    The triple `(_a, _b, _q)` is the element kernels' contract: they read
    it directly, sum their products on it in `_axpy`, and build their
    results with `_scalars`, which reduces each nonzero sum once.
    """

    __slots__ = ("_a", "_b", "_q")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            # (a, b, 1) is already reduced; bool and the rest take _frac
            _set_a(self, re)
            _set_b(self, im)
            _set_q(self, 1)
            return
        re = _frac(re)
        im = _frac(im)
        q, q2 = re.denominator, im.denominator
        a, b = re.numerator, im.numerator
        if q != q2:
            # over the lcm of two reduced denominators the triple is reduced
            g = gcd(q, q2)
            a *= q2 // g
            b *= q // g
            q *= q2 // g
        _set_a(self, a)
        _set_b(self, b)
        _set_q(self, q)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self):
        return Fraction(self._a, self._q)

    @property
    def im(self):
        return Fraction(self._b, self._q)

    @property
    def denominator(self):
        """The least q > 0 with q * self in Z[i]."""
        return self._q

    def parts_over(self, L):
        """The integer pair L.(re, im), for a multiple L of the
        denominator."""
        k = L // self._q
        return (self._a * k, self._b * k)

    @classmethod
    def promote(cls, x):
        if isinstance(x, Scalar):
            return x
        x = _frac(x)
        return _make(x.numerator, 0, x.denominator)

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.promote(other)
        if not (other._a or other._b):
            return self
        if not (self._a or self._b):
            return other
        return _sum(self, other._a, other._b, other._q)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.promote(other)
        if not (other._a or other._b):
            return self
        return _sum(self, -other._a, -other._b, other._q)

    def __rsub__(self, other):
        return Scalar.promote(other) - self

    def __neg__(self):
        return _make(-self._a, -self._b, self._q)

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            other = Scalar.promote(other)
        a1, b1, q1 = self._a, self._b, self._q
        a2, b2, q2 = other._a, other._b, other._q
        if not (a1 or b1) or (a2 == 1 and q2 == 1 and not b2):
            return self
        if not (a2 or b2) or (a1 == 1 and q1 == 1 and not b1):
            return other
        if b1 or b2:
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
        else:
            a = a1 * a2
            b = 0
        return _reduced(a, b, q1 * q2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.promote(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Scalar.promote(other) / self

    def inverse(self):
        # q / (a + b*i) = q (a - b*i) / (a^2 + b^2)
        a, b, q = self._a, self._b, self._q
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _reduced(q * a, -q * b, n)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self._a == other._a and self._b == other._b and self._q == other._q
            )
        if isinstance(other, int):
            return self._b == 0 and self._q == 1 and self._a == other
        if isinstance(other, Fraction):
            return (
                self._b == 0
                and self._q == other.denominator
                and self._a == other.numerator
            )
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            # equal to an int or Fraction of the same value, so hash alike
            return hash(self.re)
        return hash((self._a, self._b, self._q))

    def __repr__(self):
        return "Scalar(%s)" % str(self)

    def __str__(self):
        # compact human form: "0", "3/5", "i", "-2i", "1+2i", "1-1/2i"
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return "%s%s%s" % (re, sign, _imag_str(abs(im)).lstrip("+"))

    @classmethod
    def parse(cls, text):
        """Parse the forms produced by __str__ plus bare rationals."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        if "i" not in s:
            return cls(Fraction(s))
        body = s[:-1] if s.endswith("i") else None
        if body is None:
            raise ValueError("trailing characters after i in %r" % text)
        # split off a real part if one precedes the imaginary term; a
        # sign after e or E belongs to an exponent
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/eE":
                re_part, im_part = body[:k], body[k:]
                break
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = Fraction(im_part)
        re = Fraction(re_part) if re_part else Fraction(0)
        return cls(re, im)


_new = object.__new__
_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_q = Scalar._q.__set__


def _make(a, b, q):
    """The Scalar (a + b*i)/q; the caller guarantees q > 0 and
    gcd(a, b, q) = 1."""
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_q(s, q)
    return s


def _reduced(a, b, q):
    """The Scalar (a + b*i)/q for any q > 0."""
    if q != 1:
        g = gcd(a, b, q)
        if g != 1:
            a //= g
            b //= g
            q //= g
    return _make(a, b, q)


def _sum(x, a, b, q):
    """The Scalar x + (a + b*i)/q, for any q > 0."""
    q1 = x._q
    if q1 == q:
        return _reduced(x._a + a, x._b + b, q)
    return _reduced(x._a * q + a * q1, x._b * q + b * q1, q1 * q)


def _axpy(sums, a, b, q, pairs):
    """Add (a + b*i)/q * c to sum m for each (m, c) in `pairs`, c a
    nonzero Scalar, for any q > 0.  `sums` maps m to its running
    [A, B, Q], (A + B*i)/Q; a sum keeps its denominator while the terms
    share it and moves to the lcm when one does not."""
    for m, c in pairs:
        ca, cb, tq = c._a, c._b, c._q * q
        ta, tb = a * ca - b * cb, a * cb + b * ca
        s = sums.get(m)
        if s is None:
            sums[m] = [ta, tb, tq]
        elif s[2] == tq:
            s[0] += ta
            s[1] += tb
        else:
            Q = s[2]
            g = gcd(Q, tq)
            u, t = tq // g, Q // g
            s[0] = s[0] * u + ta * t
            s[1] = s[1] * u + tb * t
            s[2] = Q * u


def _scalars(sums, n):
    """The n sums as a tuple of reduced Scalars, ZERO where one is zero
    or was never added to."""
    out = [ZERO] * n
    for m, (a, b, q) in sums.items():
        if a or b:
            out[m] = _reduced(a, b, q)
    return tuple(out)


def _pairs(sums):
    """The nonzero sums as `(m, reduced Scalar)` pairs in ascending m."""
    return tuple([
        (m, _reduced(a, b, q)) for m, (a, b, q) in sorted(sums.items()) if a or b
    ])


def _imag_str(f):
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return "%si" % f


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)


# ---------------------------------------------------------------------------
# vectors are plain tuples of Scalar


def zero_vec(n):
    return (ZERO,) * n


def unit_vec(n, k):
    if not 0 <= k < n:
        raise ValueError("unit vector index %r out of range for length %d" % (k, n))
    return (ZERO,) * k + (ONE,) + (ZERO,) * (n - 1 - k)


def vec_add(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(map(Scalar.__add__, u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(map(Scalar.__sub__, u, v))


def vec_scale(c, u):
    return tuple(map(Scalar.promote(c).__mul__, u))


def vec_is_zero(u):
    return not any(u)


class Immutable:
    """Base of the value classes: each attribute is set once, in
    `__init__` through `object.__setattr__`, and never assigned again."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Matrix(Immutable):
    """Shape-checked exact matrix, stored by its nonzero columns.

    `_columns`, the only store, holds the nonzero `(row, entry)` pairs of
    each column in ascending row order.  `+`, `-` and `@` sum columns
    through `_axpy` and read them out with `_pairs`, so no zero entry is
    stored or visited.  Equality and the hash read the shape and the
    columns.  `_of`, `identity` and `zero` are the only constructors.
    """

    __slots__ = ("rows", "cols", "_columns")

    @classmethod
    def _of(cls, columns, rows):
        """The matrix with these nonzero columns, each a tuple of
        `(row, nonzero Scalar)` pairs in ascending row order, and this
        many rows; no promotion and no shape check."""
        m = _new(cls)
        m._set(rows, len(columns), tuple(columns))
        return m

    def _set(self, rows, cols, columns):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_columns", columns)

    @classmethod
    def identity(cls, n):
        return cls._of([((j, ONE),) for j in range(n)], n)

    @classmethod
    def zero(cls, rows, cols):
        return cls._of(((),) * cols, rows)

    def column(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column %r out of range for %d columns" % (j, self.cols))
        out = [ZERO] * self.rows
        for i, a in self._columns[j]:
            out[i] = a
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._columns == other._columns
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._columns))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other; where the other's column is zero, this
        one's is kept as it stands."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        out = []
        for u, v in zip(self._columns, other._columns):
            if not v:
                out.append(u)
            else:
                sums = {}
                _axpy(sums, 1, 0, 1, u)
                _axpy(sums, sign, 0, 1, v)
                out.append(_pairs(sums))
        return Matrix._of(out, self.rows)

    def __neg__(self):
        return self.scale(MINUS_ONE)

    def scale(self, c):
        c = Scalar.promote(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._of(
            [tuple((i, c * a) for i, a in column) for column in self._columns],
            self.rows,
        )

    def __matmul__(self, other):
        """Column j sums b times column k of self over the pairs (k, b)
        of the other's column j."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        left = self._columns
        out = []
        for column in other._columns:
            sums = {}
            for k, b in column:
                _axpy(sums, b._a, b._b, b._q, left[k])
            out.append(_pairs(sums))
        return Matrix._of(out, self.rows)

    def nonzero_columns(self):
        """The nonzero `(row, entry)` pairs of each column."""
        return self._columns

    def apply(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        sums = {}
        for x, column in zip(v, self._columns):
            if x._a or x._b:
                _axpy(sums, x._a, x._b, x._q, column)
        return _scalars(sums, self.rows)

    def is_zero(self):
        return not any(self._columns)


def eliminate(rows, ncols):
    """Reduced row echelon form of sparse rows, each a dict {column:
    nonzero entry} over `ncols` columns; the dicts are taken over and
    changed.  Returns (the nonzero reduced rows in pivot order, as such
    dicts, pivot column list).

    For each column in turn the first row left with an entry there
    becomes the pivot row: it is scaled to a leading one and its column
    is cleared from every other row, touching only the nonzero entries
    of the pivot row.  A row that is cleared to zero is dropped.
    """
    rows = [row for row in rows if row]
    reduced = []
    pivots = []
    for c in range(ncols):
        if not rows:
            break
        for k, row in enumerate(rows):
            if c in row:
                break
        else:
            continue
        pivot = rows.pop(k)
        inv = pivot.pop(c).inverse()
        entries = [(col, inv * a) for col, a in pivot.items()]
        kept = []
        for row in rows:
            f = row.pop(c, None)
            if f is not None:
                _subtract(row, f, entries)
                if not row:
                    continue
            kept.append(row)
        for row in reduced:
            f = row.pop(c, None)
            if f is not None:
                _subtract(row, f, entries)
        rows = kept
        pivot = dict(entries)
        pivot[c] = ONE
        reduced.append(pivot)
        pivots.append(c)
    return reduced, pivots


def _subtract(row, f, entries):
    """row -= f * entries, in place, dropping the entries that cancel."""
    for col, b in entries:
        a = row.get(col)
        if a is None:
            row[col] = -(f * b)
        else:
            a = a - f * b
            if a:
                row[col] = a
            else:
                del row[col]


def rref(rows):
    """Reduced row echelon form of dense rows, by `eliminate`.  Returns
    (rows, pivot column list): the reduced rows in pivot order, then one
    zero row for each row the elimination cleared."""
    rows = list(rows)
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = eliminate(
        [{c: a for c, a in enumerate(row) if a} for row in rows], ncols
    )
    out = _dense(reduced, ncols)
    out += [(ZERO,) * ncols] * (len(rows) - len(reduced))
    return out, pivots


def _dense(rows, ncols):
    out = []
    for row in rows:
        dense = [ZERO] * ncols
        for c, a in row.items():
            dense[c] = a
        out.append(tuple(dense))
    return out


def solve_linear(rows, ncols):
    """A solution of the sparse equations `rows`, each a dict {column:
    coefficient} over `ncols` unknowns with its right-hand side at column
    `ncols`, taken over as `eliminate` takes them; None when they are
    inconsistent.  Each pivot unknown is its reduced row's right-hand
    side and each free unknown is 0.  The reduced echelon form is
    unique, so the order of the rows cannot change the solution."""
    reduced, pivots = eliminate(rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row.get(ncols, ZERO)
    return tuple(x)


def _cell_equations(matrices):
    """One sparse equation per matrix cell that some matrix reaches,
    {(row, column): {k: entry of matrices[k] there}}, so that unknown k
    is the coefficient of matrices[k]."""
    cells = {}
    for k, M in enumerate(matrices):
        for c, column in enumerate(M.nonzero_columns()):
            for r, a in column:
                cells.setdefault((r, c), {})[k] = a
    return cells


def nullspace(rows, ncols):
    """Basis of the null space of the matrix with these sparse rows, each
    a dict {column: entry} over `ncols` columns, taken over as
    `eliminate` takes them.  One vector per free column f, in order: e_f
    minus, at each pivot, the f entry of that pivot's reduced row."""
    reduced, pivots = eliminate(rows, ncols)
    pivoted = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivoted:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for row, c in zip(reduced, pivots):
            a = row.get(f)
            if a is not None:
                v[c] = -a
        basis.append(tuple(v))
    return basis


class Subspace(Immutable):
    """Subspace of Q(i)^n held as a canonical reduced-echelon basis.

    `_rows` keeps the basis rows as `eliminate` returns them, sparse
    {column: entry} dicts in pivot order, and `_pivots` their pivots;
    they are never changed, and `basis`, their dense form, is built once
    from them.  `_holds`, `sum`, `intersect` and `quotient_projection`
    read the rows.
    """

    __slots__ = ("ambient_dim", "basis", "_rows", "_pivots")

    def __init__(self, ambient_dim, vectors):
        vectors = [tuple(Scalar.promote(e) for e in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
        rows = [{c: a for c, a in enumerate(v) if a} for v in vectors]
        self._set(ambient_dim, *eliminate(rows, ambient_dim))

    @classmethod
    def _of(cls, ambient_dim, rows, pivots):
        """The subspace with these reduced rows and pivots, as `eliminate`
        returns them; the rows are taken over."""
        space = _new(cls)
        space._set(ambient_dim, rows, pivots)
        return space

    def _set(self, ambient_dim, rows, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(_dense(rows, ambient_dim)))
        object.__setattr__(self, "_rows", tuple(rows))
        object.__setattr__(self, "_pivots", tuple(pivots))

    @property
    def dim(self):
        return len(self.basis)

    def _holds(self, sums):
        """Whether the vector of `sums`, {column: running [a, b, q] sum} as
        `_axpy` keeps them, lies in the subspace; the sums are changed.
        Subtracting x_p times row p for each pivot p leaves zero exactly
        when the vector is in the span, and as a row is zero at the other
        rows' pivots any order will do."""
        for p, row in zip(self._pivots, self._rows):
            s = sums.get(p)
            if s is not None and (s[0] or s[1]):
                _axpy(sums, -s[0], -s[1], s[2], row.items())
        return not any(a or b for a, b, _ in sums.values())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def is_zero(self):
        return not self.basis

    def sum(self, other):
        self._check_ambient(other)
        rows = [dict(row) for row in self._rows + other._rows]
        return Subspace._of(self.ambient_dim, *eliminate(rows, self.ambient_dim))

    def intersect(self, other):
        """Exact intersection by one Zassenhaus elimination.

        The rows (u, u) for the rows u of this subspace and (v, 0) for
        those of the other span the pairs (u + v, u) over 2n columns.
        Those with first half zero have u = -v in both subspaces, so the
        reduced rows whose pivot lies in the second half are (0, w) for
        the rows w of the intersection's reduced echelon basis.
        """
        self._check_ambient(other)
        n = self.ambient_dim
        if not self._rows or not other._rows:
            return Subspace._of(n, [], [])
        rows = []
        for u in self._rows:
            row = dict(u)
            for c, a in u.items():
                row[n + c] = a
            rows.append(row)
        rows += [dict(v) for v in other._rows]
        reduced, pivots = eliminate(rows, 2 * n)
        k = sum(1 for p in pivots if p < n)
        return Subspace._of(
            n,
            [{c - n: a for c, a in row.items()} for row in reduced[k:]],
            [p - n for p in pivots[k:]],
        )

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def quotient_projection(n, rows):
    """(complement indices, projection matrix) of the quotient of Q(i)^n
    by the span of these sparse rows, which need not be independent and
    are not changed.

    The complement is spanned by the unit vectors e_c for the columns c
    that are not pivots of the rows' echelon form with the columns
    reversed: the greedy choice, smallest index first, of unit vectors
    outside the span so far.  Row k of that form is e_{r_k} plus entries
    at complement columns, so the projection keeps the complement
    coordinates and sends e_{r_k} to minus row k's complement entries;
    its kernel is exactly the span, and the unit vectors at the
    complement indices are a section of it.  One elimination gives both.
    """
    reduced, rpivots = eliminate(
        [{n - 1 - c: a for c, a in row.items()} for row in rows], n
    )
    pivots = [n - 1 - p for p in rpivots]
    killed = set(pivots)
    chosen = [c for c in range(n) if c not in killed]
    position = {c: i for i, c in enumerate(chosen)}
    columns = [((position[c], ONE),) if c in position else () for c in range(n)]
    # a reduced row is e_r plus entries at complement columns
    for row, r in zip(reduced, pivots):
        del row[n - 1 - r]
        columns[r] = tuple(sorted((position[n - 1 - c], -a) for c, a in row.items()))
    return chosen, Matrix._of(columns, len(chosen))
