"""Exact Gaussian-rational arithmetic and the dense linear algebra under it.

Everything downstream runs over Q(i).  A `Scalar` is held as three
Python ints (a, b, q) meaning (a + b*i)/q, with q > 0 and
gcd(a, b, q) = 1, so each value has exactly one representation; its
real and imaginary parts are available as `fractions.Fraction` values.
Equality is exact everywhere; the package has no notion of tolerance.

Three layers live here:

* `Scalar`, the field element;
* `Matrix` and plain tuple vectors, with exact elimination, solving and
  null spaces;
* `Subspace` (canonical reduced-echelon bases) with sums, intersections,
  and quotients equipped with deterministic sections.
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

    def conjugate(self):
        return _make(self._a, -self._b, self._q)

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_zero(self):
        return not self

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
        # split off a real part if one precedes the imaginary term
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
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


def _imag_str(f):
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return "%si" % f


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def sc(re=0, im=0):
    """Shorthand constructor used pervasively in tests and fixtures."""
    return Scalar(re, im)


# ---------------------------------------------------------------------------
# vectors are plain tuples of Scalar


def vec(*entries):
    return tuple(Scalar.promote(e) for e in entries)


def zero_vec(n):
    return (ZERO,) * n


def unit_vec(n, k):
    return tuple(ONE if j == k else ZERO for j in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c, u):
    c = Scalar.promote(c)
    return tuple(c * a for a in u)


def vec_conj(u):
    return tuple(a.conjugate() for a in u)


def vec_is_zero(u):
    return all(not a for a in u)


class Immutable:
    """Base of the value classes: each attribute is set once, in
    `__init__` through `object.__setattr__`, and never assigned again."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Matrix(Immutable):
    """Dense matrix of Scalar entries; shape-checked exact arithmetic.

    `Matrix(...)` promotes every entry to a Scalar.  Arithmetic,
    `transpose`, `identity`, `zero` and `from_columns` on Scalar columns
    build their results through `_of`, which takes rows of Scalars as
    they are.  `apply` reads the nonzero `(row, entry)` pairs of each
    column from `nonzero_columns`, kept in the `_columns` slot from the
    first call on.
    Equality and the hash use `entries` only.
    """

    __slots__ = ("rows", "cols", "entries", "_columns")

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
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of(cls, entries, cols):
        """The matrix with these rows, each a tuple of `cols` Scalars; no
        promotion and no shape check."""
        m = _new(cls)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)),
            n,
        )

    @classmethod
    def zero(cls, rows, cols):
        return cls._of(((ZERO,) * cols,) * rows, cols)

    @classmethod
    def from_columns(cls, columns, rows=None):
        """The matrix with these columns.  `rows`, when given, must be
        the columns' length; it is needed only for an empty list.
        Columns of Scalars are taken as they are, others promoted."""
        if not columns:
            if rows is None:
                raise ValueError("empty column list needs an explicit row count")
            return cls.zero(rows, 0)
        n = len(columns[0])
        if rows is not None and rows != n:
            raise ValueError("explicit row count contradicts the columns")
        if any(len(col) != n for col in columns):
            raise ValueError("ragged columns")
        entries = tuple(zip(*columns))
        if all(isinstance(e, Scalar) for col in columns for e in col):
            return cls._of(entries, len(columns))
        return cls(entries, cols=len(columns))

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.rows, self.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._of(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Matrix._of(
            tuple(tuple(-a for a in row) for row in self.entries), self.cols
        )

    def scale(self, c):
        c = Scalar.promote(c)
        return Matrix._of(
            tuple(tuple(c * a for a in row) for row in self.entries), self.cols
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Matrix.zero(self.rows, other.cols)
        ocols = other.cols
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            orow = [ZERO] * ocols
            for k in range(self.cols):
                a = ri[k]
                if not a:
                    continue
                brow = other.entries[k]
                orow = [x + a * b for x, b in zip(orow, brow)]
            out.append(tuple(orow))
        return Matrix._of(tuple(out), ocols)

    def nonzero_columns(self):
        """The nonzero `(row, entry)` pairs of each column."""
        try:
            return self._columns
        except AttributeError:
            columns = tuple(
                tuple((i, row[j]) for i, row in enumerate(self.entries) if row[j])
                for j in range(self.cols)
            )
            object.__setattr__(self, "_columns", columns)
            return columns

    def apply(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for x, column in zip(v, self.nonzero_columns()):
            if not x:
                continue
            for i, a in column:
                out[i] = out[i] + a * x
        return tuple(out)

    def transpose(self):
        if not self.rows:
            return Matrix.zero(self.cols, 0)
        return Matrix._of(tuple(zip(*self.entries)), self.rows)

    def conjugate(self):
        return Matrix._of(
            tuple(tuple(a.conjugate() for a in row) for row in self.entries),
            self.cols,
        )

    def is_zero(self):
        return all(not a for row in self.entries for a in row)

    def rank(self):
        return len(rref(list(self.entries))[1])


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, nrows):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * a for a in rows[r]]
        for k in range(nrows):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows], pivots


def solve_linear(A, b):
    """Solve A x = b exactly.

    Returns (particular, kernel_basis) or None when inconsistent.  The
    kernel basis spans the full null space of A.
    """
    if A.rows != len(b):
        raise ValueError("right-hand side length mismatch")
    n = A.cols
    aug = [list(A.entries[i]) + [b[i]] for i in range(A.rows)]
    reduced, pivots = rref(aug)
    if n in pivots:
        return None
    particular = [ZERO] * n
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][n]
    kernel = _kernel_from_rref(reduced, pivots, n)
    return tuple(particular), kernel


def nullspace(A):
    reduced, pivots = rref(list(A.entries))
    return _kernel_from_rref(reduced, pivots, A.cols)


def _kernel_from_rref(reduced, pivots, n):
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


class Subspace(Immutable):
    """Subspace of Q(i)^n held as a canonical reduced-echelon basis.

    `_rows` keeps each basis row's pivot and its other nonzero entries,
    from the same elimination, so `contains` reduces along the pivots.
    """

    __slots__ = ("ambient_dim", "basis", "_rows")

    def __init__(self, ambient_dim, vectors):
        vectors = [tuple(Scalar.promote(e) for e in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
        reduced, pivots = rref(vectors)
        basis = tuple(reduced[: len(pivots)])
        rows = tuple(
            (p, tuple((c, a) for c, a in enumerate(row) if a and c != p))
            for p, row in zip(pivots, basis)
        )
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_rows", rows)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        v = list(v)
        # a row is zero at the other rows' pivots: any order will do
        for p, entries in self._rows:
            f = v[p]
            if f:
                for c, a in entries:
                    v[c] = v[c] - f * a
                v[p] = ZERO
        return all(not a for a in v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d in %d)" % (self.dim, self.ambient_dim)

    def is_zero(self):
        return not self.basis

    def sum(self, other):
        self._check_ambient(other)
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Exact intersection via the kernel of the stacked generator map.

        Writing U = span(u_k), V = span(v_l), a vector lies in both spans
        iff sum x_k u_k - sum y_l v_l = 0 has a solution; the u-part of
        each kernel vector spans the intersection.
        """
        self._check_ambient(other)
        if not self.basis or not other.basis:
            return Subspace(self.ambient_dim, [])
        cols = [list(v) for v in self.basis] + [list(v) for v in other.basis]
        A = Matrix.from_columns([tuple(c) for c in cols])
        vectors = []
        for kv in nullspace(A):
            w = zero_vec(self.ambient_dim)
            for x, u in zip(kv[: len(self.basis)], self.basis):
                if x:
                    w = vec_add(w, vec_scale(x, u))
            if not vec_is_zero(w):
                vectors.append(w)
        return Subspace(self.ambient_dim, vectors)

    def _check_ambient(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


class QuotientSpace(Immutable):
    """Quotient of Q(i)^n by a subspace, with a deterministic section.

    The complement is spanned by the unit vectors e_c for the columns c
    that are not pivots of the subspace's echelon form with the columns
    reversed: the greedy choice, smallest index first, of unit vectors
    outside the span so far.  Row k of that form is e_{r_k} plus entries
    at complement columns, so the projection keeps the complement
    coordinates and sends e_{r_k} to minus row k's complement entries.
    projection o section is the identity on the quotient and the kernel
    of the projection is exactly the subspace.
    """

    __slots__ = ("ambient_dim", "subspace", "dim", "projection", "section",
                 "complement_indices")

    def __init__(self, ambient_dim, subspace):
        if subspace.ambient_dim != ambient_dim:
            raise ValueError("subspace lives in a different ambient space")
        n = ambient_dim
        q = n - subspace.dim
        reduced, rpivots = rref([row[::-1] for row in subspace.basis])
        pivots = [n - 1 - p for p in rpivots]
        killed = set(pivots)
        chosen = [c for c in range(n) if c not in killed]
        if len(chosen) != q:
            raise ValueError(
                "complement has %d vectors, the quotient needs %d" % (len(chosen), q)
            )
        rows = [[ZERO] * n for _ in range(q)]
        for i, c in enumerate(chosen):
            rows[i][c] = ONE
        for row, r in zip(reduced, pivots):
            for i, c in enumerate(chosen):
                a = row[n - 1 - c]
                if a:
                    rows[i][r] = -a
        projection = Matrix._of(tuple(map(tuple, rows)), n)
        section = Matrix.from_columns([unit_vec(n, c) for c in chosen], rows=n)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "dim", q)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "section", section)
        object.__setattr__(self, "complement_indices", tuple(chosen))

    def project(self, v):
        return self.projection.apply(v)

    def lift(self, x):
        return self.section.apply(x)
