"""Symbolic kernel for the deformed Minkowski coordinate algebra.

Elements are finite linear combinations of normal-ordered monomials

    p_1^b1 ... p_d^bd p_0^n        (all spatial factors left of p_0)

over Q(i), with the single nontrivial relation  p_0 p_j - p_j p_0 =
(i/kappa) p_j.  The star product rewrites words into normal order one
commutation step at a time: each call builds the tower p_0^k p_j, step
by step, once for every k it needs, and moves each spatial factor past
a p_0 power by reading it.  A second, independent closed-form route
(`integral_star_oracle`) evaluates the same product through the shift
picture: multiplying by a spatial monomial of total degree b displaces
p_0 by i*b/kappa under every crossing, which resums into a binomial
formula.  The two routes share no code and cross-check each other.

The Hopf structure has primitive coproducts, counit zero on generators,
and antipode -p on generators extended as an antihomomorphism.  Each
closed form is an int row kernel, and the public map is its linear
extension, the only place where its Scalars are made.  `_coproduct_rows`
gives the coproduct of a monomial by the binomial formula for
primitive elements; the multiplicative route (one generator at a time
through `TensorElement.multiply`) is kept in the tests as its oracle.
`_reversed_rows` renormal orders a reversed word by the shift picture,
p_0^n p^beta = p^beta (p_0 + |beta| i/kappa)^n, expanded binomially,
with no tower and no rewriting step; `antipode` signs its rows, the
involution in the tests conjugates them, and the stepwise route through
the rewriting product is kept in the tests as their oracle.  The
sweep's antipode law therefore checks the shift picture against the
rewriting products.  `hopf_axiom_check` numbers the swept monomials and
works in call-local tables keyed by those integers: it reads each
monomial's rows once, as ints, and builds the tower and the crossing
table once.  A product (gamma, n) * (beta, m) depends only on its
crossing, p_0^n moved past |beta| spatial factors, so the table holds
each crossing with n + |beta| <= max_degree, each one `_cross` step from
the one before it, and every product the antipode slots need is a
crossing re-keyed.  Each table is then put over one common denominator,
and the laws are summed on ints.

kappa and the monomial keys are validated by the public constructors
only; internal results are built by `_Combination._trusted`.

`act_poincare` realizes the deformed symmetry generators as exact
operators on the polynomial reading of elements: derivative, coordinate
multiplication, and imaginary shift of the p_0 variable.  The boost
operator composes all three.  `module_law_sides` builds both sides of
the compatibility law between the action and the star product using the
deformed coproducts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from nctangent.scalars import ONE, Immutable, Scalar, ZERO, _make, _reduced

# numeric totally antisymmetric symbol on indices 1..3, eps[1][2][3] = +1
EPS3 = {}
for _a, _b, _c, _s in [
    (1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1),
    (3, 2, 1, -1), (1, 3, 2, -1), (2, 1, 3, -1),
]:
    EPS3[(_a, _b, _c)] = _s


def epsilon3(a, b, c):
    return EPS3.get((a, b, c), 0)


def _kappa_of(value):
    k = Fraction(value)
    if k <= 0:
        raise ValueError("the deformation parameter must be a positive rational")
    return k


def _monomial_key(d, key):
    """The normal monomial key (beta, n) of `key`, checked against d."""
    beta, n = key
    beta = tuple(int(b) for b in beta)
    if len(beta) != d or any(b < 0 for b in beta) or n < 0:
        raise ValueError("bad monomial key %r" % (key,))
    return (beta, int(n))


def _add_into(out, terms, scale):
    """out += scale * terms, on coefficient dicts."""
    for k, c in terms.items():
        out[k] = out.get(k, ZERO) + scale * c


class _Combination(Immutable):
    """Immutable finite map from keys to nonzero Scalars over one (d,
    kappa): the linear structure shared by PBWElement and TensorElement.

    The public constructor validates kappa and each key through the
    subclass's `_key`, and adds the promoted coefficients of keys that
    normalize alike.  Internal results already have normal keys and
    Scalar coefficients and are built by `_trusted`, which only drops
    zero coefficients; `_fill` sets the fields of terms that hold none.
    """

    __slots__ = ("d", "kappa", "terms")

    def __init__(self, d, kappa, terms):
        kappa = _kappa_of(kappa)
        clean = {}
        for key, coeff in terms.items():
            k = self._key(d, key)
            clean[k] = clean.get(k, ZERO) + Scalar.promote(coeff)
        self._fill(d, kappa, {k: c for k, c in clean.items() if c})

    @classmethod
    def _trusted(cls, d, kappa, terms):
        return object.__new__(cls)._fill(d, kappa, {k: c for k, c in terms.items() if c})

    def _fill(self, d, kappa, terms):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "terms", terms)
        return self

    def _compat(self, other):
        if self.d != other.d or self.kappa != other.kappa:
            raise ValueError("mixing elements of different spaces")

    def __add__(self, other):
        self._compat(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms, ONE)
        return self._trusted(self.d, self.kappa, terms)

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, c):
        c = Scalar.promote(c)
        return self._trusted(
            self.d, self.kappa, {k: c * v for k, v in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.d == other.d
            and self.kappa == other.kappa
            and self.terms == other.terms
        )


class PBWElement(_Combination):
    """Linear combination of normal-ordered monomials; immutable."""

    __slots__ = ()

    _key = staticmethod(_monomial_key)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, d, kappa):
        return cls(d, kappa, {})

    @classmethod
    def monomial(cls, d, kappa, beta, n, coeff=ONE):
        return cls(d, kappa, {(tuple(beta), n): coeff})

    @classmethod
    def generator(cls, d, kappa, mu):
        """p_mu; index 0 is the timelike coordinate, 1..d are spatial."""
        if mu == 0:
            return cls.monomial(d, kappa, (0,) * d, 1)
        if not 1 <= mu <= d:
            raise ValueError("generator index out of range")
        beta = tuple(1 if j == mu - 1 else 0 for j in range(d))
        return cls.monomial(d, kappa, beta, 0)

    # -- linear structure -------------------------------------------------

    def __neg__(self):
        return self.scale(Scalar(-1))

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get(((0,) * self.d, 0), ZERO)

    # -- the star product -------------------------------------------------

    def star(self, other):
        """Product by stepwise normal-ordering."""
        self._compat(other)
        towers = _towers(self.kappa, self.terms)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                _add_into(out, _star_monomials(k1, k2, towers), c1 * c2)
        return PBWElement._trusted(self.d, self.kappa, out)


def _i_over(kappa):
    """The reordering constant i/kappa of p_0 p_j = p_j p_0 + (i/kappa) p_j:
    for kappa = p/q in lowest terms, the reduced triple (0, q, p)."""
    return _make(0, kappa.denominator, kappa.numerator)


def _towers(kappa, keys):
    """The stepwise tower at i/kappa, as far as the p_0 powers of `keys`
    need: entry k holds p_0^k p_j in normal order as {t: coefficient of
    p_j p_0^t} (the same for every j), built from entry k - 1 by one
    commutation p_0 p_j = p_j p_0 + (i/kappa) p_j."""
    ik = _i_over(kappa)
    towers = [{0: ONE}]
    for _ in range(max((n for _, n in keys), default=0)):
        nxt = {}
        for t, ct in towers[-1].items():
            nxt[t + 1] = nxt.get(t + 1, ZERO) + ct
            nxt[t] = nxt.get(t, ZERO) + ik * ct
        towers.append(nxt)
    return towers


def _cross(acc, towers):
    """One rewriting step: the running product {p_0 power: coefficient}
    `acc` with one more spatial factor p_j moved to its left.  Each
    p_0^k p_j is rewritten by its tower entry, which is the same for
    every j; zero coefficients are dropped."""
    out = {}
    for k, c in acc.items():
        for t, ct in towers[k].items():
            out[t] = out.get(t, ZERO) + c * ct
    return {t: c for t, c in out.items() if c}


def _star_monomials(k1, k2, towers):
    """Normal form of the product of two normal monomials, as a dict;
    `towers` is `_towers` reaching the p_0 power of k1.

    The spatial factors of k2 commute with one another, so they pass
    the p_0 power one `_cross` at a time.  The running product is kept
    as {p_0 power: coefficient} in front of the spatial part gamma plus
    the factors moved so far.
    """
    gamma, n = k1
    beta, m = k2
    acc = {n: ONE}
    for _ in range(sum(beta)):
        acc = _cross(acc, towers)
    merged = tuple(a + b for a, b in zip(gamma, beta))
    return {(merged, t + m): c for t, c in acc.items()}


def _crossings(towers, max_degree):
    """The crossing table of a sweep to `max_degree`: entry [n][b] is
    p_0^n moved past b spatial factors, {t: coefficient of p^beta p_0^t}
    for every |beta| = b, for n + b <= max_degree.  Entry [n][0] is p_0^n
    itself and each further entry is one `_cross` of the entry before
    it, so a product (gamma, n) * (beta, m) is entry [n][|beta|] re-keyed
    to (gamma + beta, t + m)."""
    table = []
    for n in range(max_degree + 1):
        row = [{n: ONE}]
        for _ in range(max_degree - n):
            row.append(_cross(row[-1], towers))
        table.append(row)
    return table


def _reversed_rows(key, ik):
    """The reversed word p0^n p^beta of key = (beta, n) in normal order,
    as rows (t, a, b, q): the coefficient of p^beta p0^t is (a + b*i)/q.
    Each spatial factor shifts p0 by i/kappa as p0 crosses it, so

        p0^n p^beta = p^beta (p0 + |beta| i/kappa)^n
                    = sum_t C(n, t) (|beta| i/kappa)^(n-t) p^beta p0^t.

    Each row is built from the ints of ik = i/kappa, with no tower and no
    rewriting step, and no row is zero.  The stepwise route through the
    rewriting product is its oracle in tests/test_minkowski.py."""
    beta, n = key
    # |beta| i/kappa is (x*i)/xq; ik's real part is zero
    x, xq = sum(beta) * ik._b, ik._q
    if not x:
        # a word without spatial factors is already in normal order
        return [(n, 1, 0, 1)]
    rows = []
    sa, sb, sq = 1, 0, 1
    for t in range(n, -1, -1):
        m = comb(n, t)
        rows.append((t, m * sa, m * sb, sq))
        sa, sb, sq = -sb * x, sa * x, sq * xq
    return rows


def integral_star_oracle(f, g):
    """Closed-form product on the polynomial class; independent of the
    rewriting route.

    Pairing a p_0^n factor against a spatial monomial of total degree b
    shifts its argument; expanding the shift binomially and evaluating
    the derivative tower of the resulting exponential at the origin
    leaves sum_k C(n,k) (i b / kappa)^k p_0^(n-k) in front of the merged
    spatial part.
    """
    f._compat(g)
    out = {}
    for (gamma, n), c1 in f.terms.items():
        for (beta, m), c2 in g.terms.items():
            b_total = sum(beta)
            merged = tuple(a + b for a, b in zip(gamma, beta))
            base = c1 * c2
            shift = Scalar(0, Fraction(b_total) / f.kappa)
            power = ONE
            for k in range(n + 1):
                coeff = base * Scalar(comb(n, k)) * power
                key = (merged, n - k + m)
                out[key] = out.get(key, ZERO) + coeff
                power = power * shift
    return PBWElement._trusted(f.d, f.kappa, out)


# ---------------------------------------------------------------------------
# tensor square and the Hopf maps


class TensorElement(_Combination):
    """Element of the tensor square, a finite map (key, key) -> Scalar."""

    __slots__ = ()

    @staticmethod
    def _key(d, key):
        k1, k2 = key
        return (_monomial_key(d, k1), _monomial_key(d, k2))

    def multiply(self, other):
        """Componentwise star product of the two tensor factors."""
        self._compat(other)
        towers = _towers(self.kappa, [k for pair in self.terms for k in pair])
        out = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), e in other.terms.items():
                f = c * e
                left = _star_monomials(a1, b1, towers)
                right = _star_monomials(a2, b2, towers)
                for kl, cl in left.items():
                    for kr, cr in right.items():
                        key = (kl, kr)
                        out[key] = out.get(key, ZERO) + f * cl * cr
        return TensorElement._trusted(self.d, self.kappa, out)


def _coproduct_rows(key):
    """The terms of Delta(p^beta p0^n), key = (beta, n), as rows (left
    key, right key, a, b, q) with coefficient (a + b*i)/q.  Every
    generator is primitive, so by the binomial formula

        Delta(p^beta p0^n) = sum over gamma <= beta and k <= n of
            prod_j C(beta_j, gamma_j) C(n, k)  p^gamma p0^k (x) p^(beta-gamma) p0^(n-k)

    Both tensor factors are already in normal order, every coefficient
    is a positive int, and distinct rows have distinct keys."""
    beta, n = key
    splits = [((), (), 1)]
    for b in beta:
        row = [(x, b - x, comb(b, x)) for x in range(b + 1)]
        splits = [(gamma + (x,), rest + (y,), m * e) for gamma, rest, m in splits for x, y, e in row]
    times = [(k, n - k, comb(n, k)) for k in range(n + 1)]
    return [((gamma, k), (rest, l), m * e, 0, 1) for gamma, rest, e in splits for k, l, m in times]


def coproduct(f):
    """Algebra map determined by primitive values on generators: the
    linear extension of `_coproduct_rows`.  Distinct terms of f give
    distinct keys and c times a row is nonzero, so no term is summed or
    tested for zero.  The multiplicative route through
    `TensorElement.multiply` is its oracle in tests/test_minkowski.py."""
    out = {}
    for key, c in f.terms.items():
        ca, cb, cq = c._a, c._b, c._q
        for k1, k2, a, b, q in _coproduct_rows(key):
            out[k1, k2] = _reduced(ca * a - cb * b, ca * b + cb * a, cq * q)
    return object.__new__(TensorElement)._fill(f.d, f.kappa, out)


def counit(f):
    return f.constant_term()


def antipode(f):
    """Antihomomorphism with S(p_mu) = -p_mu on generators: the linear
    extension of `_reversed_rows`, a term c p^beta p0^n of degree g taken
    to (-1)^g c times its reversed word.  Terms that land on one (beta, t)
    are added, and cancelled ones dropped."""
    ik = _i_over(f.kappa)
    out = {}
    for key, c in f.terms.items():
        beta, n = key
        s = -1 if (n + sum(beta)) % 2 else 1
        ca, cb, cq = s * c._a, s * c._b, c._q
        for t, a, b, q in _reversed_rows(key, ik):
            term = _reduced(ca * a - cb * b, ca * b + cb * a, cq * q)
            k = (beta, t)
            out[k] = out[k] + term if k in out else term
    return PBWElement._trusted(f.d, f.kappa, out)


def monomials_up_to(d, max_degree):
    """All normal-ordered monomial keys of total degree <= max_degree, in
    sorted order.  Each spatial part is made once from the one before it
    in lexicographic order: its last coordinate is raised while the
    degree allows, else its last nonzero one is zeroed and the one
    before it raised.  So the work is linear in the output."""
    if d < 0 or max_degree < 0:
        raise ValueError("d and max_degree must be nonnegative")
    # beta's degree leaves `left` for p0; `last` is its last nonzero place
    beta, left, last, keys = [0] * d, max_degree, 0, []
    while True:
        spatial = tuple(beta)
        keys.extend((spatial, n) for n in range(left + 1))
        j = d - 1 if left else last - 1
        if j < 0:
            return keys
        left += sum(beta[j + 1:]) - 1
        beta[j + 1:] = [0] * (d - 1 - j)
        beta[j] += 1
        last = j


def _over_lcm(tables):
    """Each table, a list of rows (k, a, b, q) standing for (a + b*i)/q,
    as a list of (k, a', b') over Q, the lcm of the q of all the rows;
    returns Q and the tables."""
    Q = lcm(*(q for rows in tables for *_, q in rows))
    return Q, [[(k, a * (u := Q // q), b * u) for k, a, b, q in rows] for rows in tables]


def _slot_total(re, im, scale):
    """An antipode slot's sums as {k: (re[k] + im[k] i)/scale}, reduced
    where nonzero: only f's counit at the unit when the law holds."""
    return {k: _reduced(a, im[k], scale) for k, a in re.items() if a or im[k]}


def hopf_axiom_check(d, kappa, max_degree):
    """Exhaustive coassociativity, counit and antipode sweep.

    Returns a list of (axiom_name, monomial_key) failures; empty means
    every identity holds on all monomials up to the degree bound.  Every
    tensor factor of a swept coproduct, every antipode term and every
    product the antipode slots need is itself a swept monomial, so the
    call numbers the monomials and works on integer keys: it reads each
    monomial's rows from `_coproduct_rows` and `_reversed_rows` once, as
    ints, with no element, tensor or Scalar built for them, reads its
    counit from its key, and builds the stepwise tower and the crossing
    table (`_crossings`) once at this call's i/kappa.  Each monomial
    product a * b the slots need is read from the table when first
    needed: the crossing of a's p_0 power past b's spatial degree,
    re-keyed.  Nothing outlives the call.

    The laws are summed on ints.  Each table is put once over its own
    common denominator: the coproduct rows over dq (1 for the true
    coproduct), the antipode rows over aq and the crossings over sq.
    Coassociativity sums left minus right over dq^2, the counit slots
    sum against the target dq, and each antipode slot sums over
    dq*aq*sq and is reduced by `_slot_total` only where nonzero.  The
    sums reuse each converted factor thousands of times, which is why
    they do not go through the `scalars` accumulator `_axpy` and its
    per-term denominator check: that made the sweep slower.  The
    Scalar-sum sweep through the public `coproduct` and `antipode` is
    the oracle `scalar_sum_sweep` in tests/test_minkowski.py.
    """
    kappa = _kappa_of(kappa)
    ik = _i_over(kappa)
    keys = monomials_up_to(d, max_degree)
    index = {key: i for i, key in enumerate(keys)}
    origin = index[((0,) * d, 0)]
    size = len(keys)
    delta, anti = [], []
    for key in keys:
        delta.append(
            [((index[k1], index[k2]), a, b, q) for k1, k2, a, b, q in _coproduct_rows(key)]
        )
        beta, n = key
        s = -1 if (n + sum(beta)) % 2 else 1
        anti.append([(index[beta, t], s * a, s * b, q) for t, a, b, q in _reversed_rows(key, ik)])
    rows = _crossings(_towers(kappa, keys), max_degree)
    entries = [entry.items() for row in rows for entry in row]
    sq, flat = _over_lcm([[(t, c._a, c._b, c._q) for t, c in items] for items in entries])
    flat = iter(flat)
    crossings = [[next(flat) for _ in row] for row in rows]
    dq, delta = _over_lcm(delta)
    aq, anti = _over_lcm(anti)
    scale = dq * aq * sq
    # each product a * b the slots need, keyed (a, b), is its crossing
    # re-keyed, made when first needed
    products = {}

    def product_of(a, b):
        (gamma, n), (beta, m) = keys[a], keys[b]
        merged = tuple(x + y for x, y in zip(gamma, beta))
        return [(index[merged, t + m], va, vb) for t, va, vb in crossings[n][sum(beta)]]

    failures = []
    for i, key in enumerate(keys):
        terms = delta[i]
        re, im = {}, {}
        for (k1, k2), ca, cb in terms:
            for (a, b), ea, eb in delta[k1]:
                # the triple (a, b, k2), packed into one integer
                tk = (a * size + b) * size + k2
                re[tk] = re.get(tk, 0) + ca * ea - cb * eb
                im[tk] = im.get(tk, 0) + ca * eb + cb * ea
            for (a, b), ea, eb in delta[k2]:
                tk = (k1 * size + a) * size + b
                re[tk] = re.get(tk, 0) - ca * ea + cb * eb
                im[tk] = im.get(tk, 0) - ca * eb - cb * ea
        if any(re.values()) or any(im.values()):
            failures.append(("coassociativity", key))
        # each counit slot's real and imaginary sums, less the target dq at f
        kept = ({i: -dq}, {}), ({i: -dq}, {})
        for (k1, k2), ca, cb in terms:
            for (re, im), k, other in ((kept[0], k1, k2), (kept[1], k2, k1)):
                if other == origin:
                    re[k] = re.get(k, 0) + ca
                    im[k] = im.get(k, 0) + cb
        if any(any(part.values()) for side in kept for part in side):
            failures.append(("counit", key))
        # the counit of a monomial: 1 at the unit, else 0
        target = {origin: ONE} if i == origin else {}
        for slot in (1, 2):
            re, im = {}, {}
            for (k1, k2), ca, cb in terms:
                for x, ea, eb in anti[k1] if slot == 1 else anti[k2]:
                    sa, sb = ca * ea - cb * eb, ca * eb + cb * ea
                    pair = (x, k2) if slot == 1 else (k1, x)
                    made = products.get(pair)
                    if made is None:
                        made = products[pair] = product_of(*pair)
                    for k, va, vb in made:
                        re[k] = re.get(k, 0) + sa * va - sb * vb
                        im[k] = im.get(k, 0) + sa * vb + sb * va
            if _slot_total(re, im, scale) != target:
                failures.append(("antipode slot %d" % slot, key))
    return failures


# ---------------------------------------------------------------------------
# the deformed symmetry action


class PoincareGenerator(Immutable):
    """Tagged symmetry generator.

    Tags: "P0" (time translation), "P" (space translation, index),
    "E" (the group-like exponential of the time translation),
    "M" (rotation, index), "N" (boost, index), "X0"/"X" (the dual
    one-form basis labels realized as operators).  Rotations and boosts
    need d = 3.
    """

    __slots__ = ("tag", "index")

    TAGS = ("P0", "P", "E", "M", "N", "X0", "X")

    def __init__(self, tag, index=None):
        if tag not in self.TAGS:
            raise ValueError("unknown generator tag %r" % tag)
        if tag in ("P", "M", "N", "X") and index is None:
            raise ValueError("generator %s needs an index" % tag)
        if tag in ("P0", "E", "X0"):
            index = None
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "index", index)

    def __repr__(self):
        if self.index is None:
            return "PoincareGenerator(%s)" % self.tag
        return "PoincareGenerator(%s%d)" % (self.tag, self.index)


def _partial(f, mu):
    """Formal partial derivative in the commutative polynomial reading."""
    out = {}
    for (beta, n), c in f.terms.items():
        if mu == 0:
            if n:
                key = (beta, n - 1)
                out[key] = out.get(key, ZERO) + c * Scalar(n)
        else:
            j = mu - 1
            if beta[j]:
                beta2 = tuple(b - 1 if idx == j else b for idx, b in enumerate(beta))
                key = (beta2, n)
                out[key] = out.get(key, ZERO) + c * Scalar(beta[j])
    return PBWElement._trusted(f.d, f.kappa, out)


def _mult(f, mu):
    """Multiplication by the coordinate p_mu in the polynomial reading."""
    out = {}
    for (beta, n), c in f.terms.items():
        if mu == 0:
            key = (beta, n + 1)
        else:
            j = mu - 1
            key = (
                tuple(b + 1 if idx == j else b for idx, b in enumerate(beta)),
                n,
            )
        out[key] = out.get(key, ZERO) + c
    return PBWElement._trusted(f.d, f.kappa, out)


def _shift(f, steps=1):
    """Exact substitution p_0 -> p_0 + steps * i/kappa."""
    s = Scalar(0, Fraction(steps) / f.kappa)
    out = {}
    for (beta, n), c in f.terms.items():
        power = ONE
        for k in range(n + 1):
            key = (beta, n - k)
            out[key] = out.get(key, ZERO) + c * Scalar(comb(n, k)) * power
            power = power * s
    return PBWElement._trusted(f.d, f.kappa, out)


def _require_d3(gen, f):
    if f.d != 3:
        raise ValueError("%s is only defined for three spatial dimensions" % (gen,))


def act_poincare(gen, f):
    """Apply a symmetry generator to an element.

    Translations act by -i times the matching derivative, the group-like
    generator by the imaginary shift of the timelike variable, rotations
    by the usual angular combination, and boosts by the deformed
    combination of shift, Laplacian, and mixed second derivatives.
    """
    tag = gen.tag
    if tag == "P0":
        return _partial(f, 0).scale(Scalar(0, -1))
    if tag == "P" or tag == "X":
        if not 1 <= gen.index <= f.d:
            raise ValueError("spatial index out of range")
        return _partial(f, gen.index).scale(Scalar(0, -1))
    if tag == "E":
        return _shift(f, 1)
    if tag == "X0":
        return (f - _shift(f, 1)).scale(Scalar(f.kappa))
    if tag == "M":
        _require_d3(gen, f)
        out = PBWElement.zero(f.d, f.kappa)
        for k in range(1, 4):
            for l in range(1, 4):
                s = epsilon3(gen.index, k, l)
                if s:
                    out = out + _mult(_partial(f, l), k).scale(Scalar(0, -s))
        return out
    if tag == "N":
        _require_d3(gen, f)
        j = gen.index
        kappa = f.kappa
        # kappa/2 (1 - shift^2) plus 1/(2 kappa) Laplacian, then p_j
        inner = (f - _shift(f, 2)).scale(Scalar(Fraction(kappa) / 2))
        lap = PBWElement.zero(f.d, f.kappa)
        for l in range(1, 4):
            lap = lap + _partial(_partial(f, l), l)
        inner = inner + lap.scale(Scalar(Fraction(1, 2) / kappa))
        out = _mult(inner, j)
        out = out + _mult(_partial(f, j), 0).scale(Scalar(0, 1))
        mixed = PBWElement.zero(f.d, f.kappa)
        for k in range(1, 4):
            mixed = mixed + _mult(_partial(_partial(f, j), k), k)
        out = out - mixed.scale(Scalar(Fraction(1, 1) / kappa))
        return out
    raise ValueError("unsupported generator %r" % (gen,))


def pairing(gen, f):
    """Duality pairing: act, then evaluate at the origin."""
    if gen.tag not in ("P0", "P", "E", "X0", "X"):
        raise ValueError("pairing is defined for translations, the group-like "
                         "generator, and the dual basis labels")
    return act_poincare(gen, f).constant_term()


def module_law_sides(gen, f, g):
    """Both sides of the action-product compatibility law.

    The right side uses the deformed coproducts: time translations and
    rotations are primitive, space translations and boosts twist by the
    group-like factor, and boosts pick up an extra cross term mixing
    translations with rotations.
    """
    lhs = act_poincare(gen, f.star(g))
    tag = gen.tag
    if tag == "P0":
        rhs = act_poincare(gen, f).star(g) + f.star(act_poincare(gen, g))
    elif tag == "P":
        E = PoincareGenerator("E")
        rhs = act_poincare(gen, f).star(g) + act_poincare(E, f).star(
            act_poincare(gen, g)
        )
    elif tag == "E":
        rhs = act_poincare(gen, f).star(act_poincare(gen, g))
    elif tag == "M":
        rhs = act_poincare(gen, f).star(g) + f.star(act_poincare(gen, g))
    elif tag == "N":
        E = PoincareGenerator("E")
        rhs = act_poincare(gen, f).star(g) + act_poincare(E, f).star(
            act_poincare(gen, g)
        )
        j = gen.index
        cross = PBWElement.zero(f.d, f.kappa)
        for k in range(1, 4):
            for l in range(1, 4):
                s = epsilon3(j, k, l)
                if s:
                    Pk = PoincareGenerator("P", k)
                    Ml = PoincareGenerator("M", l)
                    cross = cross + act_poincare(Pk, f).star(
                        act_poincare(Ml, g)
                    ).scale(Scalar(s))
        rhs = rhs - cross.scale(Scalar(Fraction(1, 1) / f.kappa))
    else:
        raise ValueError("no coproduct registered for %r" % (gen,))
    return lhs, rhs
