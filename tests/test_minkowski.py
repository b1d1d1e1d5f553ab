import random
import sys
import types
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctangent import minkowski
from nctangent.minkowski import (
    PBWElement,
    PoincareGenerator,
    TensorElement,
    act_poincare,
    antipode,
    coproduct,
    counit,
    epsilon3,
    hopf_axiom_check,
    integral_star_oracle,
    module_law_sides,
    monomials_up_to,
    pairing,
)
from nctangent.scalars import ONE, Scalar, ZERO, Scalar as sc

from seeded import random_element
from test_scalars import conjugate


def gen(d, kappa, mu):
    return PBWElement.generator(d, kappa, mu)


def mono(d, kappa, beta, n, c=ONE):
    return PBWElement.monomial(d, kappa, beta, n, c)


def pbw_one(d, kappa):
    """The unit of the coordinate algebra, the monomial of degree 0."""
    return mono(d, kappa, (0,) * d, 0)


def test_defining_relation():
    for kappa in (1, 2, Fraction(1, 2)):
        p0 = gen(3, kappa, 0)
        for j in (1, 2, 3):
            pj = gen(3, kappa, j)
            comm = p0.star(pj) - pj.star(p0)
            assert comm == pj.scale(Scalar(0, Fraction(1) / Fraction(kappa)))
        # spatial generators commute
        assert gen(3, kappa, 1).star(gen(3, kappa, 2)) == gen(3, kappa, 2).star(
            gen(3, kappa, 1)
        )


def test_star_frozen_first_order():
    p0 = gen(3, 1, 0)
    p1 = gen(3, 1, 1)
    got = p0.star(p1)
    want = mono(3, 1, (1, 0, 0), 1) + mono(3, 1, (1, 0, 0), 0, sc(0, 1))
    assert got == want
    # normal-ordered the other way round there is no correction
    assert p1.star(p0) == mono(3, 1, (1, 0, 0), 1)


def test_star_frozen_second_order():
    kappa = Fraction(1)
    p0 = gen(3, kappa, 0)
    p1 = gen(3, kappa, 1)
    got = p0.star(p0).star(p1)
    want = (
        mono(3, kappa, (1, 0, 0), 2)
        + mono(3, kappa, (1, 0, 0), 1, sc(0, 2))
        + mono(3, kappa, (1, 0, 0), 0, sc(-1))
    )
    assert got == want


def test_star_unit_and_degree():
    one = pbw_one(2, 1)
    f = mono(2, 1, (2, 1), 3, sc(Fraction(5, 7)))
    assert one.star(f) == f
    assert f.star(one) == f
    assert max((n + sum(beta) for beta, n in f.terms), default=-1) == 6
    assert PBWElement.zero(2, 1).terms == {}
    assert f.terms.get(((2, 1), 3), ZERO) == sc(Fraction(5, 7))
    assert f.terms.get(((0, 0), 0), ZERO) == ZERO


@st.composite
def small_elements(draw):
    keys = draw(
        st.lists(
            st.tuples(
                st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(0, 2)
            ),
            min_size=1,
            max_size=2,
        )
    )
    coeffs = draw(
        st.lists(
            st.integers(-3, 3).filter(bool), min_size=len(keys), max_size=len(keys)
        )
    )
    return PBWElement(2, Fraction(1, 2), dict(zip(keys, map(Scalar, coeffs))))


@settings(max_examples=40, deadline=None)
@given(small_elements(), small_elements(), small_elements())
def test_star_associative(f, g, h):
    assert f.star(g).star(h) == f.star(g.star(h))


def test_oracle_frozen_binomial():
    # p0^3 star p1 at kappa = 2: sum_k C(3,k) (i/2)^k p1 p0^(3-k)
    kappa = Fraction(2)
    f = mono(3, kappa, (0, 0, 0), 3)
    g = gen(3, kappa, 1)
    want = (
        mono(3, kappa, (1, 0, 0), 3)
        + mono(3, kappa, (1, 0, 0), 2, sc(0, Fraction(3, 2)))
        + mono(3, kappa, (1, 0, 0), 1, sc(Fraction(-3, 4)))
        + mono(3, kappa, (1, 0, 0), 0, sc(0, Fraction(-1, 8)))
    )
    assert integral_star_oracle(f, g) == want
    assert f.star(g) == want


def test_oracle_matches_star_seeded():
    rng = random.Random(7)
    for kappa in (Fraction(1), Fraction(3), Fraction(2, 5)):
        for _ in range(12):
            f = random_element(rng, 3, kappa, 4)
            g = random_element(rng, 3, kappa, 4)
            assert f.star(g) == integral_star_oracle(f, g)


def dagger(f):
    """The involution fixing every generator, a test oracle: antilinear
    and product-reversing, each term c p^beta p0^n taken to conj(c)
    times its reversed word, in normal order by `_reversed_rows`."""
    ik = minkowski._i_over(f.kappa)
    out = {}
    for (beta, n), c in f.terms.items():
        for t, a, b, q in minkowski._reversed_rows((beta, n), ik):
            term = conjugate(c) * Scalar(Fraction(a, q), Fraction(b, q))
            out[beta, t] = out.get((beta, t), ZERO) + term
    return PBWElement._trusted(f.d, f.kappa, out)


def test_dagger_frozen():
    p0 = gen(3, 1, 0)
    p1 = gen(3, 1, 1)
    # generators are fixed points
    assert dagger(p0) == p0
    assert dagger(p1) == p1
    # the product reverses
    assert dagger(p0.star(p1)) == p1.star(p0)


def test_dagger_properties_seeded():
    rng = random.Random(3)
    for _ in range(10):
        f = random_element(rng, 2, Fraction(1, 2), 3)
        g = random_element(rng, 2, Fraction(1, 2), 3)
        assert dagger(dagger(f)) == f
        assert dagger(f.star(g)) == dagger(g).star(dagger(f))
        assert dagger(f + g) == dagger(f) + dagger(g)
        assert dagger(f.scale(sc(0, 1))) == dagger(f).scale(sc(0, -1))


real_towers = minkowski._towers
real_star_monomials = minkowski._star_monomials


def stepwise_reversed_words(f, coefficient):
    """The reversed word p0^n p^beta of each term c p^beta p0^n of f, times
    coefficient(c, degree), renormal ordered by the rewriting product
    from a fresh tower, one `_cross` per spatial factor: the route the
    closed form `_reversed_words` replaced, kept as its oracle."""
    # a word without spatial factors is already in normal order
    towers = real_towers(f.kappa, [key for key in f.terms if any(key[0])])
    origin = (0,) * f.d
    out = {}
    for (beta, n), c in f.terms.items():
        word = real_star_monomials((origin, n), (beta, 0), towers)
        minkowski._add_into(out, word, coefficient(c, n + sum(beta)))
    return PBWElement._trusted(f.d, f.kappa, out)


def stepwise_antipode(f):
    return stepwise_reversed_words(f, lambda c, degree: -c if degree % 2 else c)


def stepwise_dagger(f):
    return stepwise_reversed_words(f, lambda c, degree: conjugate(c))


def test_coproduct_frozen():
    kappa = Fraction(1)
    f = mono(3, kappa, (1, 0, 0), 1)  # p1 p0
    delta = coproduct(f)
    u = ((0, 0, 0), 0)
    k_p1 = ((1, 0, 0), 0)
    k_p0 = ((0, 0, 0), 1)
    k_p1p0 = ((1, 0, 0), 1)
    want = TensorElement(
        3,
        kappa,
        {
            (k_p1p0, u): ONE,
            (k_p1, k_p0): ONE,
            (k_p0, k_p1): ONE,
            (u, k_p1p0): ONE,
        },
    )
    assert delta == want


def multiplicative_coproduct(f):
    """The coproduct as an algebra map, one generator at a time: the
    route the closed form replaced, kept here as its oracle."""
    d, kappa = f.d, f.kappa
    unit_key = ((0,) * d, 0)
    out = TensorElement(d, kappa, {})
    for (beta, n), c in f.terms.items():
        acc = TensorElement(d, kappa, {(unit_key, unit_key): ONE})
        word = []
        for j, b in enumerate(beta):
            word.extend([j + 1] * b)
        word.extend([0] * n)
        for mu in word:
            gkey = next(iter(gen(d, kappa, mu).terms))
            prim = TensorElement(
                d, kappa, {(gkey, unit_key): ONE, (unit_key, gkey): ONE}
            )
            acc = acc.multiply(prim)
        out = out + acc.scale(c)
    return out


KAPPAS = (Fraction(1), Fraction(2, 3), Fraction(5, 2))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_closed_form_coproduct_matches_multiplicative_route(d):
    for kappa in KAPPAS:
        for beta, n in monomials_up_to(d, 5):
            f = mono(d, kappa, beta, n)
            assert coproduct(f) == multiplicative_coproduct(f), (kappa, beta, n)


def test_closed_form_coproduct_matches_on_random_elements():
    rng = random.Random(23)
    for kappa in KAPPAS:
        for d in (1, 2, 3):
            for _ in range(6):
                f = random_element(rng, d, kappa, 4, max_terms=4)
                assert coproduct(f) == multiplicative_coproduct(f)


def test_coproduct_tests_no_coefficient_for_zero(monkeypatch):
    # a term c * row is nonzero, and distinct terms have distinct keys
    rng = random.Random(29)
    elements = [random_element(rng, 2, kappa, 4, max_terms=4) for kappa in KAPPAS]
    want = [multiplicative_coproduct(f) for f in elements]

    def refuse(self):
        raise AssertionError("a coproduct coefficient was tested for zero")

    with monkeypatch.context() as patched:
        patched.setattr(Scalar, "__bool__", refuse)
        got = [coproduct(f) for f in elements]
    assert got == want


def test_coproduct_is_star_homomorphism():
    rng = random.Random(11)
    for _ in range(6):
        f = random_element(rng, 2, Fraction(2), 2)
        g = random_element(rng, 2, Fraction(2), 2)
        assert coproduct(f.star(g)) == coproduct(f).multiply(coproduct(g))


def test_counit_and_antipode_frozen():
    kappa = Fraction(1)
    f = mono(3, kappa, (1, 0, 0), 1, sc(4)) + pbw_one(3, kappa).scale(sc(9))
    assert counit(f) == sc(9)
    # antipode of p1 p0 picks up the reordering correction
    s = antipode(mono(3, kappa, (1, 0, 0), 1))
    want = mono(3, kappa, (1, 0, 0), 1) + mono(3, kappa, (1, 0, 0), 0, sc(0, 1))
    assert s == want
    for mu in (0, 1, 2, 3):
        assert antipode(gen(3, kappa, mu)) == -gen(3, kappa, mu)


def test_monomials_up_to_count():
    # all (b1, b2, n) with b1 + b2 + n <= 2
    assert len(monomials_up_to(2, 2)) == 10
    assert len(monomials_up_to(3, 4)) == 70


def recursive_monomials_up_to(d, max_degree):
    """`monomials_up_to` as it was, one recursion level per spatial
    coordinate and then sorted: the oracle of the iterative version."""
    keys = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            for n in range(remaining + 1):
                keys.append((tuple(prefix), n))
            return
        for b in range(remaining + 1):
            rec(prefix + [b], remaining - b, slots - 1)

    rec([], max_degree, d)
    return sorted(keys)


def test_monomials_up_to_matches_the_recursive_route():
    for d in range(6):
        for degree in range(7):
            assert monomials_up_to(d, degree) == recursive_monomials_up_to(d, degree)
    # d deeper than the interpreter's recursion limit
    d = 3000
    assert d > sys.getrecursionlimit()
    assert monomials_up_to(d, 0) == [((0,) * d, 0)]
    # at degree 1, after the unit and p0 come the p_j, p_d first
    zero = (0,) * d
    units = [(zero[:j] + (1,) + zero[j + 1:], 0) for j in reversed(range(d))]
    assert monomials_up_to(d, 1) == [(zero, 0), (zero, 1)] + units


def test_hopf_axioms_sweep():
    assert hopf_axiom_check(2, Fraction(1, 2), 3) == []


SWEEP = (2, Fraction(2, 3), 3)


def test_sweep_catches_dropped_binomial_factors(monkeypatch):
    assert hopf_axiom_check(*SWEEP) == []
    monkeypatch.setattr(minkowski, "comb", lambda n, k: 1)
    assert coproduct(mono(2, SWEEP[1], (0, 0), 2)).terms[
        (((0, 0), 1), ((0, 0), 1))
    ] == ONE
    assert hopf_axiom_check(*SWEEP) != []


def unordered_rows(key, ik):
    """The reversed word left as the word itself, its i/kappa terms of
    normal ordering dropped: the antipode becomes (-1)^g times the word."""
    return [(key[1], 1, 0, 1)]


def test_sweep_catches_antipode_without_reordering(monkeypatch):
    monkeypatch.setattr(minkowski, "_reversed_rows", unordered_rows)
    beta, n = (1, 0), 1
    assert antipode(mono(2, SWEEP[1], beta, n)) == mono(2, SWEEP[1], beta, n)
    failures = hopf_axiom_check(*SWEEP)
    assert failures != []
    assert {name for name, _ in failures} <= {"antipode slot 1", "antipode slot 2"}


true_coproduct_rows = minkowski._coproduct_rows
true_reversed_rows = minkowski._reversed_rows


def flipped_cross_row(key):
    """The coproduct rows with the sign of the first cross term, in key
    order, flipped."""
    rows = true_coproduct_rows(key)
    cross = sorted(
        (k1, k2) for k1, k2, *_ in rows if sum(k1[0]) + k1[1] and sum(k2[0]) + k2[1]
    )
    return [
        (k1, k2, -a if cross and (k1, k2) == cross[0] else a, b, q)
        for k1, k2, a, b, q in rows
    ]


def test_sweep_catches_one_flipped_coproduct_term(monkeypatch):
    monkeypatch.setattr(minkowski, "_coproduct_rows", flipped_cross_row)
    p1, p0 = ((1, 0), 0), ((0, 0), 1)
    f = mono(2, SWEEP[1], (1, 0), 1)
    # p0 (x) p1 is the first cross term of p1 p0 in key order
    assert coproduct(f).terms[p0, p1] == -ONE
    assert coproduct(f).terms[p1, p0] == ONE
    failures = hopf_axiom_check(*SWEEP)
    assert failures != []
    # a flipped cross term keeps the counit law, so another axiom caught it
    assert all(name != "counit" for name, _ in failures)


def refuse_public_map(f):
    raise AssertionError("the sweep built a Scalar-valued coproduct or antipode")


def spy_kernels(monkeypatch, seen):
    """Record each call of the two row kernels as (name, i/kappa, key),
    i/kappa None for the coproduct rows, which do not read it; the
    public `coproduct` and `antipode` are refused."""

    def coproduct_rows(key):
        seen.append(("_coproduct_rows", None, key))
        return true_coproduct_rows(key)

    def reversed_rows(key, ik):
        seen.append(("_reversed_rows", ik, key))
        return true_reversed_rows(key, ik)

    monkeypatch.setattr(minkowski, "_coproduct_rows", coproduct_rows)
    monkeypatch.setattr(minkowski, "_reversed_rows", reversed_rows)
    monkeypatch.setattr(minkowski, "coproduct", refuse_public_map)
    monkeypatch.setattr(minkowski, "antipode", refuse_public_map)


def test_sweep_builds_each_coproduct_and_antipode_once(monkeypatch):
    seen = []
    spy_kernels(monkeypatch, seen)
    assert hopf_axiom_check(*SWEEP) == []
    keys = monomials_up_to(2, 3)
    for name in ("_coproduct_rows", "_reversed_rows"):
        calls = Counter(key for n, _, key in seen if n == name)
        assert calls == Counter(keys), name


def test_sweep_keeps_no_state_between_calls(monkeypatch):
    seen = []
    spy_kernels(monkeypatch, seen)
    first = hopf_axiom_check(2, Fraction(2, 3), 3)
    mark = len(seen)
    second = hopf_axiom_check(2, Fraction(5, 2), 3)
    # the second call rebuilt every row, the reversed words at its own
    # i/kappa
    assert {ik for name, ik, _ in seen[mark:] if name == "_reversed_rows"} == {
        Scalar(0, Fraction(2, 5))
    }
    assert len(seen) == 2 * mark
    # and each result equals a call made on its own
    assert hopf_axiom_check(2, Fraction(5, 2), 3) == second
    assert hopf_axiom_check(2, Fraction(2, 3), 3) == first


def shift_sign_rows(key, ik):
    """The reversed-word rows with the shift -|beta| i/kappa in place of
    +|beta| i/kappa: each reversed word p0^n p^beta read as
    p^beta (p0 - |beta| i/kappa)^n."""
    return true_reversed_rows(key, -ik)


def stepwise_antipode_slots(d, kappa, max_degree):
    """The antipode slots summed with one `PBWElement.star` per coproduct
    term, as the sweep did before it kept its monomial products.

    Returns the per-key [slot 1, slot 2] totals and the failures.
    """
    keys = monomials_up_to(d, max_degree)
    element = {key: mono(d, kappa, *key) for key in keys}
    anti = {key: minkowski.antipode(f) for key, f in element.items()}
    totals = {}
    failures = []
    for key in keys:
        target = pbw_one(d, kappa).scale(counit(element[key]))
        totals[key] = []
        for slot in (1, 2):
            total = PBWElement.zero(d, kappa)
            for (k1, k2), c in coproduct(element[key]).terms.items():
                if slot == 1:
                    term = anti[k1].star(element[k2])
                else:
                    term = element[k1].star(anti[k2])
                total = total + term.scale(c)
            totals[key].append(total.terms)
            if total != target:
                failures.append(("antipode slot %d" % slot, key))
    return totals, failures


def swept_antipode_slots(monkeypatch, d, kappa, max_degree):
    """Run the sweep and read back its per-key [slot 1, slot 2] totals.

    For each key in order the sweep reduces the slot 1 and then the
    slot 2 sums through `_slot_total`, which returns each total as a
    Scalar dict.  The sweep keys each monomial by its place in
    `monomials_up_to`, so the totals are mapped back to monomial keys
    here.
    """
    real = minkowski._slot_total
    seen = []

    def recording(re, im, scale):
        seen.append(real(re, im, scale))
        return seen[-1]

    monkeypatch.setattr(minkowski, "_slot_total", recording)
    failures = hopf_axiom_check(d, kappa, max_degree)
    monkeypatch.setattr(minkowski, "_slot_total", real)
    keys = monomials_up_to(d, max_degree)
    assert len(seen) == 2 * len(keys)
    totals = {
        key: [{keys[k]: c for k, c in total.items()} for total in seen[2 * i : 2 * i + 2]]
        for i, key in enumerate(keys)
    }
    return totals, failures


ORACLE_KAPPAS = (1, Fraction(1, 3), Fraction(3, 4), Fraction(5, 2))


@pytest.mark.parametrize("mutated", [False, True], ids=["antipode", "unordered"])
@pytest.mark.parametrize("d, degree", [(1, 4), (2, 3), (3, 3), (1, 5)])
def test_sweep_slots_match_the_stepwise_star_route(monkeypatch, d, degree, mutated):
    if mutated:
        monkeypatch.setattr(minkowski, "_reversed_rows", unordered_rows)
    for kappa in ORACLE_KAPPAS:
        want_totals, want_failures = stepwise_antipode_slots(d, kappa, degree)
        got_totals, got_failures = swept_antipode_slots(monkeypatch, d, kappa, degree)
        assert got_totals == want_totals, kappa
        # with the true coproduct only the antipode slots can fail
        assert got_failures == want_failures, kappa
        assert bool(got_failures) == mutated, kappa


def test_sweep_makes_each_crossing_once_per_call(monkeypatch):
    kappas = (Fraction(2, 3), Fraction(5, 2), Fraction(2, 3))
    real_cross = minkowski._cross
    built = []
    crossed = []
    reversed_words = []

    def reversed_rows_spy(key, ik):
        # the closed-form reversed word builds no tower and takes no step
        mark = len(built), len(crossed)
        out = true_reversed_rows(key, ik)
        assert (len(built), len(crossed)) == mark, key
        reversed_words.append(key)
        return out

    def towers_spy(kappa, keys):
        towers = real_towers(kappa, keys)
        built.append(towers)
        return towers

    def cross_spy(acc, towers):
        out = real_cross(acc, towers)
        crossed.append((acc, towers, out))
        return out

    monkeypatch.setattr(minkowski, "_reversed_rows", reversed_rows_spy)
    monkeypatch.setattr(minkowski, "_towers", towers_spy)
    monkeypatch.setattr(minkowski, "_cross", cross_spy)
    # the crossings (n, b) of a degree-3 sweep that take a step
    want = Counter((n, b) for n in range(4) for b in range(1, 4 - n))
    for kappa in kappas:
        mark = len(built), len(crossed)
        assert hopf_axiom_check(2, kappa, 3) == []
        # one tower per call, built in that call at its own i/kappa
        (towers,) = built[mark[0]:]
        assert towers[1] == {1: ONE, 0: Scalar(0, 1 / kappa)}
        # each crossing is one `_cross` of the entry before it, read
        # from that tower: the crossing (n, 1) steps from p_0^n itself,
        # and (n, b + 1) from the output of (n, b)
        made = Counter()
        place = {}
        for acc, used, out in crossed[mark[1]:]:
            assert used is towers
            n, b = place.get(id(acc), (max(acc), 0))
            if b == 0:
                assert acc == {n: ONE}
            place[id(out)] = n, b + 1
            made[n, b + 1] += 1
        assert made == want, kappa
    # the third call, at the first call's kappa, built its own tower
    assert built[2] is not built[0]
    assert len(crossed) == 3 * sum(want.values())
    assert len(reversed_words) == 3 * len(monomials_up_to(2, 3))


def _nonzero(terms):
    """The nonzero entries of a Scalar dict: the two oracle sweeps below
    compare sums through it."""
    return {k: c for k, c in terms.items() if c}


# -- the sweep before its index tables, as its oracle -------------------------


def parent_hopf_axiom_check(d, kappa, max_degree):
    """Exhaustive coassociativity, counit and antipode sweep.

    Returns a list of (axiom_name, monomial_key) failures; empty means
    every identity holds on all monomials up to the degree bound.  Every
    tensor factor of a swept coproduct is itself a swept monomial, so
    each monomial's element, coproduct and antipode are built once per
    call and kept in local dicts.  The antipode slots expand each sum
    over the terms of those antipodes, and each monomial product a * b
    they need is normal-ordered once per call, at this call's i/kappa.
    """
    failures = []
    kappa = _kappa_of(kappa)
    ik = _i_over(kappa)
    keys = monomials_up_to(d, max_degree)
    element = {key: PBWElement.monomial(d, kappa, key[0], key[1]) for key in keys}
    delta = {key: coproduct(f) for key, f in element.items()}
    anti = {key: antipode(f) for key, f in element.items()}
    one = pbw_one(d, kappa)
    products = {}

    def star(a, b):
        if (a, b) not in products:
            products[a, b] = _star_monomials(a, b, ik)
        return products[a, b]

    for key in keys:
        f = element[key]
        terms = delta[key].terms
        left = {}
        right = {}
        for (k1, k2), c in terms.items():
            for (a, b), e in delta[k1].terms.items():
                tk = (a, b, k2)
                left[tk] = left.get(tk, ZERO) + c * e
            for (a, b), e in delta[k2].terms.items():
                tk = (k1, a, b)
                right[tk] = right.get(tk, ZERO) + c * e
        if _nonzero(left) != _nonzero(right):
            failures.append(("coassociativity", key))
        if slot_counit(delta[key], 1) != f or slot_counit(delta[key], 2) != f:
            failures.append(("counit", key))
        target = one.scale(counit(f)).terms
        for slot in (1, 2):
            total = {}
            for (k1, k2), c in terms.items():
                if slot == 1:
                    for a, e in anti[k1].terms.items():
                        _add_into(total, star(a, k2), c * e)
                else:
                    for b, e in anti[k2].terms.items():
                        _add_into(total, star(k1, b), c * e)
            if _nonzero(total) != target:
                failures.append(("antipode slot %d" % slot, key))
    return failures


def slot_counit(t, slot):
    """Apply the counit in one tensor slot of t, returning a PBWElement;
    only `parent_hopf_axiom_check` needs it."""
    out = {}
    for (k1, k2), c in t.terms.items():
        keep, kill = (k1, k2) if slot == 1 else (k2, k1)
        if kill[1] == 0 and not any(kill[0]):
            out[keep] = out.get(keep, ZERO) + c
    return PBWElement._trusted(t.d, t.kappa, out)


def parent_route_star(k1, k2, ik):
    """The `_star_monomials(k1, k2, ik)` call of the sweep above, served by
    the rewriting route as it stands, with a tower made for this one
    product at i/kappa = ik."""
    return minkowski._star_monomials(k1, k2, minkowski._towers(1 / ik.im, [k1]))


def parent_sweep(d, kappa, max_degree):
    """`parent_hopf_axiom_check`, unchanged, with its names looked up in
    `minkowski` at call time, so a mutant patched into the module reaches
    it as it reaches `hopf_axiom_check`."""
    namespace = dict(
        vars(minkowski),
        _star_monomials=parent_route_star,
        _nonzero=_nonzero,
        slot_counit=slot_counit,
        pbw_one=pbw_one,
    )
    code = parent_hopf_axiom_check.__code__
    return types.FunctionType(code, namespace)(d, kappa, max_degree)


# -- the sweep before it summed on ints, as its oracle -------------------------


def scalar_sum_hopf_axiom_check(d, kappa, max_degree):
    """The sweep with its tables kept as Scalars and every sum made by
    the Scalar operators, as `hopf_axiom_check` summed before it moved
    its laws onto ints.  Its own description follows.

    Exhaustive coassociativity, counit and antipode sweep.

    Returns a list of (axiom_name, monomial_key) failures; empty means
    every identity holds on all monomials up to the degree bound.  Every
    tensor factor of a swept coproduct, every antipode term and every
    product the antipode slots need is itself a swept monomial, so the
    call numbers the monomials and works on integer keys: each
    coproduct and antipode is built once and re-keyed by index, the
    stepwise tower is built once at this call's i/kappa, and each
    monomial product a * b is normal-ordered once, from that tower.
    Nothing outlives the call.
    """
    kappa = _kappa_of(kappa)
    keys = monomials_up_to(d, max_degree)
    index = {key: i for i, key in enumerate(keys)}
    origin = index[((0,) * d, 0)]
    size = len(keys)
    towers = _towers(kappa, keys)
    element, delta, anti = [], [], []
    for key in keys:
        f = PBWElement._trusted(d, kappa, {key: ONE})
        element.append(f)
        delta.append(
            [(index[k1], index[k2], c) for (k1, k2), c in coproduct(f).terms.items()]
        )
        anti.append([(index[k], c) for k, c in antipode(f).terms.items()])
    products = {}

    def star(a, b):
        if (a, b) not in products:
            made = _star_monomials(keys[a], keys[b], towers)
            products[a, b] = [(index[k], c) for k, c in made.items()]
        return products[a, b]

    failures = []
    for i, key in enumerate(keys):
        terms = delta[i]
        left = {}
        right = {}
        for k1, k2, c in terms:
            for a, b, e in delta[k1]:
                # the triple (a, b, k2), packed into one integer
                tk = (a * size + b) * size + k2
                left[tk] = left.get(tk, ZERO) + c * e
            for a, b, e in delta[k2]:
                tk = (k1 * size + a) * size + b
                right[tk] = right.get(tk, ZERO) + c * e
        if _nonzero(left) != _nonzero(right):
            failures.append(("coassociativity", key))
        kept = ({}, {})
        for k1, k2, c in terms:
            if k2 == origin:
                kept[0][k1] = kept[0].get(k1, ZERO) + c
            if k1 == origin:
                kept[1][k2] = kept[1].get(k2, ZERO) + c
        if any(s.pop(i, ZERO) != ONE or any(s.values()) for s in kept):
            failures.append(("counit", key))
        e0 = counit(element[i])
        target = {origin: e0} if e0 else {}
        for slot in (1, 2):
            total = {}
            for k1, k2, c in terms:
                for x, e in anti[k1] if slot == 1 else anti[k2]:
                    scale = c * e
                    for k, v in star(x, k2) if slot == 1 else star(k1, x):
                        total[k] = total.get(k, ZERO) + scale * v
            if _nonzero(total) != target:
                failures.append(("antipode slot %d" % slot, key))
    return failures


def scalar_sum_sweep(d, kappa, max_degree):
    """`scalar_sum_hopf_axiom_check`, unchanged, with its names looked up
    in `minkowski` at call time, so a mutant patched into the module
    reaches it as it reaches `hopf_axiom_check`."""
    namespace = dict(vars(minkowski), _nonzero=_nonzero)
    code = scalar_sum_hopf_axiom_check.__code__
    return types.FunctionType(code, namespace)(d, kappa, max_degree)


def dropped_counit_row(key):
    """The coproduct rows without the f (x) 1 row, for f of positive
    degree."""
    unit = ((0,) * len(key[0]), 0)
    return [row for row in true_coproduct_rows(key) if row[1] != unit or row[0] == unit]


def towers_without_ik_after_the_first_step(kappa, keys):
    """The tower with its i/kappa term dropped from the second commutation
    on.  Dropped from every step, it would give the commutative polynomial
    Hopf algebra, whose laws all hold; kept in the first, p_0 p_j stays
    right and the laws break from p_0^2 p_j up."""
    ik = minkowski._i_over(kappa)
    towers = [{0: ONE}]
    for step in range(max((n for _, n in keys), default=0)):
        nxt = {}
        for t, ct in towers[-1].items():
            nxt[t + 1] = nxt.get(t + 1, ZERO) + ct
            if step == 0:
                nxt[t] = nxt.get(t, ZERO) + ik * ct
        towers.append(nxt)
    return towers


MUTANTS = {
    "none": {},
    "comb-is-one": {"comb": lambda n, k: 1},
    "unordered-antipode": {"_reversed_rows": unordered_rows},
    "flipped-cross-term": {"_coproduct_rows": flipped_cross_row},
    "dropped-counit-term": {"_coproduct_rows": dropped_counit_row},
    "tower-without-ik": {"_towers": towers_without_ik_after_the_first_step},
    "shift-sign-antipode": {"_reversed_rows": shift_sign_rows},
}
PARENT_SWEEPS = [(1, n) for n in range(1, 6)] + [(d, n) for d in (2, 3) for n in (1, 2, 3)]


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_sweep_gives_the_failures_of_the_sweep_before_its_tables(monkeypatch, mutant):
    for name, value in MUTANTS[mutant].items():
        monkeypatch.setattr(minkowski, name, value)
    caught = False
    for d, degree in PARENT_SWEEPS:
        for kappa in (1, Fraction(2, 3), Fraction(5, 2), Fraction(3, 5)):
            want = parent_sweep(d, kappa, degree)
            assert hopf_axiom_check(d, kappa, degree) == want, (d, degree, kappa)
            caught = caught or bool(want)
    # every mutant breaks a law somewhere in the sweeps, and the true
    # maps break none
    assert caught == (mutant != "none")


def twisted_rows(key):
    """The coproduct rows conjugated by the linear map m -> w(m) m, with
    w(p^beta p0^n) = 1 + (2n - |beta|) i/3: coassociative and counital
    (w(1) = 1), with Gaussian-rational coefficients off Z, so the rows
    have imaginary parts and denominators q > 1, and so has the sweep's
    coproduct table, over a dq > 1."""

    def w(key):
        beta, n = key
        return Scalar(1, Fraction(2 * n - sum(beta), 3))

    rows = []
    for k1, k2, a, b, q in true_coproduct_rows(key):
        c = Scalar(Fraction(a, q), Fraction(b, q)) * w(k1) * w(k2) / w(key)
        rows.append((k1, k2, *c.parts_over(c.denominator), c.denominator))
    return rows


def imaginary_rows(key):
    """The coproduct rows times i: purely imaginary, so every
    coassociativity term of the sweep is imaginary times imaginary.  i i
    is on both sides of the law, so coassociativity holds; the counit
    law fails on every key, and both antipode slots at the unit."""
    return [(k1, k2, -b, a, q) for k1, k2, a, b, q in true_coproduct_rows(key)]


STRESS_MUTANTS = dict(MUTANTS, **{
    "twisted-coproduct": {"_coproduct_rows": twisted_rows},
    "imaginary-coproduct": {"_coproduct_rows": imaginary_rows},
})
# composite numerators and denominators: the tables' common denominators
# are products of several prime powers
STRESS_KAPPAS = (Fraction(6, 35), Fraction(12, 7), Fraction(35, 6), Fraction(1, 30))
HOPF_SWEEP_SLOTS = ((1, 4), (2, 3), (3, 3), (1, 5))


@pytest.mark.parametrize("mutant", sorted(STRESS_MUTANTS))
def test_int_sums_give_the_failures_of_the_scalar_sums(monkeypatch, mutant):
    if mutant == "twisted-coproduct":
        # the twisted rows carry imaginary parts and denominators above 1
        rows = twisted_rows(((1, 0), 1))
        assert any(b for *_, b, _ in rows) and any(q > 1 for *_, q in rows)
    if mutant == "imaginary-coproduct":
        # every row is purely imaginary
        rows = imaginary_rows(((1, 0), 1))
        assert all(a == 0 and b for _, _, a, b, _ in rows)
    for name, value in STRESS_MUTANTS[mutant].items():
        monkeypatch.setattr(minkowski, name, value)
    for d, degree in HOPF_SWEEP_SLOTS:
        for kappa in STRESS_KAPPAS:
            want = scalar_sum_sweep(d, kappa, degree)
            assert hopf_axiom_check(d, kappa, degree) == want, (d, degree, kappa)
            assert bool(want) == (mutant != "none"), (d, degree, kappa)
            if mutant == "twisted-coproduct":
                # the twist keeps coassociativity and the counit law
                assert {name for name, _ in want} <= {"antipode slot 1", "antipode slot 2"}
            if mutant == "imaginary-coproduct":
                # a wrong sign in the imaginary times imaginary sums would
                # read as a coassociativity failure
                assert {name for name, _ in want} == {
                    "counit", "antipode slot 1", "antipode slot 2"
                }, (d, degree, kappa)


@pytest.mark.parametrize("d, degree", HOPF_SWEEP_SLOTS + ((2, 5), (3, 4)))
def test_crossing_table_matches_the_stepwise_and_closed_form_products(d, degree):
    keys = monomials_up_to(d, degree)
    origin = (0,) * d
    for kappa in STRESS_KAPPAS:
        towers = minkowski._towers(kappa, keys)
        table = minkowski._crossings(towers, degree)
        # every crossing with n + b <= degree, and no other
        assert [len(row) for row in table] == [degree + 1 - n for n in range(degree + 1)]
        for n, row in enumerate(table):
            for b, entry in enumerate(row):
                # sum over t of C(n, t) (b i/kappa)^(n - t) p_0^t
                shift = Scalar(0, b / kappa)
                closed = {t: Scalar(comb(n, t)) * prod([shift] * (n - t), start=ONE)
                          for t in range(n + 1)}
                assert entry == _nonzero(closed), (kappa, n, b)
                for beta in {beta for beta, _ in keys if sum(beta) == b}:
                    want = {(beta, t): c for t, c in entry.items()}
                    # the route the table replaced
                    assert minkowski._star_monomials((origin, n), (beta, 0), towers) == want
                    product = integral_star_oracle(mono(d, kappa, origin, n),
                                                   mono(d, kappa, beta, 0))
                    assert product.terms == want


real_crossings = minkowski._crossings


def crossing_without_its_ik_term(towers, max_degree):
    """The crossing table with p_0 moved past two spatial factors left as
    p_0: the 2i/kappa term of that one entry dropped."""
    table = real_crossings(towers, max_degree)
    table[1][2] = {1: ONE}
    return table


def test_sweep_reads_its_products_from_the_crossing_table(monkeypatch):
    monkeypatch.setattr(minkowski, "_crossings", crossing_without_its_ik_term)
    for d in (1, 2, 3):
        for kappa in (1, Fraction(2, 3), Fraction(35, 6)):
            failures = hopf_axiom_check(d, kappa, 3)
            assert failures, (d, kappa)
            assert {name for name, _ in failures} <= {"antipode slot 1", "antipode slot 2"}
            # the sweep before its tables makes its products without the table
            assert parent_sweep(d, kappa, 3) == [], (d, kappa)


def refuse_rewriting(*args):
    raise AssertionError("the closed form took a rewriting step")


def closed_forms(monkeypatch, f):
    """antipode(f) and dagger(f), with the tower, the rewriting step and
    the monomial product refused."""
    with monkeypatch.context() as patched:
        for name in ("_towers", "_cross", "_star_monomials"):
            patched.setattr(minkowski, name, refuse_rewriting)
        return antipode(f), dagger(f)


@pytest.mark.parametrize("d, degree", [(1, 8), (2, 5), (3, 4)])
def test_closed_form_antipode_and_dagger_match_the_stepwise_route(monkeypatch, d, degree):
    for kappa in ORACLE_KAPPAS + STRESS_KAPPAS:
        for beta, n in monomials_up_to(d, degree):
            for c in (ONE, Scalar(Fraction(2, 3), Fraction(-5, 7))):
                f = mono(d, kappa, beta, n, c)
                want = stepwise_antipode(f), stepwise_dagger(f)
                assert closed_forms(monkeypatch, f) == want, (kappa, beta, n, c)


gaussian_rationals = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
SHARED_BETAS = ((0, 0), (1, 0), (2, 1))


@st.composite
def words_sharing_spatial_parts(draw):
    """An element f of d = 2 whose terms share three spatial parts, so
    several (beta, n) land on one (beta, t), and the normal order w of a
    reversed word c p0^n p^beta: its antipode and dagger are one
    monomial each, so every other term of the closed forms cancels."""
    kappa = draw(st.sampled_from(ORACLE_KAPPAS + STRESS_KAPPAS))
    keys = st.tuples(st.sampled_from(SHARED_BETAS), st.integers(0, 4))
    f = PBWElement(2, kappa, draw(st.dictionaries(keys, gaussian_rationals, max_size=6)))
    beta, n = draw(keys)
    c = draw(gaussian_rationals.filter(bool))
    w = mono(2, kappa, (0, 0), n, c).star(mono(2, kappa, beta, 0))
    return f, w, (beta, n, c)


@settings(max_examples=80, deadline=None)
@given(words_sharing_spatial_parts())
def test_closed_forms_sum_and_cancel_as_the_stepwise_route(drawn):
    f, w, (beta, n, c) = drawn
    for g in (f, w, f + w, f - w):
        assert antipode(g) == stepwise_antipode(g)
        assert dagger(g) == stepwise_dagger(g)
    # S(c p0^n p^beta) = c S(p^beta) S(p0)^n and (c p0^n p^beta)^dagger =
    # conj(c) p^beta p0^n: the n + 1 terms of w collapse onto one key
    sign = -1 if (n + sum(beta)) % 2 else 1
    assert antipode(w) == mono(2, f.kappa, beta, n, c * Scalar(sign))
    assert dagger(w) == mono(2, f.kappa, beta, n, conjugate(c))


def test_sweeps_catch_the_antipode_shifted_the_wrong_way(monkeypatch):
    monkeypatch.setattr(minkowski, "_reversed_rows", shift_sign_rows)
    for d, degree in PARENT_SWEEPS + list(HOPF_SWEEP_SLOTS):
        for kappa in (1,) + STRESS_KAPPAS:
            want = hopf_axiom_check(d, kappa, degree)
            assert parent_sweep(d, kappa, degree) == want, (d, degree, kappa)
            assert scalar_sum_sweep(d, kappa, degree) == want, (d, degree, kappa)
            assert {name for name, _ in want} <= {"antipode slot 1", "antipode slot 2"}
            # p_1 p_0, of degree 2, is the first swept key whose reversed
            # word reorders
            assert bool(want) == (degree >= 2), (d, degree, kappa)


def test_sweep_bounds_must_be_nonnegative():
    for d, degree in ((1, -1), (-2, 2), (-1, -1)):
        with pytest.raises(ValueError):
            hopf_axiom_check(d, 1, degree)
        with pytest.raises(ValueError):
            monomials_up_to(d, degree)
    # degree 0 sweeps the unit alone, and d = 0 the powers of p_0
    assert monomials_up_to(2, 0) == [((0, 0), 0)]
    assert monomials_up_to(0, 2) == [((), 0), ((), 1), ((), 2)]
    assert hopf_axiom_check(0, 1, 2) == []


def test_tensor_keys_are_checked_as_monomial_keys_are():
    for bad in (((1, 2), 0), ((-3,), 0), ((1,), -1)):
        with pytest.raises(ValueError):
            PBWElement(1, 1, {bad: 1})
        with pytest.raises(ValueError):
            TensorElement(1, 1, {(((0,), 0), bad): 1})
        with pytest.raises(ValueError):
            TensorElement(1, 1, {(bad, ((0,), 0)): 1})
    with pytest.raises(ValueError):
        TensorElement(1, 1, {(((1, 2), 0), ((-3,), -1)): 1})


def test_epsilon3():
    assert epsilon3(1, 2, 3) == 1
    assert epsilon3(2, 1, 3) == -1
    assert epsilon3(1, 1, 3) == 0


def test_translation_and_grouplike_action():
    kappa = Fraction(3)
    p0 = gen(3, kappa, 0)
    p1 = gen(3, kappa, 1)
    P0 = PoincareGenerator("P0")
    P1 = PoincareGenerator("P", 1)
    E = PoincareGenerator("E")
    one = pbw_one(3, kappa)
    assert act_poincare(P0, p0) == one.scale(sc(0, -1))
    assert act_poincare(P0, p1).is_zero()
    assert act_poincare(P1, p1) == one.scale(sc(0, -1))
    assert act_poincare(P1, p0).is_zero()
    assert act_poincare(E, p0) == p0 + one.scale(sc(0, Fraction(1, 3)))
    assert act_poincare(E, p1) == p1
    assert act_poincare(E, one) == one


def test_rotation_action_frozen():
    p0 = gen(3, 1, 0)
    p1 = gen(3, 1, 1)
    p2 = gen(3, 1, 2)
    M3 = PoincareGenerator("M", 3)
    assert act_poincare(M3, p1) == p2.scale(sc(0, 1))
    assert act_poincare(M3, p2) == p1.scale(sc(0, -1))
    assert act_poincare(M3, p0).is_zero()
    assert act_poincare(M3, gen(3, 1, 3)).is_zero()


def test_boost_action_frozen():
    kappa = Fraction(2)
    p0 = gen(3, kappa, 0)
    p1 = gen(3, kappa, 1)
    p2 = gen(3, kappa, 2)
    N1 = PoincareGenerator("N", 1)
    assert act_poincare(N1, p0) == p1.scale(sc(0, -1))
    assert act_poincare(N1, p1) == p0.scale(sc(0, 1))
    assert act_poincare(N1, p2).is_zero()
    # degree two case with the mixed-derivative term active
    N2 = PoincareGenerator("N", 2)
    f = p1.star(p2)
    want = mono(3, kappa, (1, 0, 0), 1, sc(0, 1)) + p1.scale(sc(Fraction(-1, 2)))
    assert act_poincare(N2, f) == want


def test_dual_basis_pairing_frozen():
    kappa = Fraction(1)
    p0 = gen(3, kappa, 0)
    p1 = gen(3, kappa, 1)
    X0 = PoincareGenerator("X0")
    X1 = PoincareGenerator("X", 1)
    assert act_poincare(X0, p0) == pbw_one(3, kappa).scale(sc(0, -1))
    assert pairing(X0, p0) == sc(0, -1)
    assert pairing(X0, p1) == ZERO
    assert pairing(X1, p1) == sc(0, -1)
    assert pairing(X1, p0) == ZERO
    assert pairing(PoincareGenerator("P", 1), p1) == sc(0, -1)
    with pytest.raises(ValueError):
        pairing(PoincareGenerator("M", 1), p1)


def test_module_law_boost_frozen_cases():
    kappa = Fraction(1)
    p0 = gen(3, kappa, 0)
    p1 = gen(3, kappa, 1)
    p2 = gen(3, kappa, 2)
    N1 = PoincareGenerator("N", 1)
    lhs, rhs = module_law_sides(N1, p1, p0)
    want = mono(3, kappa, (0, 0, 0), 2, sc(0, 1)) + mono(
        3, kappa, (2, 0, 0), 0, sc(0, -1)
    )
    assert lhs == want and rhs == want
    lhs, rhs = module_law_sides(N1, p0, p1)
    want = want + p0.scale(sc(-1))
    assert lhs == want and rhs == want
    # the rotation cross term carries this one
    lhs, rhs = module_law_sides(N1, p2, p2)
    assert lhs == p1 and rhs == p1


def test_module_law_rotation_frozen():
    lhs, rhs = module_law_sides(
        PoincareGenerator("M", 3), gen(3, 1, 1), gen(3, 1, 0)
    )
    want = mono(3, 1, (0, 1, 0), 1, sc(0, 1))
    assert lhs == want and rhs == want


def test_module_law_seeded_sweep():
    rng = random.Random(0)
    kappa = Fraction(1)
    gens = [
        PoincareGenerator("P0"),
        PoincareGenerator("P", 2),
        PoincareGenerator("E"),
        PoincareGenerator("M", 1),
        PoincareGenerator("N", 3),
    ]
    for g in gens:
        for _ in range(4):
            f = random_element(rng, 3, kappa, 2)
            h = random_element(rng, 3, kappa, 2)
            lhs, rhs = module_law_sides(g, f, h)
            assert lhs == rhs, g


def test_operator_brackets():
    # commutators of the realized operators on seeded elements
    rng = random.Random(5)
    kappa = Fraction(2)
    M = [None] + [PoincareGenerator("M", j) for j in (1, 2, 3)]
    N = [None] + [PoincareGenerator("N", j) for j in (1, 2, 3)]
    E = PoincareGenerator("E")
    P = [None] + [PoincareGenerator("P", j) for j in (1, 2, 3)]
    for _ in range(5):
        f = random_element(rng, 3, kappa, 3)
        for j, k, l in [(1, 2, 3), (2, 3, 1), (3, 1, 2)]:
            mm = act_poincare(M[j], act_poincare(M[k], f)) - act_poincare(
                M[k], act_poincare(M[j], f)
            )
            assert mm == act_poincare(M[l], f).scale(sc(0, 1))
            nn = act_poincare(N[j], act_poincare(N[k], f)) - act_poincare(
                N[k], act_poincare(N[j], f)
            )
            assert nn == act_poincare(M[l], f).scale(sc(0, 1))
        ne = act_poincare(N[1], act_poincare(E, f)) - act_poincare(
            E, act_poincare(N[1], f)
        )
        want = act_poincare(P[1], act_poincare(E, f)).scale(
            sc(0, Fraction(1) / kappa)
        )
        assert ne == want


def test_random_element_deterministic():
    a = random_element(random.Random(42), 3, 1, 4)
    b = random_element(random.Random(42), 3, 1, 4)
    assert a == b


def test_input_validation():
    with pytest.raises(ValueError):
        PBWElement.monomial(2, 0, (0, 0), 1)
    with pytest.raises(ValueError):
        PBWElement.monomial(2, -1, (0, 0), 1)
    with pytest.raises(ValueError):
        gen(2, 1, 3)
    with pytest.raises(ValueError):
        act_poincare(PoincareGenerator("M", 1), gen(2, 1, 1))
    with pytest.raises(ValueError):
        PoincareGenerator("Q")
    with pytest.raises(ValueError):
        PoincareGenerator("N")
    f = gen(2, 1, 1)
    g = gen(3, 1, 1)
    with pytest.raises(ValueError):
        f.star(g)
