import random
from collections import Counter
from fractions import Fraction

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
from nctangent.scalars import ONE, Scalar, ZERO, sc

from seeded import random_element


def gen(d, kappa, mu):
    return PBWElement.generator(d, kappa, mu)


def mono(d, kappa, beta, n, c=ONE):
    return PBWElement.monomial(d, kappa, beta, n, c)


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
    one = PBWElement.one(2, 1)
    f = mono(2, 1, (2, 1), 3, sc(Fraction(5, 7)))
    assert one.star(f) == f
    assert f.star(one) == f
    assert f.degree() == 6
    assert PBWElement.zero(2, 1).degree() == -1
    assert f.coefficient((2, 1), 3) == sc(Fraction(5, 7))
    assert f.coefficient((0, 0), 0) == ZERO


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


def test_dagger_frozen():
    p0 = gen(3, 1, 0)
    p1 = gen(3, 1, 1)
    # generators are fixed points
    assert p0.dagger() == p0
    assert p1.dagger() == p1
    # the product reverses
    assert p0.star(p1).dagger() == p1.star(p0)


def test_dagger_properties_seeded():
    rng = random.Random(3)
    for _ in range(10):
        f = random_element(rng, 2, Fraction(1, 2), 3)
        g = random_element(rng, 2, Fraction(1, 2), 3)
        assert f.dagger().dagger() == f
        assert f.star(g).dagger() == g.dagger().star(f.dagger())
        assert (f + g).dagger() == f.dagger() + g.dagger()
        assert f.scale(sc(0, 1)).dagger() == f.dagger().scale(sc(0, -1))


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


def test_coproduct_is_star_homomorphism():
    rng = random.Random(11)
    for _ in range(6):
        f = random_element(rng, 2, Fraction(2), 2)
        g = random_element(rng, 2, Fraction(2), 2)
        assert coproduct(f.star(g)) == coproduct(f).multiply(coproduct(g))


def test_counit_and_antipode_frozen():
    kappa = Fraction(1)
    f = mono(3, kappa, (1, 0, 0), 1, sc(4)) + PBWElement.one(3, kappa).scale(sc(9))
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


def test_sweep_catches_antipode_without_reordering(monkeypatch):
    # (-1)^g times the word itself: the reversed word with the i/kappa
    # terms of its normal ordering dropped
    def unordered(f):
        return PBWElement(
            f.d,
            f.kappa,
            {k: (-c if (k[1] + sum(k[0])) % 2 else c) for k, c in f.terms.items()},
        )

    monkeypatch.setattr(minkowski, "antipode", unordered)
    failures = hopf_axiom_check(*SWEEP)
    assert failures != []
    assert {name for name, _ in failures} <= {"antipode slot 1", "antipode slot 2"}


def test_sweep_catches_one_flipped_coproduct_term(monkeypatch):
    real = minkowski.coproduct

    def flipped(f):
        delta = real(f)
        cross = sorted(
            (k1, k2) for k1, k2 in delta.terms if sum(k1[0]) + k1[1] and sum(k2[0]) + k2[1]
        )
        if not cross:
            return delta
        terms = dict(delta.terms)
        terms[cross[0]] = -terms[cross[0]]
        return TensorElement(f.d, f.kappa, terms)

    monkeypatch.setattr(minkowski, "coproduct", flipped)
    failures = hopf_axiom_check(*SWEEP)
    assert failures != []
    # a flipped cross term keeps the counit law, so another axiom caught it
    assert all(name != "counit" for name, _ in failures)


def spy(monkeypatch, name, seen):
    real = getattr(minkowski, name)

    def recording(f):
        (key,) = f.terms
        seen.append((name, f.kappa, key))
        return real(f)

    monkeypatch.setattr(minkowski, name, recording)


def test_sweep_builds_each_coproduct_and_antipode_once(monkeypatch):
    seen = []
    spy(monkeypatch, "coproduct", seen)
    spy(monkeypatch, "antipode", seen)
    assert hopf_axiom_check(*SWEEP) == []
    keys = monomials_up_to(2, 3)
    for name in ("coproduct", "antipode"):
        calls = Counter(key for n, _, key in seen if n == name)
        assert calls == Counter(keys), name


def test_sweep_keeps_no_state_between_calls(monkeypatch):
    seen = []
    spy(monkeypatch, "coproduct", seen)
    spy(monkeypatch, "antipode", seen)
    first = hopf_axiom_check(2, Fraction(2, 3), 3)
    mark = len(seen)
    second = hopf_axiom_check(2, Fraction(5, 2), 3)
    # the second call rebuilt everything at its own kappa
    assert {kappa for _, kappa, _ in seen[mark:]} == {Fraction(5, 2)}
    assert len(seen) == 2 * mark
    # and each result equals a call made on its own
    assert hopf_axiom_check(2, Fraction(5, 2), 3) == second
    assert hopf_axiom_check(2, Fraction(2, 3), 3) == first


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
    one = PBWElement.one(3, kappa)
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
    assert act_poincare(X0, p0) == PBWElement.one(3, kappa).scale(sc(0, -1))
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
