"""The calculus routes that sum into the multiply-accumulate kernel,
against the routes they replaced.

`StarAlgebra._mac` adds c.(u v) into a dict of running int sums, and
`multiply` reads one such dict out.  `nabla`, `bracket`,
`LocalDerivation.apply`, the Leibniz sides of `verify_connection_axioms`
and `curvature_components` add their products into one dict per output
coefficient; `leibniz_failures` and `commutators` sum on `_axpy`, and
`involute` conjugates inside the apply kernel.  Each is compared here
with its route one Scalar operation at a time (`operator_*`, built on
`terms_multiply`, `operator_apply` and the `operator_vec_*` helpers, so
that no oracle calls a kernel it checks), at kappa 6/35 and 2/3, on
imaginary parts, on the two-dimensional center of the M_2 + M_2 sum
model, and on unchecked non-central grids.  Mutants of the factor fold
and of the bracket's swing term must fail these comparisons."""

import inspect
import random
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from nctangent import algebras, cli, connection, tangent
from nctangent.algebras import (
    AlgebraError,
    StarAlgebra,
    center,
    commutators,
    direct_sum,
    make_function_algebra,
    make_matrix_algebra,
    make_moyal_truncation,
    quotient_algebra,
)
from nctangent.connection import (
    ConnectionCoefficients,
    coefficient_failures,
    curvature_components,
    nabla,
    random_connection,
    structure_scalar,
    verify_connection_axioms,
)
from nctangent.forms import FormN, kappa_basis, koszul_d
from nctangent.scalars import (
    MINUS_ONE,
    Scalar,
    Subspace,
    ZERO,
    _scalars,
    unit_vec,
    vec_is_zero,
    vec_scale,
    zero_vec,
)
from nctangent.tangent import (
    LocalDerivation,
    bracket,
    canonical_inner_model,
    generator_derivation,
    leibniz_failures,
)

from test_algebras import terms_multiply
from test_connection import noncentral_grid, per_lam_nabla, thinned_connection
from test_scalars import (
    conjugate,
    operator_apply,
    operator_vec_add,
    operator_vec_scale,
    operator_vec_sub,
)
from test_tangent import leibniz_cases, sum_model_assignment

ROOT = Path(__file__).resolve().parent.parent
KAPPAS = (Fraction(6, 35), Fraction(2, 3))
FACTORS = (None, MINUS_ONE, Scalar(0, 1), Scalar(Fraction(3, 5), Fraction(-2, 7)))


# -- the replaced routes, one Scalar operation at a time ----------------------


def operator_nabla(gamma, X, Y):
    """`nabla` adding each product with the Scalar operators."""
    assign = gamma.assignment
    A = assign.algebra
    xs, ys = X.coefficients, Y.coefficients
    acting = [(x, D) for x, D in zip(xs, assign.operators) if any(x)]
    prods = {}
    out = []
    for lam, entries in enumerate(gamma._by_lam):
        total = zero_vec(A.dim)
        for mu, nu, g in entries:
            if (mu, nu) not in prods:
                prods[(mu, nu)] = terms_multiply(A, xs[mu], ys[nu])
            total = operator_vec_add(total, terms_multiply(A, prods[(mu, nu)], g))
        if any(ys[lam]):
            for x, D in acting:
                image = operator_apply(D, ys[lam])
                total = operator_vec_add(total, terms_multiply(A, x, image))
        out.append(total)
    return tuple(out)


def operator_bracket(X, Y):
    """`bracket` adding each product with the Scalar operators and
    scaling the swing term by i/kappa afterwards."""
    assign = X.assignment
    A = assign.algebra
    ik = Scalar(0, Fraction(1) / assign.kappa)
    out = []
    for lam in range(assign.d + 1):
        acc = zero_vec(A.dim)
        zy, zx = Y.coefficients[lam], X.coefficients[lam]
        for mu, D in enumerate(assign.operators):
            acc = operator_vec_add(
                acc, terms_multiply(A, X.coefficients[mu], operator_apply(D, zy))
            )
            acc = operator_vec_sub(
                acc, terms_multiply(A, Y.coefficients[mu], operator_apply(D, zx))
            )
        if lam >= 1:
            swing = operator_vec_sub(
                terms_multiply(A, X.coefficients[0], zy),
                terms_multiply(A, Y.coefficients[0], zx),
            )
            acc = operator_vec_add(acc, operator_vec_scale(ik, swing))
        out.append(acc)
    return tuple(out)


def operator_local_apply(X, a):
    """`LocalDerivation.apply` as a Scalar sum of Z^mu D_mu(a)."""
    A = X.assignment.algebra
    out = zero_vec(A.dim)
    for z, D in zip(X.coefficients, X.assignment.operators):
        out = operator_vec_add(out, terms_multiply(A, z, operator_apply(D, a)))
    return out


def vec_conj(v):
    return tuple(conjugate(x) for x in v)


def operator_star(assign, coefficients):
    """`star_derivation` on coefficients: negated involutes."""
    A = assign.algebra
    return LocalDerivation(
        assign,
        [operator_vec_scale(MINUS_ONE, operator_apply(A.involution, vec_conj(c)))
         for c in coefficients],
        check=False,
    )


def operator_scaled(X, z, side):
    A = X.assignment.algebra
    coeffs = [
        terms_multiply(A, z, c) if side == "left" else terms_multiply(A, c, z)
        for c in X.coefficients
    ]
    return LocalDerivation(X.assignment, coeffs, check=False)


def operator_connection_axioms(gamma, samples):
    """`verify_connection_axioms` with each side summed by the Scalar
    operators."""
    A = gamma.assignment.algebra
    failures = []
    for idx, (X, Y, z) in enumerate(samples):
        z = tuple(z)
        base = operator_nabla(gamma, X, Y)
        xz = operator_local_apply(X, z)
        left = operator_nabla(gamma, X, operator_scaled(Y, z, "left"))
        want = tuple(
            operator_vec_add(terms_multiply(A, z, c), terms_multiply(A, xz, yc))
            for c, yc in zip(base, Y.coefficients)
        )
        if left != want:
            failures.append(("leibniz-left", idx))
        right = operator_nabla(gamma, X, operator_scaled(Y, z, "right"))
        want = tuple(
            operator_vec_add(terms_multiply(A, c, z), terms_multiply(A, yc, xz))
            for c, yc in zip(base, Y.coefficients)
        )
        if right != want:
            failures.append(("leibniz-right", idx))
        scaled = operator_nabla(gamma, operator_scaled(X, z, "left"), Y)
        if scaled != tuple(terms_multiply(A, z, c) for c in base):
            failures.append(("linearity-left", idx))
        scaled = operator_nabla(gamma, operator_scaled(X, z, "right"), Y)
        if scaled != tuple(terms_multiply(A, c, z) for c in base):
            failures.append(("linearity-right", idx))
        assign = gamma.assignment
        lhs = operator_star(assign, base)
        rhs = operator_nabla(
            gamma, operator_star(assign, X.coefficients), operator_star(assign, Y.coefficients)
        )
        if lhs.coefficients != rhs:
            failures.append(("hermiticity", idx))
    return failures


def operator_curvature_components(gamma):
    """`curvature_components` over the nonzero entries, each term added
    with the Scalar operators."""
    assign = gamma.assignment
    A = assign.algebra
    n = assign.d + 1
    G = {(mu, nu, lam): g for lam, by in enumerate(gamma._by_lam) for mu, nu, g in by}
    grid = []
    for mu in range(n):
        cube = []
        for nu in range(n):
            plane = []
            for lam in range(n):
                row = []
                for tau in range(n):
                    total = zero_vec(A.dim)
                    for D, g, add in (
                        (assign.operators[mu], G.get((nu, lam, tau)), operator_vec_add),
                        (assign.operators[nu], G.get((mu, lam, tau)), operator_vec_sub),
                    ):
                        if g is not None:
                            total = add(total, operator_apply(D, g))
                    for sigma in range(n):
                        for g, h, add in (
                            (G.get((nu, lam, sigma)), G.get((mu, sigma, tau)), operator_vec_add),
                            (G.get((mu, lam, sigma)), G.get((nu, sigma, tau)), operator_vec_sub),
                        ):
                            if g is not None and h is not None:
                                total = add(total, terms_multiply(A, g, h))
                        g = G.get((sigma, lam, tau))
                        if g is not None:
                            c = structure_scalar(assign.kappa, mu, nu, sigma)
                            total = operator_vec_sub(total, operator_vec_scale(c, g))
                    row.append(total)
                plane.append(tuple(row))
            cube.append(tuple(plane))
        grid.append(tuple(cube))
    return tuple(grid)


def operator_leibniz_failures(algebra, operator):
    """`leibniz_failures` with each side added into dicts of Scalars."""
    n = algebra.dim
    images = [
        tuple((r, y) for r, y in enumerate(operator_apply(operator, unit_vec(n, m))) if y)
        for m in range(n)
    ]
    rows = [[] for _ in range(n)]
    for j, image in enumerate(images):
        for k, y in image:
            rows[k].append((j, y))
    failures = []
    for i, terms in enumerate(algebra.terms):
        sums = [{} for _ in range(n)]
        for j, cell in terms:
            for m, c in cell:
                for r, y in images[m]:
                    sums[j][r] = sums[j].get(r, ZERO) + c * y
        for k, cell in terms:
            for j, y in rows[k]:
                for m, c in cell:
                    sums[j][m] = sums[j].get(m, ZERO) - y * c
        for k, x in images[i]:
            for j, cell in algebra.terms[k]:
                for m, c in cell:
                    sums[j][m] = sums[j].get(m, ZERO) - x * c
        for j, total in enumerate(sums):
            if any(total.values()):
                failures.append((algebra.labels[i], algebra.labels[j]))
    return failures


def operator_commutators(A, v):
    """`commutators` adding into dicts of Scalars, zero sums kept."""
    comms = {}
    for k, (x, row) in enumerate(zip(v, A.terms)):
        for j, cell in row:
            y = v[j]
            if x:
                into = comms.setdefault(j, {})
                for m, c in cell:
                    into[m] = into.get(m, ZERO) + x * c
            if y:
                out = comms.setdefault(k, {})
                for m, c in cell:
                    out[m] = out.get(m, ZERO) - y * c
    return comms


# -- seeded cases -------------------------------------------------------------


def scalar(rng, span=3):
    """A Gaussian rational with denominators up to 7 and a nonzero
    imaginary part in most draws."""
    return Scalar(
        Fraction(rng.randint(-span, span), rng.randint(1, 7)),
        Fraction(rng.randint(-span, span), rng.randint(1, 7)),
    )


def element(rng, dim, density=0.6):
    return tuple(scalar(rng) if rng.random() < density else ZERO for _ in range(dim))


def complex_grid(assign, rng):
    """An unchecked grid of dense non-central entries with imaginary
    parts, and zero entries in between."""
    A = assign.algebra
    n = assign.d + 1
    grid = [[[element(rng, A.dim) if rng.random() < 0.7 else zero_vec(A.dim)
              for _ in range(n)] for _ in range(n)] for _ in range(n)]
    return ConnectionCoefficients(assign, grid, check=False)


def assignments():
    """Canonical M_2 (d = 1), M_3 (d = 2) and the M_2 + M_2 sum model, at
    each kappa."""
    return [
        assign
        for kappa in KAPPAS
        for assign in (
            canonical_inner_model(2, 1, kappa),
            canonical_inner_model(3, 2, kappa),
            sum_model_assignment(kappa),
        )
    ]


def connections(assign, rng):
    """Zero, constant imaginary, seeded and thinned seeded grids, and
    unchecked non-central grids, real-and-unit and complex."""
    return [
        ConnectionCoefficients.zero(assign),
        ConnectionCoefficients.constant(assign, Scalar(0, Fraction(2, 7))),
        random_connection(assign, rng),
        thinned_connection(assign, rng),
        noncentral_grid(assign, zero_every=2),
        complex_grid(assign, rng),
    ]


def central(assign, rng):
    """A complex combination of the center basis; on the sum model it is
    in general no multiple of the unit."""
    A = assign.algebra
    out = zero_vec(A.dim)
    for z in center(A).basis:
        out = operator_vec_add(out, operator_vec_scale(scalar(rng), z))
    return out


def derivations(assign, rng):
    """The generators, central-coefficient derivations, and unchecked
    derivations with complex non-central coefficients and zero slots."""
    A = assign.algebra
    n = assign.d + 1
    out = [generator_derivation(assign, mu) for mu in range(n)]
    out += [LocalDerivation(assign, [central(assign, rng) for _ in range(n)]) for _ in range(2)]
    out += [
        LocalDerivation(
            assign,
            [zero_vec(A.dim) if rng.random() < 0.3 else element(rng, A.dim) for _ in range(n)],
            check=False,
        )
        for _ in range(2)
    ]
    return out


def cases(seed):
    rng = random.Random(seed)
    for assign in assignments():
        for gamma in connections(assign, rng):
            yield assign, gamma, derivations(assign, rng), rng


# -- the kernel ---------------------------------------------------------------


@pytest.mark.parametrize("c", FACTORS, ids=["none", "minus-one", "i", "mixed"])
def test_mac_adds_the_scaled_product(c):
    rng = random.Random(2301)
    algebras_ = [make_matrix_algebra(3), sum_model_assignment().algebra, make_function_algebra(4)]
    for A in algebras_:
        for _ in range(6):
            u, v, w, t = (element(rng, A.dim) for _ in range(4))
            scaled = terms_multiply(A, u, v)
            if c is not None:
                scaled = operator_vec_scale(c, scaled)
            assert _scalars(A._mac({}, u, v, c), A.dim) == scaled
            # into a running sum, over other denominators
            sums = A._mac({}, w, t)
            assert A._mac(sums, u, v, c) is sums
            assert _scalars(sums, A.dim) == operator_vec_add(terms_multiply(A, w, t), scaled)
            assert A.multiply(u, v) == terms_multiply(A, u, v)
    A = make_matrix_algebra(2)
    u = element(rng, 4)
    assert _scalars(A._mac(A._mac({}, u, u), u, u, MINUS_ONE), 4) == zero_vec(4)
    for bad in ((u[:3], u), (u, u + (ZERO,))):
        with pytest.raises(AlgebraError, match="element length mismatch"):
            A._mac({}, *bad, c)


# -- the calculus routes ------------------------------------------------------


def test_nabla_matches_its_operator_route():
    for assign, gamma, ders, rng in cases(2302):
        for X in ders:
            for Y in ders:
                got = nabla(gamma, X, Y).coefficients
                assert got == operator_nabla(gamma, X, Y)
                assert got == per_lam_nabla(gamma, X, Y)


def test_bracket_matches_its_operator_route():
    rng = random.Random(2303)
    swings = 0
    for assign in assignments():
        ders = derivations(assign, rng)
        for X in ders:
            for Y in ders:
                got = bracket(X, Y).coefficients
                assert got == operator_bracket(X, Y)
                swings += any(any(c) for c in got[1:])
    assert swings


def test_local_apply_matches_its_operator_route():
    rng = random.Random(2304)
    for assign in assignments():
        for X in derivations(assign, rng):
            for a in (element(rng, assign.algebra.dim), central(assign, rng)):
                assert X.apply(a) == operator_local_apply(X, a)


def test_connection_axioms_match_their_operator_route():
    kinds = set()
    for assign, gamma, ders, rng in cases(2305):
        A = assign.algebra
        samples = [
            (X, Y, z)
            for X, Y in zip(ders, ders[1:] + ders[:1])
            for z in (central(assign, rng), element(rng, A.dim))
        ]
        got = verify_connection_axioms(gamma, samples)
        assert got == operator_connection_axioms(gamma, samples)
        kinds.update(kind for kind, _ in got)
        kinds.add(len(got) < 5 * len(samples))
    assert {"leibniz-left", "leibniz-right", True} <= kinds


def test_connection_axioms_call_nabla_once_per_distinct_argument(monkeypatch):
    # z Y = Y z and z X = X z for central z: four covariant derivatives;
    # each pair that differs adds one, up to six
    calls = []
    real = connection.nabla
    monkeypatch.setattr(
        connection, "nabla", lambda gamma, X, Y: calls.append(1) or real(gamma, X, Y)
    )
    seen = set()
    for assign, gamma, ders, rng in cases(2307):
        A = assign.algebra
        for X, Y in zip(ders, ders[1:] + ders[:1]):
            for z, is_central in ((central(assign, rng), True), (element(rng, A.dim), False)):
                distinct = sum(
                    operator_scaled(W, z, "left").coefficients
                    != operator_scaled(W, z, "right").coefficients
                    for W in (Y, X)
                )
                del calls[:]
                verify_connection_axioms(gamma, [(X, Y, z)])
                assert len(calls) == 4 + distinct
                seen.add((is_central, len(calls)))
    assert {count for is_central, count in seen if is_central} == {4}
    assert {(False, 5), (False, 6)} <= seen


def test_curvature_components_match_their_operator_route():
    nonzero = 0
    for assign, gamma, ders, rng in cases(2306):
        tensor = curvature_components(gamma)
        assert tensor.grid == operator_curvature_components(gamma)
        nonzero += not all(
            vec_is_zero(e) for cube in tensor.grid for plane in cube for row in plane for e in row
        )
    assert nonzero


def test_leibniz_failures_match_their_operator_route():
    broken = 0
    cases_ = list(leibniz_cases())
    rng = random.Random(2307)
    for assign in assignments():
        A = assign.algebra
        scaled = [D.scale(scalar(rng)) for D in assign.operators]
        cases_.append((A, list(assign.operators) + scaled))
    for A, operators in cases_:
        for D in operators:
            want = operator_leibniz_failures(A, D)
            assert leibniz_failures(A, D) == want
            broken += bool(want)
    assert broken


def test_commutators_match_their_operator_route():
    rng = random.Random(2308)
    for assign in assignments():
        A = assign.algebra
        for v in (element(rng, A.dim), central(assign, rng), A.unit, zero_vec(A.dim)):
            want = {
                i: {m: x for m, x in comm.items() if x}
                for i, comm in operator_commutators(A, v).items()
            }
            assert commutators(A, v) == want


# -- the involution -----------------------------------------------------------


def involution_models():
    block_sum = direct_sum(make_matrix_algebra(2), make_matrix_algebra(3))
    killed = Subspace(13, [unit_vec(13, 4 + k) for k in range(9)])
    return [
        make_matrix_algebra(3),
        make_function_algebra(4),
        make_moyal_truncation(2),
        block_sum,
        quotient_algebra(block_sum, killed)[0],
    ]


def test_involute_matches_the_conjugated_apply():
    rng = random.Random(2309)
    for A in involution_models():
        for v in [element(rng, A.dim) for _ in range(5)] + [zero_vec(A.dim)]:
            assert A.involute(v) == A.involution.apply(vec_conj(v))
        with pytest.raises(ValueError, match="^vector length mismatch$"):
            A.involute(zero_vec(A.dim + 1))


# -- connection grids ---------------------------------------------------------


def test_zero_entries_make_no_witness_calls(monkeypatch):
    calls = []
    real = connection.noncentral_witness
    monkeypatch.setattr(
        connection, "noncentral_witness", lambda A, v: calls.append(v) or real(A, v)
    )
    assign = sum_model_assignment(Fraction(2, 3))
    A = assign.algebra
    assert ConnectionCoefficients.zero(assign).failures() == []
    assert calls == []
    # one nonzero anti-hermitian, non-central entry among zeros still fails
    grid = [[[zero_vec(A.dim)] * 2 for _ in range(2)] for _ in range(2)]
    grid[1][0][1] = vec_scale(Scalar(0, 1), operator_vec_add(unit_vec(A.dim, 1), unit_vec(A.dim, 2)))
    gamma = ConnectionCoefficients(assign, grid, check=False)
    assert coefficient_failures(gamma) == [("central", (1, 0, 1))]
    assert calls == [grid[1][0][1]]


# -- koszul_d builds its form without normalizing -----------------------------


def shipped_bases():
    """The kappa basis of every shipped single action, and the glued and
    chart bases of every shipped covering with actions."""
    out = []
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        scn = cli.load_scenario(str(path))
        if scn.action is not None:
            out.append(kappa_basis(scn.action))
        if scn.actions is not None:
            gbasis, locals_ = scn.glued()
            out += [gbasis, *locals_]
    return out


def test_koszul_d_equals_the_normalizing_constructor_on_shipped_bases():
    rng = random.Random(2310)
    bases = shipped_bases()
    assert len(bases) >= 6
    for basis in bases:
        A = basis.algebra
        for degree in range(3):
            keys = list(combinations(range(basis.rank), degree))
            forms = [
                FormN(basis, degree, {}),
                FormN(basis, degree, {key: element(rng, A.dim) for key in keys}),
                FormN(basis, degree, {key: A.unit for key in keys}),
            ]
            for rho in forms:
                got = koszul_d(rho)
                want = FormN(basis, degree + 1, dict(got.entries))
                assert got == want and got.entries == want.entries
                assert all(key == tuple(sorted(set(key))) for key in got.entries)
                assert all(any(value) for value in got.entries.values())


# -- mutants ------------------------------------------------------------------


def mutated(module, function, replacements):
    """`function` with fragments of its source replaced, compiled in the
    module's namespace."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in replacements:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


FOLD = "xa, xb, xq = xa * ca - xb * cb, xa * cb + xb * ca, xq * c._q"

MUTANTS = {
    "fold-without-real-cross-term": (
        algebras, StarAlgebra._mac, [(FOLD, FOLD.replace(" - xb * cb", ""))]),
    "fold-without-imaginary-cross-term": (
        algebras, StarAlgebra._mac, [(FOLD, FOLD.replace(" + xb * ca", ""))]),
    "fold-without-imaginary-part-of-c": (
        algebras, StarAlgebra._mac, [(FOLD, FOLD.replace("xa * cb + ", ""))]),
    "swing-sign-flipped": (
        tangent, tangent.bracket,
        [("xs[0], ys[lam], ik)", "xs[0], ys[lam], -ik)"),
         ("ys[0], xs[lam], -ik)", "ys[0], xs[lam], ik)")]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_route_oracles_catch_mutants(monkeypatch, name):
    module, function, replacements = MUTANTS[name]
    mutant = mutated(module, function, replacements)
    if module is algebras:
        monkeypatch.setattr(StarAlgebra, "_mac", mutant)
    else:
        monkeypatch.setattr(tangent, "bracket", mutant)
    caught = 0
    rng = random.Random(2311)
    for assign in assignments():
        ders = derivations(assign, rng)
        for X, Y in zip(ders, ders[1:]):
            caught += tangent.bracket(X, Y).coefficients != operator_bracket(X, Y)
    assert caught
