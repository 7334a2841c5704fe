"""MV axioms, the induced effect algebra, and hidden-variable models."""

import random
from fractions import Fraction
from itertools import product as iproduct
from types import SimpleNamespace

import pytest

from qlogic import catalog
from qlogic.algebra import derive_order, find_isomorphism
from qlogic.cloning import CloningWitness, find_cloning_bimorphism, meet_witness
from qlogic.mv import (
    DEFAULT_SEED,
    MAX_MIXTURE_WEIGHT,
    MIXTURES,
    ConstructionFailed,
    FiniteMV,
    HiddenVariableReport,
    MVReport,
    _mixture_weights,
    chain_interval,
    check_lifted_state,
    check_mv_axioms,
    effect_algebra_of_mv,
    find_chain_decomposition,
    hidden_variable_construct,
    interval_mv,
    order_reflection_holds,
    product_mv,
    verify_hidden_variable,
)
from qlogic.states import StatePolytope, enumerate_vertex_states
from corpus import (
    CORE,
    fraction_vertices,
    hidden_variable_models,
    integer_polytope,
    luka_chain,
    upto,
)


def element_ops(mv):
    """mv's sum and complement on element values, one P or N lookup each."""
    elems, P, N = mv.elements, mv.P, mv.N
    pos = {a: i for i, a in enumerate(elems)}
    return (lambda a, b: elems[P[pos[a]][pos[b]]]), (lambda a: elems[N[pos[a]]])


def test_luka_chain_satisfies_axioms():
    rep = check_mv_axioms(luka_chain(4))
    assert rep.passed
    assert rep.triples_checked == 5**3


def test_broken_sum_fails_complement_axiom():
    # a + b := max(a + b - 1, 0) keeps commutativity but breaks a + a' = 1
    bad = luka_chain(2)._replace(
        P=tuple(tuple(max(i + j - 2, 0) for j in range(3)) for i in range(3))
    )
    rep = check_mv_axioms(bad)
    assert not rep.passed
    assert any("a + a' != 1" in v for v in rep.violations)


def test_broken_negation_detected():
    # 0' = 0 and 1' = 1: not an involutive complement
    rep = check_mv_axioms(luka_chain(1)._replace(N=(0, 1)))
    assert not rep.passed


def test_two_element_mv_gives_bp1():
    alg = effect_algebra_of_mv(luka_chain(1))
    assert find_isomorphism(alg, catalog.boolean_powerset(1)) is not None


def test_three_element_mv_gives_chain2():
    alg = effect_algebra_of_mv(luka_chain(2))
    assert find_isomorphism(alg, catalog.chain(2)) is not None


def test_mv_effect_algebra_partiality():
    alg = effect_algebra_of_mv(luka_chain(2))
    h = alg.index("1/2")
    # 1/2 + 1/2 is kept (1/2 <= (1/2)'), 1/2 + 1 is dropped
    assert alg.table[h][h] == alg.unit
    assert alg.table[h][alg.unit] is None


def test_chain_ideal_predicate():
    alg = catalog.boolean_powerset(2)
    assert chain_interval(alg, alg.index("{1}")) is not None
    assert chain_interval(alg, alg.unit) is None  # {1} and {2} are incomparable
    assert chain_interval(catalog.chain(2), catalog.chain(2).unit) is not None


def test_chain_interval_is_increasing(corpus):
    alg = catalog.chain(3)
    assert chain_interval(alg, alg.unit) == [
        alg.index(x) for x in ("0", "1/3", "2/3", "1")
    ]
    for alg in upto(corpus, caps=CORE):
        lo = derive_order(alg).leq
        for p in alg.elements():
            interval = chain_interval(alg, p)
            if interval is not None:
                assert sorted(interval) == [x for x in alg.elements() if lo[x][p]]
                assert all(lo[x][y] for x, y in zip(interval, interval[1:]))


def test_chain_decomposition_bp2():
    alg = catalog.boolean_powerset(2)
    parts = find_chain_decomposition(alg)
    labelled = [tuple(alg.labels[p] for p in d) for d in parts]
    assert ("{1}", "{2}") in labelled
    assert all("{1,2}" not in d for d in labelled)


def test_chain_decomposition_chain2():
    # [0, 1/2] is not sum-closed (1/2 + 1/2 = 1), so the whole carrier is the
    # only admissible part
    alg = catalog.chain(2)
    parts = find_chain_decomposition(alg)
    labelled = [tuple(alg.labels[p] for p in d) for d in parts]
    assert labelled == [("1",)]


def test_chain_decomposition_mo2():
    alg = catalog.mo(2)
    parts = find_chain_decomposition(alg)
    labelled = {tuple(sorted(alg.labels[p] for p in d)) for d in parts}
    assert ("a1", "a1'") in labelled
    assert ("a2", "a2'") in labelled


def test_interval_mv_truncates():
    alg = catalog.boolean_powerset(1)
    mv = interval_mv(alg, alg.unit)
    assert mv.elements[mv.one] == alg.unit
    assert mv.P[mv.one][mv.one] == mv.one
    assert check_mv_axioms(mv).passed


def test_interval_mv_rejects_non_ideal():
    alg = catalog.boolean_powerset(2)
    with pytest.raises(ConstructionFailed):
        interval_mv(alg, alg.unit)


def test_product_mv_componentwise():
    a = luka_chain(1)
    b = luka_chain(2)
    prod = product_mv([a, b])
    assert len(prod.elements) == 6
    assert check_mv_axioms(prod).passed
    _, neg = element_ops(prod)
    assert neg((Fraction(1), Fraction(1, 2))) == (Fraction(0), Fraction(1, 2))


def product_by_maps(components):
    """Oracle: the product as dicts keyed by element tuples, one component
    lookup per coordinate, then numbered in itertools.product order."""
    elements = tuple(iproduct(*(c.elements for c in components)))
    ops = [element_ops(c) for c in components]
    plus = {
        (a, b): tuple(op[0](x, y) for op, x, y in zip(ops, a, b))
        for a in elements
        for b in elements
    }
    neg = {a: tuple(op[1](x) for op, x in zip(ops, a)) for a in elements}
    index = {a: i for i, a in enumerate(elements)}
    return FiniteMV(
        elements,
        tuple(tuple(index[plus[a, b]] for b in elements) for a in elements),
        tuple(index[neg[a]] for a in elements),
        index[tuple(c.elements[c.zero] for c in components)],
        index[tuple(c.elements[c.one] for c in components)],
    )


def test_product_mv_matches_dict_oracle(models):
    # mixed radix over three components of sizes 2, 3 and 4
    components = [luka_chain(1), luka_chain(2), luka_chain(3)]
    prod = product_mv(components)
    assert len(prod.elements) == 24
    assert prod == product_by_maps(components)
    assert check_mv_axioms(prod).passed
    for model, _ in models:
        assert model.mv == product_by_maps(model.components)


def test_finite_mv_is_immutable():
    mv = product_mv([luka_chain(1), luka_chain(2)])
    assert all(type(f) is tuple for f in (mv.elements, mv.P, mv.N, *mv.P))
    with pytest.raises(AttributeError):
        mv.one = mv.zero


def atomic_decomposition(alg):
    parts = find_chain_decomposition(alg)
    assert parts, "no chain decomposition available"
    return parts[0]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_hidden_variable_construct_on_powersets(k):
    alg = catalog.boolean_powerset(k)
    witness = find_cloning_bimorphism(alg).witnesses[0]
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    assert len(model.mv.elements) == alg.size
    assert order_reflection_holds(model)


def lift_state(model, omega):
    """The lifted state on the MV carrier, in mv.elements order: the value at
    (x_n) is omega(sum of x_n)."""
    alg = model.algebra
    lifted = []
    for m in model.mv.elements:
        total = alg.zero
        for x in m:
            total = alg.table[total][x]
        lifted.append(omega[total])
    return lifted


def test_hidden_variable_lift_matches_source():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    omega = list(fraction_vertices(enumerate_vertex_states(alg))[0])
    omega_bar = lift_state(model, omega)
    assert check_lifted_state(model, omega, omega_bar) == []


def test_perturbed_lift_rejected():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    omega = list(fraction_vertices(enumerate_vertex_states(alg))[0])
    omega_bar = lift_state(model, omega)
    key = model.h[alg.index("{1}")]
    omega_bar[key] = omega_bar[key] + Fraction(1, 7)
    assert check_lifted_state(model, omega, omega_bar) != []


@pytest.mark.parametrize("k", (2, 3))
def test_verify_hidden_variable_with_mixtures(k):
    alg = catalog.boolean_powerset(k)
    witness = find_cloning_bimorphism(alg).witnesses[0]
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    rep = verify_hidden_variable(model, enumerate_vertex_states(alg))
    assert rep.passed
    assert rep.mixtures_checked == 100
    assert rep.order_reflection


def test_hidden_variable_report_is_immutable():
    alg = catalog.boolean_powerset(2)
    witness = find_cloning_bimorphism(alg).witnesses[0]
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    rep = verify_hidden_variable(model, enumerate_vertex_states(alg))
    with pytest.raises(AttributeError):
        rep.passed = False
    assert rep.passed


def test_construct_requires_valid_witness():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    bad_table = [list(r) for r in witness.table]
    a, b = alg.index("{1}"), alg.index("{2}")
    bad_table[a][b] = alg.unit
    bad = witness.__class__(alg, tuple(tuple(r) for r in bad_table))
    with pytest.raises(ConstructionFailed):
        hidden_variable_construct(alg, bad, atomic_decomposition(alg))


def test_construct_requires_unit_decomposition():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    with pytest.raises(ConstructionFailed):
        hidden_variable_construct(alg, witness, (alg.index("{1}"),))


def test_construct_unavailable_on_chain2():
    # chain(2) admits no cloning witness, so no table passes verification and
    # the construction's hypotheses cannot be met
    alg = catalog.chain(2)
    assert find_cloning_bimorphism(alg).status == "no-witness"
    h = alg.index("1/2")
    table = [[None] * alg.size for _ in alg.elements()]
    for p in alg.elements():
        table[p][alg.unit] = table[alg.unit][p] = p
        table[p][alg.zero] = table[alg.zero][p] = alg.zero
    table[h][h] = h
    fake = meet_witness(catalog.boolean_powerset(1)).__class__(
        alg, tuple(tuple(r) for r in table)
    )
    with pytest.raises(ConstructionFailed):
        hidden_variable_construct(alg, fake, (h, h))


def refusal(monkeypatch, alg, table, parts):
    """hidden_variable_construct's message on parts, every witness passing."""
    monkeypatch.setattr("qlogic.mv.verify_witness", lambda *_: (True, None))
    witness = CloningWitness(alg, tuple(map(tuple, table)))
    with pytest.raises(ConstructionFailed) as refused:
        hidden_variable_construct(alg, witness, [alg.index(p) for p in parts])
    return str(refused.value)


def test_construct_refusals_after_the_witness_check(monkeypatch):
    # with verify_witness passing every table, each later refusal is reached
    ch2 = catalog.chain(2)
    parts = ("1/2", "1/2")
    assert refusal(monkeypatch, ch2, derive_order(ch2).meet, parts) == (
        "part 1/2 is not sharp"
    )
    alg = catalog.boolean_powerset(2)
    z, a, b, u = map(alg.index, ("{}", "{1}", "{2}", "{1,2}"))
    parts, meet = ("{1}", "{2}"), derive_order(alg).meet
    table = [list(row) for row in meet]
    table[a][b] = b  # c({1}, {2}) = {2}, outside [0, {1}]
    assert refusal(monkeypatch, alg, table, parts) == (
        "h({2}) leaves the product carrier"
    )
    table = [[z] * alg.size for _ in alg.elements()]
    assert refusal(monkeypatch, alg, table, parts) == "h is not injective"
    # c({2}, 1) = 0 and c({2}, {1}) = {2}: h(1) = ({1}, 0), h({1}) = ({1}, {2})
    # and h({2}) = (0, {2}) make a bijection, but h({1}) + h({2}) truncates
    # to ({1}, {2}), not h(1)
    table = [list(row) for row in meet]
    table[b][u], table[b][a] = z, b
    assert refusal(monkeypatch, alg, table, parts) == (
        "h is not additive on ({1}, {2})"
    )


def test_construction_serialization():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    doc = model.to_json_dict()
    assert sorted(doc["decomposition"]) == ["{1}", "{2}"]
    assert len(doc["h"]) == alg.size
    assert all(len(img) == 2 for img in doc["h"].values())


def scalar_order_reflection(model):
    """Oracle: order reflection with one P and two N lookups per pair;
    h(x) <= h(y)' in the MV order iff h(x)' + h(y)' = 1."""
    alg, mv, h = model.algebra, model.mv, model.h
    order = derive_order(alg)
    return all(
        order.leq[x][order.supplement[y]]
        == (mv.P[mv.N[h[x]]][mv.N[h[y]]] == mv.one)
        for x in alg.elements()
        for y in alg.elements()
    )


def fraction_verify_hidden_variable(model, polytope):
    """Oracle: verify_hidden_variable over Fractions, one lift per state.

    Each of the MIXTURES mixtures is divided out to a Fraction state, lifted
    with lift_state and checked with check_lifted_state, with no common
    denominator.  The weights come from random.Random(DEFAULT_SEED).randint
    and order reflection from the scalar oracle.
    """
    states = fraction_states(polytope)
    violations = fraction_state_violations(model, states)
    reflection = scalar_order_reflection(model)
    if not reflection:
        violations.append("order reflection of h fails")
    return HiddenVariableReport(
        passed=not violations,
        states_checked=len(polytope.vertices),
        mixtures_checked=len(states) - len(polytope.vertices),
        order_reflection=reflection,
        violations=tuple(violations),
        seed=DEFAULT_SEED,
    )


def fraction_states(polytope):
    """The vertices as Fraction states, then, if there is one, the MIXTURES
    mixtures with weights from random.Random(DEFAULT_SEED).randint."""
    vertices = fraction_vertices(polytope)
    states = [list(v) for v in vertices]
    rng = random.Random(DEFAULT_SEED)
    for _ in range(MIXTURES if vertices else 0):
        weights = [Fraction(rng.randint(1, MAX_MIXTURE_WEIGHT)) for _ in vertices]
        total = sum(weights)
        states.append(
            [
                sum(w * v[p] for w, v in zip(weights, vertices)) / total
                for p in range(len(vertices[0]))
            ]
        )
    return states


def fraction_state_violations(model, states):
    """check_lifted_state's messages, state after state in the given order."""
    return [
        msg
        for omega in states
        for msg in check_lifted_state(model, omega, lift_state(model, omega))
    ]


def perturbed(model, polytope, i):
    """One vertex moved by +-1/3 at one element and by 1/2 at the next, so
    the common denominator (6) is not the largest one; every third model
    also swaps h at zero and the unit."""
    vertices = [list(v) for v in fraction_vertices(polytope)]
    v = vertices[i % len(vertices)]
    v[i % len(v)] += Fraction(1 if i % 2 else -1, 3)
    v[(i + 1) % len(v)] += Fraction(1, 2)
    poly = integer_polytope(vertices, polytope.affine_dimension)
    if i % 3 == 0:
        alg, h = model.algebra, list(model.h)
        h[alg.zero], h[alg.unit] = h[alg.unit], h[alg.zero]
        model = model._replace(h=tuple(h))
    return model, poly


def test_integer_verification_matches_fraction_oracle(models):
    for model, poly in models:
        rep = verify_hidden_variable(model, poly)
        assert rep.passed
        assert rep == fraction_verify_hidden_variable(model, poly)


def test_integer_verification_matches_oracle_on_perturbed_polytopes(models):
    kinds = ("disagrees", "at the unit", "negative value", "additivity", "reflection")
    seen = set()
    for i, (model, poly) in enumerate(models):
        model, poly = perturbed(model, poly, i)
        rep = verify_hidden_variable(model, poly)
        assert rep == fraction_verify_hidden_variable(model, poly)
        seen.update(k for k in kinds for v in rep.violations if k in v)
    assert seen == set(kinds)


def test_verification_leaves_the_induced_algebra_underived(models):
    # check_state reads the induced algebra's sums from its table, so no
    # DerivedStructure is built for it, on passing and on failing states;
    # slice: every fifth model
    for i, (model, poly) in enumerate(models[::5]):
        for case in ((model, poly), perturbed(model, poly, i)):
            verify_hidden_variable(*case)
            assert "_derived" not in case[0].induced.__dict__


def test_verification_without_vertices():
    alg = catalog.boolean_powerset(2)
    model = hidden_variable_construct(alg, meet_witness(alg), atomic_decomposition(alg))
    empty = StatePolytope(denominator=1, vertices=(), affine_dimension=0)
    rep = verify_hidden_variable(model, empty)
    assert rep == fraction_verify_hidden_variable(model, empty)
    assert (rep.states_checked, rep.mixtures_checked, rep.violations) == (0, 0, ())


def catalog_models(corpus):
    """(model, polytope) for the catalog's witness algebras with two or more
    vertex states: bp(2), bp(3), bp(4) and mo(1)."""
    models = hidden_variable_models(upto(corpus, source="catalog"))
    return [(model, poly) for model, poly in models if len(poly.vertices) > 1]


def moved_vertices(poly, moves):
    """The polytope with moves[i] added to vertex i (a vector or None)."""
    vertices = [
        v if d is None else tuple(x + y for x, y in zip(v, d))
        for v, d in zip(fraction_vertices(poly), moves + [None] * len(poly.vertices))
    ]
    return integer_polytope(vertices, poly.affine_dimension)


def test_verification_at_a_large_common_denominator(corpus):
    # every vertex moved 10**-12 of the way to the next is still a state
    den = 10**12
    for model, poly in catalog_models(corpus):
        vs = fraction_vertices(poly)
        moves = [
            [(y - x) / den for x, y in zip(v, vs[(i + 1) % len(vs)])]
            for i, v in enumerate(vs)
        ]
        rescaled = moved_vertices(poly, moves)
        rep = verify_hidden_variable(model, rescaled)
        assert rep.passed
        assert rep == fraction_verify_hidden_variable(model, rescaled)


def test_lane_width_keeps_errors_from_cancelling(corpus):
    # state j has weights rows[j] (the vertices, then the mixtures), so errors
    # d0 and d1 at the unit of vertices 0 and 1 put sum_i rows[j][i] * d_i in
    # lane j; with d0 = c1 and d1 = -c0, c_i = sum_j rows[j][i] << t*j, the
    # lanes' errors would cancel in lanes t bits wide, so the check must fail
    model, poly = catalog_models(corpus)[0]
    k, unit = len(poly.vertices), model.algebra.unit
    weights = _mixture_weights(DEFAULT_SEED, k * MIXTURES)
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    rows += [weights[i : i + k] for i in range(0, k * MIXTURES, k)]
    for t in range(80):
        c0, c1 = (sum(w[i] << t * j for j, w in enumerate(rows)) for i in (0, 1))
        moves = [[Fraction(0)] * model.algebra.size for _ in range(2)]
        # d0 and d1 scaled by 1/(4*c0): vertex 1 keeps 3/4 at the unit, so no
        # entry is negative and the lanes are used
        moves[0][unit], moves[1][unit] = Fraction(c1, 4 * c0), Fraction(-1, 4)
        bad = moved_vertices(poly, moves)
        rep = verify_hidden_variable(model, bad)
        assert not rep.passed
        assert rep == fraction_verify_hidden_variable(model, bad)


@pytest.mark.parametrize("mixtures", (0, MIXTURES))
def test_negative_vertex_entry_checked_state_by_state(corpus, mixtures):
    # 2*V0 - V1 is additive with value 1 at the unit, but negative where
    # V1 exceeds 2*V0; the report lists the messages state by state, so those
    # of the vertices and the first `mixtures` mixtures lead it, and the
    # vertices alone already show the negative value
    for model, poly in catalog_models(corpus):
        v0, v1 = fraction_vertices(poly)[:2]
        signed = moved_vertices(poly, [[x - y for x, y in zip(v0, v1)]])
        rep = verify_hidden_variable(model, signed)
        assert rep == fraction_verify_hidden_variable(model, signed)
        states = fraction_states(signed)[: len(signed.vertices) + mixtures]
        leading = fraction_state_violations(model, states)
        assert rep.violations[: len(leading)] == tuple(leading)
        assert any("negative value" in v for v in leading)


def scalar_mv_report(mv):
    """Oracle: the exhaustive MV check on the element values themselves,
    with one plus or neg call per operation and no row comparisons."""
    (plus, neg), elems = element_ops(mv), mv.elements
    zero, one = elems[mv.zero], elems[mv.one]
    violations = [] if neg(zero) == one else ["0' != 1"]
    for a in elems:
        if plus(a, neg(a)) != one:
            violations.append(f"a + a' != 1 at {a}")
        if plus(a, zero) != a:
            violations.append(f"a + 0 != a at {a}")
        if neg(neg(a)) != a:
            violations.append(f"a'' != a at {a}")
        if plus(a, one) != one:
            violations.append(f"a + 1 != 1 at {a}")
    for a, b in iproduct(elems, repeat=2):
        if plus(a, b) != plus(b, a):
            violations.append(f"commutativity fails on ({a}, {b})")
        if plus(neg(plus(neg(a), b)), b) != plus(neg(plus(a, neg(b))), a):
            violations.append(f"(a'+b)'+b != (a+b')'+a on ({a}, {b})")
    for a, b, c in iproduct(elems, repeat=3):
        if plus(plus(a, b), c) != plus(a, plus(b, c)):
            violations.append(f"associativity fails on ({a}, {b}, {c})")
    return MVReport(
        passed=not violations,
        triples_checked=len(elems) ** 3,
        violations=tuple(violations),
    )


def one_cell_changed(mv, i):
    """Copies of mv with one P cell, then one N entry, moved to the next
    element in carrier order; i picks the cell and the entry."""
    n = len(mv.elements)
    P = [list(row) for row in mv.P]
    a, b = i % n, (3 * i + 1) % n
    P[a][b] = (P[a][b] + 1) % n
    N = list(mv.N)
    a = (5 * i) % n
    N[a] = (N[a] + 1) % n
    return [mv._replace(P=tuple(map(tuple, P))), mv._replace(N=tuple(N))]


def test_index_table_mv_check_matches_scalar_oracle(models):
    kinds = (
        "0' != 1", "a + a' != 1", "a + 0 != a", "a'' != a", "a + 1 != 1",
        "commutativity", "(a'+b)'+b", "associativity",
    )
    seen = set()
    for i, (model, _) in enumerate(models):
        rep = check_mv_axioms(model.mv)
        assert rep.passed
        assert rep == scalar_mv_report(model.mv)
        for bad in one_cell_changed(model.mv, i):
            rep = check_mv_axioms(bad)
            assert not rep.passed
            assert rep == scalar_mv_report(bad)
            seen.update(k for k in kinds for v in rep.violations if v.startswith(k))
    assert seen == set(kinds)


@pytest.mark.parametrize("broken", ("neg", "plus"))
def test_each_failing_mv_instance_reported_once(broken):
    good = luka_chain(4)
    if broken == "neg":
        bad = good._replace(N=tuple(range(5)))  # not an involutive complement
    else:
        bad = good._replace(P=tuple((i,) * 5 for i in range(5)))  # not commutative
    expected = set(scalar_mv_report(bad).violations)
    rep = check_mv_axioms(bad)
    assert rep.triples_checked == 5**3
    assert len(set(rep.violations)) == len(rep.violations)
    assert set(rep.violations) == expected


@pytest.mark.parametrize("seed", (DEFAULT_SEED, 0, 1, 7, -7, 2**70))
def test_mixture_weights_are_the_randint_draws(seed):
    # the counts verify_hidden_variable asks for with 1..8 vertices, too
    rng = random.Random(seed)
    expected = [rng.randint(1, MAX_MIXTURE_WEIGHT) for _ in range(12_000)]
    for count in (12_000, 5, 0, *(k * MIXTURES for k in range(1, 9))):
        assert list(_mixture_weights(seed, count)) == expected[:count]


def test_mixture_weights_draw_another_round_when_one_falls_short(monkeypatch):
    # seed 1 and 400 weights (4 vertices): the first round's draws keep
    # fewer than 400, so a second round is drawn, and the weights are still
    # randint's
    seed, count = 1, 4 * MIXTURES
    rounds = []

    class Recording(random.Random):
        def getrandbits(self, k):
            rounds.append(k // 32)
            return super().getrandbits(k)

    monkeypatch.setattr("qlogic.mv.random", SimpleNamespace(Random=Recording))
    weights = _mixture_weights(seed, count)
    assert len(rounds) >= 2
    rng = random.Random(seed)
    bits = MAX_MIXTURE_WEIGHT.bit_length()
    first_round = [rng.getrandbits(bits) for _ in range(rounds[0])]
    assert sum(r < MAX_MIXTURE_WEIGHT for r in first_round) < count
    rng = random.Random(seed)
    assert list(weights) == [rng.randint(1, MAX_MIXTURE_WEIGHT) for _ in range(count)]


def test_packed_check_runs_once_and_states_one_by_one_only_on_failure(
    corpus, monkeypatch
):
    # with no negative vertex entry one check_lifted_state call covers every
    # state; a model that fails it is checked again once per state
    calls = []

    def recording(*args):
        calls.append(args)
        return check_lifted_state(*args)

    monkeypatch.setattr("qlogic.mv.check_lifted_state", recording)
    for model, poly in catalog_models(corpus):
        k = len(poly.vertices)
        assert min(map(min, poly.vertices)) >= 0
        calls.clear()
        assert verify_hidden_variable(model, poly).passed
        assert len(calls) == 1
        # vertex 0 at 3/2 on the unit is not a state, and no entry is negative
        moves = [[Fraction(0)] * model.algebra.size]
        moves[0][model.algebra.unit] = Fraction(1, 2)
        bad = moved_vertices(poly, moves)
        calls.clear()
        assert not verify_hidden_variable(model, bad).passed
        assert len(calls) == 1 + k + MIXTURES


def with_h_swapped(model, i):
    """The model with the h images of two distinct elements swapped; i picks them."""
    n = model.algebra.size
    x = i % n
    y = (x + 1 + i % (n - 1)) % n
    h = list(model.h)
    h[x], h[y] = h[y], h[x]
    return model._replace(h=tuple(h))


def test_order_reflection_matches_scalar_oracle(models):
    outcomes = set()
    for i, (model, _) in enumerate(models):
        assert order_reflection_holds(model)
        assert scalar_order_reflection(model)
        swapped = with_h_swapped(model, i)
        holds = order_reflection_holds(swapped)
        assert holds == scalar_order_reflection(swapped)
        outcomes.add(holds)
    assert outcomes == {True, False}

