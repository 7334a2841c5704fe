"""MV axioms, the induced effect algebra, and hidden-variable models."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qlogic import catalog
from qlogic.algebra import derive_order, find_isomorphism
from qlogic.cloning import find_cloning_bimorphism, meet_witness
from qlogic.fuzz import random_algebras
from qlogic.mv import (
    DEFAULT_SEED,
    MAX_MIXTURE_WEIGHT,
    ConstructionFailed,
    FiniteMV,
    HiddenVariableReport,
    SampledMV,
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
from test_algebra import catalog_suite


def luka_chain(steps):
    """Lukasiewicz structure on {0, 1/steps, ..., 1} with truncated sum."""
    elems = tuple(Fraction(k, steps) for k in range(steps + 1))
    plus = {(a, b): min(a + b, Fraction(1)) for a in elems for b in elems}
    neg = {a: 1 - a for a in elems}
    return FiniteMV(elems, plus, neg, Fraction(0), Fraction(1))


def test_luka_chain_satisfies_axioms():
    rep = check_mv_axioms(luka_chain(4))
    assert rep.passed
    assert rep.mode == "exhaustive"
    assert rep.triples_checked == 5**3


def test_broken_sum_fails_complement_axiom():
    # a + b := max(a + b - 1, 0) keeps commutativity but breaks a + a' = 1
    elems = (Fraction(0), Fraction(1, 2), Fraction(1))
    plus = {(a, b): max(a + b - 1, Fraction(0)) for a in elems for b in elems}
    neg = {a: 1 - a for a in elems}
    bad = FiniteMV(elems, plus, neg, Fraction(0), Fraction(1))
    rep = check_mv_axioms(bad)
    assert not rep.passed
    assert any("a + a' != 1" in v for v in rep.violations)


def test_broken_negation_detected():
    elems = (Fraction(0), Fraction(1))
    plus = {(a, b): min(a + b, Fraction(1)) for a in elems for b in elems}
    neg = {a: a for a in elems}  # not an involutive complement
    rep = check_mv_axioms(FiniteMV(elems, plus, neg, Fraction(0), Fraction(1)))
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


def test_chain_interval_is_increasing():
    alg = catalog.chain(3)
    assert chain_interval(alg, alg.unit) == [
        alg.index(x) for x in ("0", "1/3", "2/3", "1")
    ]
    for alg in random_algebras(seed=3, count=100):
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
    assert mv.plus(alg.unit, alg.unit) == alg.unit
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
    x = (Fraction(1), Fraction(1, 2))
    assert prod.neg(x) == (Fraction(0), Fraction(1, 2))


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
    """The lifted state on the MV carrier: value at (x_n) is omega(sum of x_n)."""
    alg = model.algebra
    lifted = {}
    for m in model.mv.elements:
        total = alg.zero
        for x in m:
            total = alg.table[total][x]
        lifted[m] = omega[total]
    return lifted


def test_hidden_variable_lift_matches_source():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    poly = enumerate_vertex_states(alg)
    omega = list(poly.vertices[0])
    omega_bar = lift_state(model, omega)
    assert check_lifted_state(model, omega, omega_bar) == []


def test_perturbed_lift_rejected():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    poly = enumerate_vertex_states(alg)
    omega = list(poly.vertices[0])
    omega_bar = lift_state(model, omega)
    key = model.h[alg.index("{1}")]
    omega_bar[key] = omega_bar[key] + Fraction(1, 7)
    assert check_lifted_state(model, omega, omega_bar) != []


@pytest.mark.parametrize("k", (2, 3))
def test_verify_hidden_variable_with_mixtures(k):
    alg = catalog.boolean_powerset(k)
    witness = find_cloning_bimorphism(alg).witnesses[0]
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    rep = verify_hidden_variable(
        model, enumerate_vertex_states(alg), mixtures=100, seed=7
    )
    assert rep.passed
    assert rep.mixtures_checked == 100
    assert rep.order_reflection


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


def test_construction_serialization():
    alg = catalog.boolean_powerset(2)
    witness = meet_witness(alg)
    model = hidden_variable_construct(alg, witness, atomic_decomposition(alg))
    doc = model.to_json_dict()
    assert sorted(doc["decomposition"]) == ["{1}", "{2}"]
    assert len(doc["h"]) == alg.size
    assert all(len(img) == 2 for img in doc["h"].values())


def fraction_verify_hidden_variable(
    model, polytope, mixtures=100, seed=DEFAULT_SEED
):
    """Oracle: verify_hidden_variable over Fractions, one lift per state.

    Each mixture is divided out to a Fraction state, lifted with lift_state
    and checked with check_lifted_state, with no common denominator.
    """
    violations = []
    states = [list(v) for v in polytope.vertices]
    rng = random.Random(seed)
    n_mix = 0
    if len(polytope.vertices) >= 1:
        for _ in range(mixtures):
            weights = [
                Fraction(rng.randint(1, MAX_MIXTURE_WEIGHT)) for _ in polytope.vertices
            ]
            total = sum(weights)
            mixed = [
                sum(w * v[p] for w, v in zip(weights, polytope.vertices)) / total
                for p in model.algebra.elements()
            ]
            states.append(mixed)
            n_mix += 1
    for omega in states:
        omega_bar = lift_state(model, omega)
        violations.extend(check_lifted_state(model, omega, omega_bar))
    reflection = order_reflection_holds(model)
    if not reflection:
        violations.append("order reflection of h fails")
    return HiddenVariableReport(
        passed=not violations,
        states_checked=len(polytope.vertices),
        mixtures_checked=n_mix,
        order_reflection=reflection,
        violations=tuple(violations),
        seed=seed,
    )


def hidden_variable_models(algebras, limit=None):
    """(model, polytope) for each algebra with a witness and a decomposition."""
    out = []
    for alg in algebras:
        outcome = find_cloning_bimorphism(alg)
        decomps = find_chain_decomposition(alg) if outcome.witnesses else []
        if decomps:
            model = hidden_variable_construct(alg, outcome.witnesses[0], decomps[0])
            out.append((model, enumerate_vertex_states(alg)))
            if len(out) == limit:
                break
    return out


@pytest.fixture(scope="module")
def oracle_models():
    models = hidden_variable_models(catalog_suite())
    for seed in (1, 7, 202):
        fuzz = hidden_variable_models(random_algebras(seed, 400), limit=100)
        assert len(fuzz) == 100
        models += fuzz
    return models


def perturbed(model, polytope, i):
    """One vertex moved by +-1/3 at one element and by 1/2 at the next, so
    the common denominator (6) is not the largest one; every third model
    also swaps h at zero and the unit."""
    vertices = [list(v) for v in polytope.vertices]
    v = vertices[i % len(vertices)]
    v[i % len(v)] += Fraction(1 if i % 2 else -1, 3)
    v[(i + 1) % len(v)] += Fraction(1, 2)
    poly = StatePolytope(tuple(map(tuple, vertices)), polytope.affine_dimension)
    if i % 3 == 0:
        alg, h = model.algebra, dict(model.h)
        h[alg.zero], h[alg.unit] = h[alg.unit], h[alg.zero]
        model = replace(model, h=h)
    return model, poly


def test_integer_verification_matches_fraction_oracle(oracle_models):
    for model, poly in oracle_models:
        rep = verify_hidden_variable(model, poly)
        assert rep.passed
        assert rep == fraction_verify_hidden_variable(model, poly)


def test_integer_verification_matches_oracle_on_perturbed_polytopes(oracle_models):
    kinds = ("disagrees", "at the unit", "negative value", "additivity", "reflection")
    seen = set()
    for i, (model, poly) in enumerate(oracle_models):
        model, poly = perturbed(model, poly, i)
        rep = verify_hidden_variable(model, poly, seed=i)
        assert rep == fraction_verify_hidden_variable(model, poly, seed=i)
        seen.update(k for k in kinds for v in rep.violations if k in v)
    assert seen == set(kinds)


def test_verification_without_vertices():
    alg = catalog.boolean_powerset(2)
    model = hidden_variable_construct(alg, meet_witness(alg), atomic_decomposition(alg))
    empty = StatePolytope(vertices=(), affine_dimension=0)
    rep = verify_hidden_variable(model, empty)
    assert rep == fraction_verify_hidden_variable(model, empty)
    assert (rep.states_checked, rep.mixtures_checked, rep.violations) == (0, 0, ())


def test_verification_without_mixtures_matches_oracle(oracle_models):
    # the vertex lanes alone, on the plain and the perturbed polytopes
    for i, (model, poly) in enumerate(oracle_models):
        for case in ((model, poly), perturbed(model, poly, i)):
            rep = verify_hidden_variable(*case, mixtures=0)
            assert rep == fraction_verify_hidden_variable(*case, mixtures=0)
            assert rep.mixtures_checked == 0


def boolean_models():
    return hidden_variable_models(catalog.boolean_powerset(k) for k in (2, 3, 4))


def moved_vertices(poly, moves):
    """The polytope with moves[i] added to vertex i (a vector or None)."""
    vertices = tuple(
        v if d is None else tuple(x + y for x, y in zip(v, d))
        for v, d in zip(poly.vertices, moves + [None] * len(poly.vertices))
    )
    return StatePolytope(vertices, poly.affine_dimension)


def test_verification_at_a_large_common_denominator():
    # every vertex moved 10**-12 of the way to the next is still a state
    den = 10**12
    for model, poly in boolean_models():
        vs = poly.vertices
        moves = [
            [(y - x) / den for x, y in zip(v, vs[(i + 1) % len(vs)])]
            for i, v in enumerate(vs)
        ]
        rescaled = moved_vertices(poly, moves)
        rep = verify_hidden_variable(model, rescaled)
        assert rep.passed
        assert rep == fraction_verify_hidden_variable(model, rescaled)


def test_lane_width_keeps_errors_from_cancelling():
    # vertex 0 is off by 2**t/den at the unit and vertex 1 by -1/den: in lanes
    # t bits wide the two errors would cancel, so the check must still fail
    model, poly = boolean_models()[0]
    den, unit = 10**12, model.algebra.unit
    for t in range(80):
        moves = [[Fraction(0)] * model.algebra.size for _ in range(2)]
        moves[0][unit], moves[1][unit] = Fraction(2**t, den), Fraction(-1, den)
        bad = moved_vertices(poly, moves)
        rep = verify_hidden_variable(model, bad, mixtures=0)
        assert not rep.passed
        assert rep == fraction_verify_hidden_variable(model, bad, mixtures=0)


@pytest.mark.parametrize("mixtures", (0, 100))
def test_negative_vertex_entry_checked_state_by_state(mixtures):
    # 2*V0 - V1 is additive with value 1 at the unit, but negative where
    # V1 exceeds 2*V0
    for model, poly in boolean_models():
        v0, v1 = poly.vertices[:2]
        signed = moved_vertices(poly, [[x - y for x, y in zip(v0, v1)]])
        rep = verify_hidden_variable(model, signed, mixtures=mixtures)
        assert rep == fraction_verify_hidden_variable(model, signed, mixtures=mixtures)
        assert any("negative value" in v for v in rep.violations)


def expected_mv_failures(mv):
    """Every failing instance of the eight identities, found independently."""
    plus, neg, zero, one, elems = mv.plus, mv.neg, mv.zero, mv.one, mv.elements
    found = set() if neg(zero) == one else {"0' != 1"}
    for a in elems:
        for name, lhs, rhs in (
            ("a + a' != 1", plus(a, neg(a)), one),
            ("a + 0 != a", plus(a, zero), a),
            ("a'' != a", neg(neg(a)), a),
            ("a + 1 != 1", plus(a, one), one),
        ):
            if lhs != rhs:
                found.add(f"{name} at {a}")
        for b in elems:
            if plus(a, b) != plus(b, a):
                found.add(f"commutativity fails on ({a}, {b})")
            if plus(neg(plus(neg(a), b)), b) != plus(neg(plus(a, neg(b))), a):
                found.add(f"(a'+b)'+b != (a+b')'+a on ({a}, {b})")
            for c in elems:
                if plus(plus(a, b), c) != plus(a, plus(b, c)):
                    found.add(f"associativity fails on ({a}, {b}, {c})")
    return found


@pytest.mark.parametrize("broken", ("neg", "plus"))
def test_each_failing_mv_instance_reported_once(broken):
    good = luka_chain(4)
    plus, neg = good.plus_map, good.neg_map
    if broken == "neg":
        neg = {a: a for a in good.elements}  # not an involutive complement
    else:
        plus = {(a, b): a for a, b in plus}  # not commutative
    bad = FiniteMV(good.elements, plus, neg, good.zero, good.one)
    expected = expected_mv_failures(bad)
    rep = check_mv_axioms(bad)
    assert rep.triples_checked == 5**3
    assert sorted(rep.violations) == sorted(expected)
    sampled = SampledMV(
        bad.plus, bad.neg, bad.zero, bad.one, lambda rng: rng.choice(bad.elements)
    )
    rep = check_mv_axioms(sampled)
    assert (rep.mode, rep.triples_checked, rep.seed) == ("sampled", 1000, DEFAULT_SEED)
    assert len(set(rep.violations)) == len(rep.violations)
    assert set(rep.violations) == expected
