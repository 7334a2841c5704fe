"""Acceptance gate: eight criteria, one pass/fail line each.

Each criterion prints a single line of the form

    [criterion N] <name>: PASS|FAIL

to the real stdout (bypassing capture) and then asserts.  All equality is
exact; the only tolerances are the stated runtime ceilings.
"""

import random
import sys
import time

from qlogic import catalog
from qlogic.algebra import (
    derive_order,
    find_isomorphism,
    is_archimedean,
    is_atomic,
    is_boolean,
    is_orthoalgebra,
    is_sharp,
)
from qlogic.cloning import check_witness_lemmas, find_cloning_bimorphism, meet_witness
from qlogic.divisible import (
    complement,
    constant,
    diagonal_clone,
    indicator_algebra,
    lukasiewicz_rationals,
    outer,
    pointwise_sum,
    product_bimorphism,
    sample_function,
)
from qlogic.fuzz import random_algebras
from qlogic.mv import (
    DEFAULT_SEED,
    check_mv_axioms,
    hidden_variable_construct,
    verify_hidden_variable,
)
from qlogic.states import enumerate_vertex_states, is_separating, monotone_under


def report(capsys, number, name, passed):
    line = f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}"
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()
    assert passed, line


def orthoalgebra_suite():
    suite = [catalog.boolean_powerset(k) for k in (1, 2, 3, 4)]
    suite += [catalog.mo(n) for n in (1, 2, 3, 4)]
    suite.append(catalog.wright_triangle())
    bp2, bp3 = catalog.boolean_powerset(2), catalog.boolean_powerset(3)
    suite += [
        catalog.horizontal_sum(bp2, bp2),  # 6 elements
        catalog.horizontal_sum(bp2, bp3),  # 10 elements
        catalog.horizontal_sum(bp3, bp3),  # 14 elements
        catalog.horizontal_sum(bp2, bp2, bp2),  # 8 elements
    ]
    assert all(alg.size <= 16 for alg in suite[-4:])
    return suite


def test_criterion_1_equivalence_witness_iff_boolean(capsys):
    start = time.monotonic()
    ok = True
    for alg in orthoalgebra_suite():
        outcome = find_cloning_bimorphism(alg)
        if outcome.status == "aborted":
            ok = False
            break
        found = outcome.status == "witness-found"
        if found != is_boolean(alg):
            ok = False
            break
    elapsed = time.monotonic() - start
    report(capsys, 1, f"witness exists iff Boolean across the catalog ({elapsed:.1f}s)", ok and elapsed < 300)


def test_criterion_2_atomic_archimedean_nonboolean_no_witness(capsys):
    suite = [catalog.chain(d) for d in (2, 3, 4, 5, 6)]
    suite.append(catalog.product(catalog.chain(2), catalog.chain(2)))
    ok = True
    worst = 0.0
    for alg in suite:
        start = time.monotonic()
        if not (is_atomic(alg) and is_archimedean(alg)):
            ok = False
        if is_boolean(alg):
            ok = False
        if find_cloning_bimorphism(alg).status != "no-witness":
            ok = False
        worst = max(worst, time.monotonic() - start)
    report(capsys, 2, f"divisible instances refuse cloning (max {worst:.1f}s per instance)", ok and worst < 60)


def test_criterion_3_witness_lemmas(capsys):
    ok = True
    checked = 0
    for alg in orthoalgebra_suite():
        outcome = find_cloning_bimorphism(alg, enumerate_all=True)
        for witness in outcome.witnesses:
            lemmas = check_witness_lemmas(alg, witness)
            checked += 1
            if lemmas.violations or not lemmas.passed:
                ok = False
    report(capsys, 3, f"orthogonality and idempotence lemmas on {checked} witnesses", ok and checked > 0)


def test_criterion_4_boolean_witness_uniqueness(capsys):
    ok = True
    for k in (1, 2, 3):
        alg = catalog.boolean_powerset(k)
        outcome = find_cloning_bimorphism(alg, enumerate_all=True)
        if len(outcome.witnesses) != 1:
            ok = False
        elif outcome.witnesses[0].table != meet_witness(alg).table:
            ok = False
    report(capsys, 4, "unique witness equals the meet table on powersets", ok)


def test_criterion_5_hidden_variable_construction(capsys):
    ok = True
    for k in (2, 3):
        alg = catalog.boolean_powerset(k)
        witness = find_cloning_bimorphism(alg).witnesses[0]
        parts = tuple(alg.index("{" + str(i) + "}") for i in range(1, k + 1))
        try:
            model = hidden_variable_construct(alg, witness, parts)
        except Exception:
            ok = False
            continue
        axioms = check_mv_axioms(model.mv)
        verification = verify_hidden_variable(
            model, enumerate_vertex_states(alg), mixtures=100, seed=DEFAULT_SEED
        )
        if not (axioms.passed and axioms.mode == "exhaustive"):
            ok = False
        if not (verification.passed and verification.mixtures_checked == 100):
            ok = False
    report(capsys, 5, "hidden-variable models lift all states exactly", ok)


def test_criterion_6_interval_function_model(capsys):
    ok = True
    n = 3
    rng = random.Random(DEFAULT_SEED)
    one = constant(n, 1)
    for _ in range(1000):
        f = sample_function(rng, n)
        g = sample_function(rng, n)
        if diagonal_clone(outer(f, one)) != f or diagonal_clone(outer(one, f)) != f:
            ok = False
        # biadditivity of the pointwise product in the first argument
        f2 = complement(f)
        total = pointwise_sum(f, f2)
        lhs = product_bimorphism(total, g)
        rhs = pointwise_sum(product_bimorphism(f, g), product_bimorphism(f2, g))
        if rhs is None or lhs != rhs:
            ok = False
        # additivity of the diagonal map on orthogonal square functions
        F, G = outer(f, g), outer(f2, g)
        S = pointwise_sum(F, G)
        if S is None or diagonal_clone(S) != pointwise_sum(
            diagonal_clone(F), diagonal_clone(G)
        ):
            ok = False
    if not check_mv_axioms(lukasiewicz_rationals(), sample_budget=1000).passed:
        ok = False
    for N in (1, 2, 3, 4):
        if find_isomorphism(indicator_algebra(N), catalog.boolean_powerset(N)) is None:
            ok = False
    report(capsys, 6, "interval-function model: cloning laws and Boolean skeleton", ok)


def state_catalog():
    return orthoalgebra_suite() + [
        catalog.chain(2),
        catalog.chain(3),
        catalog.product(catalog.chain(2), catalog.chain(2)),
    ]


def test_criterion_7_state_spaces(capsys):
    oracle = {
        ("boolean_powerset", 2): 2,
        ("boolean_powerset", 3): 3,
        ("mo", 2): 4,
        ("chain", 2): 1,
    }
    ok = (
        len(enumerate_vertex_states(catalog.boolean_powerset(2)).vertices) == oracle[("boolean_powerset", 2)]
        and len(enumerate_vertex_states(catalog.boolean_powerset(3)).vertices) == oracle[("boolean_powerset", 3)]
        and len(enumerate_vertex_states(catalog.mo(2)).vertices) == oracle[("mo", 2)]
        and len(enumerate_vertex_states(catalog.chain(2)).vertices) == oracle[("chain", 2)]
    )
    for alg in state_catalog():
        poly = enumerate_vertex_states(alg)
        separating, _ = is_separating(alg, poly)
        if not separating:
            ok = False
    report(capsys, 7, "vertex counts match oracles and all state spaces separate", ok)


def check_structural_sanity(alg):
    order = derive_order(alg)
    supp = order.supplement
    for p in alg.elements():
        if supp[supp[p]] != p:
            return False
    for a in alg.elements():
        seen = {}
        for b in alg.elements():
            s = alg.table[a][b]
            if s is None:
                continue
            if s in seen and seen[s] != b:
                return False  # cancellativity: a+b = a+c forces b = c
            seen[s] = b
    all_sharp = all(is_sharp(alg, p) for p in alg.elements())
    if is_orthoalgebra(alg)[0] != all_sharp:
        return False
    poly = enumerate_vertex_states(alg)
    for v in poly.vertices:
        if not monotone_under(alg, v):
            return False
    return True


def test_criterion_8_structural_sanity(capsys):
    ok = all(check_structural_sanity(alg) for alg in state_catalog())
    fuzzed = list(random_algebras(seed=DEFAULT_SEED, count=200, max_size=10))
    if len(fuzzed) != 200:
        ok = False
    for alg in fuzzed:
        if not check_structural_sanity(alg):
            ok = False
    report(capsys, 8, "cancellativity, involution, monotonicity, sharpness dichotomy", ok)
