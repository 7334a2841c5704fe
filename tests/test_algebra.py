"""Core algebra layer: validation, derived order, structural predicates."""

import gc
import random
import weakref

import pytest

from qlogic import catalog
from qlogic.cloning import find_cloning_bimorphism
from qlogic.algebra import (
    AssociativityViolation,
    CommutativityViolation,
    MalformedTable,
    NotAnOrthoalgebra,
    SupplementMissing,
    SupplementNotUnique,
    UnitIsotropic,
    ZeroHasNoIndex,
    are_compatible,
    atoms,
    check_coherence,
    derive_order,
    find_isomorphism,
    from_json,
    incompatible_pairs,
    is_archimedean,
    is_atomic,
    is_boolean,
    is_orthoalgebra,
    is_sharp,
    isotropic_index,
    join,
    meet,
    sharp_elements,
    structure_report,
    tabulate,
    validate,
)
from qlogic.fuzz import random_algebras, shuffle_carrier
from qlogic.mv import find_chain_decomposition


def catalog_suite():
    return [
        catalog.boolean_powerset(1),
        catalog.boolean_powerset(2),
        catalog.boolean_powerset(3),
        catalog.chain(2),
        catalog.chain(4),
        catalog.mo(1),
        catalog.mo(2),
        catalog.wright_triangle(),
        catalog.product(catalog.chain(2), catalog.chain(2)),
        catalog.horizontal_sum(
            catalog.boolean_powerset(2), catalog.boolean_powerset(2)
        ),
    ]


# ---------------------------------------------------------------------------
# validation


def test_chain2_is_valid():
    alg = catalog.chain(2)
    h = alg.index("1/2")
    assert alg.sum(h, h) == alg.unit


def test_one_sided_table_raises_commutativity():
    # a+b defined, b+a left out of the raw table
    labels = ["0", "a", "b", "1"]
    table = [[None] * 4 for _ in range(4)]
    for i in range(4):
        table[0][i] = i
        table[i][0] = i
    table[1][2] = 3
    with pytest.raises(CommutativityViolation) as err:
        tabulate(range(4), 0, 3, lambda a, b: table[a][b], labels.__getitem__)
    assert set(err.value.witnesses) == {"a", "b"}


def test_conflicting_orientations_raise_commutativity():
    sums = [["0", x, x] for x in "0ab1"] + [["a", "b", "1"], ["b", "a", "a"]]
    with pytest.raises(CommutativityViolation):
        validate(["0", "a", "b", "1"], "0", "1", sums)


def test_missing_supplement():
    sums = [["0", x, x] for x in ["0", "a", "b", "1"]] + [["a", "b", "1"]]
    sums = [s for s in sums]  # a and b have supplements; add an orphan
    with pytest.raises(SupplementMissing) as err:
        validate(["0", "a", "b", "c", "1"], "0", "1", sums + [["0", "c", "c"]])
    assert err.value.witnesses == ("c",)


def test_non_unique_supplement():
    sums = [["0", x, x] for x in ["0", "p", "q1", "q2", "1"]]
    sums += [["p", "q1", "1"], ["p", "q2", "1"]]
    with pytest.raises(SupplementNotUnique) as err:
        validate(["0", "p", "q1", "q2", "1"], "0", "1", sums)
    assert err.value.witnesses[0] == "p"


def test_unit_isotropic():
    sums = [["0", x, x] for x in ["0", "a", "1"]] + [["a", "a", "1"], ["a", "1", "1"]]
    with pytest.raises(UnitIsotropic) as err:
        validate(["0", "a", "1"], "0", "1", sums)
    assert err.value.witnesses == ("a",)


def test_associativity_violation():
    # h+h = 1 but the zero row for h is withheld:
    # 0 + (h+h) forces 0+h to be defined
    sums = [["0", "0", "0"], ["0", "1", "1"], ["h", "h", "1"]]
    with pytest.raises(AssociativityViolation):
        validate(["0", "h", "1"], "0", "1", sums)


def test_degenerate_rejected():
    with pytest.raises(MalformedTable):
        validate(["x"], "x", "x", [["x", "x", "x"]])


def test_size_cap():
    with pytest.raises(MalformedTable):
        validate([str(i) for i in range(65)], "0", "1", [])


def test_unknown_json_keys_rejected():
    with pytest.raises(MalformedTable):
        from_json('{"elements": ["0","1"], "zero": "0", "unit": "1", "sums": [], "x": 1}')


def test_json_round_trip():
    alg = catalog.mo(2)
    again = from_json(alg.to_json())
    assert again == alg


# ---------------------------------------------------------------------------
# orthoalgebra predicate


def test_chain2_not_orthoalgebra():
    alg = catalog.chain(2)
    ok, witness = is_orthoalgebra(alg)
    assert not ok
    assert alg.labels[witness] == "1/2"


def test_bp3_is_orthoalgebra():
    assert is_orthoalgebra(catalog.boolean_powerset(3)) == (True, None)


def test_mo2_is_orthoalgebra_by_scan():
    alg = catalog.mo(2)
    # independent oracle: direct scan of the 6-element table
    brute = all(
        alg.table[p][p] is None for p in alg.elements() if p != alg.zero
    )
    assert is_orthoalgebra(alg)[0] == brute is True


# ---------------------------------------------------------------------------
# order, meets, joins


def test_zero_below_everything():
    for alg in catalog_suite():
        lo = derive_order(alg).leq
        assert all(lo[alg.zero][p] and lo[p][alg.unit] for p in alg.elements())


def test_chain4_order_matches_arithmetic():
    alg = catalog.chain(4)
    lo = derive_order(alg).leq
    # labels encode k/4, so order must agree with integer comparison
    def level(p):
        lbl = alg.labels[p]
        return {"0": 0, "1": 4}.get(lbl, int(lbl.split("/")[0]))

    for p in alg.elements():
        for q in alg.elements():
            assert lo[p][q] == (level(p) <= level(q))


def test_mo2_atoms_incomparable():
    alg = catalog.mo(2)
    lo = derive_order(alg).leq
    a, b = alg.index("a1"), alg.index("a2")
    assert not lo[a][b] and not lo[b][a]


def test_bp2_meet_of_atoms_is_zero():
    alg = catalog.boolean_powerset(2)
    assert meet(alg, alg.index("{1}"), alg.index("{2}")) == alg.zero


def test_chain2_meet_with_supplement():
    alg = catalog.chain(2)
    h = alg.index("1/2")
    assert derive_order(alg).supplement[h] == h
    assert meet(alg, h, h) == h


def test_mo2_join_of_atoms_is_unit():
    alg = catalog.mo(2)
    assert join(alg, alg.index("a1"), alg.index("a2")) == alg.unit


def test_bp_meet_join_match_set_operations():
    alg = catalog.boolean_powerset(3)

    def as_set(p):
        lbl = alg.labels[p].strip("{}")
        return frozenset(lbl.split(",")) if lbl else frozenset()

    by_set = {as_set(p): p for p in alg.elements()}
    for p in alg.elements():
        for q in alg.elements():
            assert meet(alg, p, q) == by_set[as_set(p) & as_set(q)]
            assert join(alg, p, q) == by_set[as_set(p) | as_set(q)]


# ---------------------------------------------------------------------------
# sharpness, atoms, isotropic index


def test_chain2_h_not_sharp():
    alg = catalog.chain(2)
    assert not is_sharp(alg, alg.index("1/2"))


def test_bounds_always_sharp():
    for alg in catalog_suite():
        assert is_sharp(alg, alg.zero)
        assert is_sharp(alg, alg.unit)


def test_chain4_sharp_elements():
    alg = catalog.chain(4)
    assert sharp_elements(alg) == (alg.zero, alg.unit)


def test_bp3_atoms_are_singletons():
    alg = catalog.boolean_powerset(3)
    assert sorted(alg.labels[p] for p in atoms(alg)) == ["{1}", "{2}", "{3}"]


def test_chain3_single_atom():
    alg = catalog.chain(3)
    assert [alg.labels[p] for p in atoms(alg)] == ["1/3"]


def test_every_finite_algebra_atomic():
    for alg in catalog_suite():
        assert is_atomic(alg)


def test_isotropic_index_chain3():
    alg = catalog.chain(3)
    assert isotropic_index(alg, alg.index("1/3")) == 3


def test_isotropic_index_orthoalgebra_atom():
    alg = catalog.boolean_powerset(2)
    assert isotropic_index(alg, alg.index("{1}")) == 1


def test_zero_has_no_index():
    alg = catalog.chain(2)
    with pytest.raises(ZeroHasNoIndex):
        isotropic_index(alg, alg.zero)


@pytest.mark.parametrize("d", range(2, 7))
def test_chains_archimedean(d):
    assert is_archimedean(catalog.chain(d))


# ---------------------------------------------------------------------------
# compatibility, coherence, Boolean-ness


def test_self_compatibility():
    for alg in catalog_suite():
        for p in alg.elements():
            assert (alg.zero, alg.zero, p) in are_compatible(alg, p, p)


def test_bp2_atoms_compatible():
    alg = catalog.boolean_powerset(2)
    a, b = alg.index("{1}"), alg.index("{2}")
    assert (a, b, alg.zero) in are_compatible(alg, a, b)


def test_mo2_atoms_incompatible():
    alg = catalog.mo(2)
    assert are_compatible(alg, alg.index("a1"), alg.index("a2")) == []
    assert (alg.index("a1"), alg.index("a2")) in incompatible_pairs(alg)


def test_mo2_coherent():
    assert check_coherence(catalog.mo(2)) == (True, None)


def test_bp3_coherent():
    assert check_coherence(catalog.boolean_powerset(3)) == (True, None)


def test_wright_coherence_counterexample():
    alg = catalog.wright_triangle()
    ok, triple = check_coherence(alg)
    assert not ok
    assert sorted(alg.labels[p] for p in triple) == ["a", "c", "e"]


def test_coherence_needs_orthoalgebra():
    with pytest.raises(NotAnOrthoalgebra):
        check_coherence(catalog.chain(2))


@pytest.mark.parametrize("k", range(1, 5))
def test_powersets_boolean(k):
    assert is_boolean(catalog.boolean_powerset(k))


def test_mo2_not_boolean():
    assert not is_boolean(catalog.mo(2))


def test_chain2_not_boolean():
    assert not is_boolean(catalog.chain(2))


def test_structure_report_flags_consistent():
    for alg in catalog_suite():
        rep = structure_report(alg)
        assert rep.is_effect_algebra
        if rep.is_boolean:
            assert rep.is_orthomodular_poset
        if rep.is_orthomodular_poset:
            assert rep.is_orthoalgebra


# ---------------------------------------------------------------------------
# cross-cutting invariants, on the catalog and on fuzzed tables


def fuzz_suite():
    return random_algebras(seed=101, count=40, max_size=10)


def test_cancellativity():
    for alg in catalog_suite() + fuzz_suite():
        for a in alg.elements():
            seen = {}
            for x in alg.elements():
                s = alg.table[a][x]
                if s is not None:
                    assert s not in seen, (
                        f"cancellativity fails in {alg.labels}: "
                        f"{alg.labels[a]}+{alg.labels[x]} = "
                        f"{alg.labels[a]}+{alg.labels[seen[s]]}"
                    )
                    seen[s] = x


def test_supplement_involution():
    for alg in catalog_suite() + fuzz_suite():
        supp = derive_order(alg).supplement
        for p in alg.elements():
            assert supp[supp[p]] == p
            assert alg.table[p][supp[p]] == alg.unit


def test_orthogonality_implies_order_bound():
    for alg in catalog_suite() + fuzz_suite():
        order = derive_order(alg)
        for p in alg.elements():
            for q in alg.elements():
                if alg.perp(p, q):
                    assert order.leq[p][order.supplement[q]]
                    assert order.leq[q][order.supplement[p]]


def test_sharpness_dichotomy():
    # orthoalgebra iff every element is sharp, both sides computed independently
    for alg in catalog_suite() + fuzz_suite():
        ortho, _ = is_orthoalgebra(alg)
        all_sharp = all(is_sharp(alg, p) for p in alg.elements())
        assert ortho == all_sharp


def test_join_coincides_with_sum_when_orthogonal():
    # an orthoalgebra law; unsharp algebras break it (h v h = h but h+h = 1)
    suite = [a for a in catalog_suite() + fuzz_suite() if is_orthoalgebra(a)[0]]
    for alg in suite:
        for p in alg.elements():
            for q in alg.elements():
                s = alg.table[p][q]
                if s is not None:
                    j = join(alg, p, q)
                    if j is not None:
                        assert j == s


def test_boolean_deciders_agree_on_fuzz():
    # is_boolean raises internally if the two deciders disagree
    for alg in random_algebras(seed=202, count=30, max_size=16):
        is_boolean(alg)


# ---------------------------------------------------------------------------
# the derived-structure record against brute-force oracles


def record_suite():
    return catalog_suite() + random_algebras(seed=202, count=30, max_size=16)


def brute_meet(alg, p, q):
    """Scan the common lower bounds for one above all the others."""
    lo = derive_order(alg).leq
    lower = [r for r in alg.elements() if lo[r][p] and lo[r][q]]
    for m in lower:
        if all(lo[r][m] for r in lower):
            return m
    return None


def brute_join(alg, p, q):
    """Scan the common upper bounds for one below all the others."""
    lo = derive_order(alg).leq
    upper = [r for r in alg.elements() if lo[p][r] and lo[q][r]]
    for m in upper:
        if all(lo[m][r] for r in upper):
            return m
    return None


def test_meet_join_tables_match_brute_force():
    for alg in record_suite():
        order = derive_order(alg)
        for p in alg.elements():
            for q in alg.elements():
                assert order.meet[p][q] == brute_meet(alg, p, q)
                assert order.join[p][q] == brute_join(alg, p, q)


def test_incompatible_pairs_match_are_compatible():
    for alg in record_suite():
        expected = tuple(
            (p, q)
            for p in alg.elements()
            for q in range(p + 1, alg.size)
            if are_compatible(alg, p, q) == []
        )
        assert incompatible_pairs(alg) == expected


def test_algebra_collected_after_use():
    # derived structures live on the instance, not in a process-wide cache;
    # labels no other test uses, so no equal algebra was built before
    labels = ["0", "w", "w'", "1"]
    sums = [["0", x, x] for x in labels] + [["w", "w'", "1"]]
    alg = validate(labels, "0", "1", sums)
    structure_report(alg)
    find_cloning_bimorphism(alg)
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None

    # the searches leave no reference cycle, so reference counting alone
    # frees the algebra once the last name for it goes
    gc.disable()
    try:
        alg = validate(labels, "0", "1", sums)
        structure_report(alg)
        find_cloning_bimorphism(alg)
        find_chain_decomposition(alg)
        find_isomorphism(alg, alg)
        ref = weakref.ref(alg)
        del alg
        freed_by_refcount = ref() is None
    finally:
        gc.enable()
    assert freed_by_refcount


def test_isomorphism_search_positive_and_negative():
    assert find_isomorphism(catalog.mo(1), catalog.boolean_powerset(2)) is not None
    assert find_isomorphism(catalog.mo(2), catalog.boolean_powerset(2)) is None
    assert find_isomorphism(catalog.chain(1), catalog.boolean_powerset(1)) is not None
    # the same size, different element profiles
    assert find_isomorphism(catalog.mo(2), catalog.chain(5)) is None
    # the same profiles, but bp(2) sums two distinct atoms and the other
    # algebra sums each atom with itself
    bp2 = catalog.boolean_powerset(2)
    two_chains = catalog.horizontal_sum(catalog.chain(2), catalog.chain(2))
    assert find_isomorphism(bp2, two_chains) is None
    rng = random.Random(5)
    for alg in random_algebras(seed=5, count=6):
        shuffled = shuffle_carrier(alg, rng)
        m = find_isomorphism(alg, shuffled)
        assert sorted(m.values()) == list(shuffled.elements())
        for p in alg.elements():
            for q in alg.elements():
                s = alg.table[p][q]
                t = shuffled.table[m[p]][m[q]]
                assert t == (None if s is None else m[s])


# ---------------------------------------------------------------------------
# the list of defined sums, and the walk over it, against table scans


def scan_sums(alg):
    """Oracle: every defined a + b = c with a <= b, from the table's upper triangle."""
    return [
        (a, b, alg.table[a][b])
        for a in alg.elements()
        for b in range(a, alg.size)
        if alg.table[a][b] is not None
    ]


def test_sums_match_upper_triangle_scan():
    suite = catalog_suite()
    for seed in (1, 7, 202):
        suite += random_algebras(seed=seed, count=100)
    for alg in suite:
        assert list(derive_order(alg).sums) == scan_sums(alg), alg.labels


def scan_coherence(alg):
    """Oracle: the first coherence counterexample over ordered pairs (p, q)."""
    t = alg.table
    for p in alg.elements():
        for q in alg.elements():
            pq = t[p][q]
            if pq is None:
                continue
            for r in alg.elements():
                if t[p][r] is not None and t[q][r] is not None and t[pq][r] is None:
                    return False, (p, q, r)
    return True, None


def test_coherence_counterexample_matches_ordered_pair_scan():
    wright = catalog.wright_triangle()
    for alg in (wright, catalog.horizontal_sum(wright, catalog.boolean_powerset(2))):
        expected = scan_coherence(alg)
        assert not expected[0]
        assert check_coherence(alg) == expected
