"""Core algebra layer: validation, derived order, structural predicates."""

import gc
import hashlib
import json
import random
import weakref
from collections import Counter

import pytest

from qlogic import algebra, catalog
from qlogic.cloning import find_cloning_bimorphism
from qlogic.algebra import (
    AlgebraError,
    AssociativityViolation,
    CommutativityViolation,
    DerivedStructure,
    FiniteEffectAlgebra,
    MalformedTable,
    NotAnOrthoalgebra,
    SupplementMissing,
    SupplementNotUnique,
    UnitIsotropic,
    ZeroHasNoIndex,
    _boolean_via_lattice,
    _check_structure,
    _derive,
    _validate_checked,
    are_compatible,
    check_coherence,
    derive_order,
    find_isomorphism,
    from_json,
    from_json_dict,
    from_table,
    is_archimedean,
    is_atomic,
    is_boolean,
    is_orthoalgebra,
    is_sharp,
    isotropic_index,
    sharp_elements,
    structure_report,
    validate,
)
from qlogic.fuzz import random_algebra, random_algebras, shuffle_carrier
from qlogic.mv import find_chain_decomposition
from corpus import BENCH_CARRIERS, CORE, upto


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
        from_table(labels, 0, 3, table)
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


def test_algebra_is_immutable_and_hashes_by_its_fields():
    alg, again = catalog.mo(2), catalog.mo(2)
    assert alg is not again and alg == again and hash(alg) == hash(again)
    assert alg != catalog.boolean_powerset(2)
    derive_order(alg)  # the derived record is kept on the instance
    for name in ("labels", "zero", "table", "_derived"):
        with pytest.raises(AttributeError):
            setattr(alg, name, None)
        with pytest.raises(AttributeError):
            delattr(alg, name)
    assert alg == again


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


def test_zero_below_everything(corpus):
    for _, _, alg in corpus:
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
    assert derive_order(alg).meet[alg.index("{1}")][alg.index("{2}")] == alg.zero


def test_chain2_meet_with_supplement():
    alg = catalog.chain(2)
    h = alg.index("1/2")
    assert derive_order(alg).supplement[h] == h
    assert derive_order(alg).meet[h][h] == h


def test_mo2_join_of_atoms_is_unit():
    alg = catalog.mo(2)
    assert derive_order(alg).join[alg.index("a1")][alg.index("a2")] == alg.unit


def test_bp_meet_join_match_set_operations():
    alg = catalog.boolean_powerset(3)

    def as_set(p):
        lbl = alg.labels[p].strip("{}")
        return frozenset(lbl.split(",")) if lbl else frozenset()

    by_set = {as_set(p): p for p in alg.elements()}
    order = derive_order(alg)
    for p in alg.elements():
        for q in alg.elements():
            assert order.meet[p][q] == by_set[as_set(p) & as_set(q)]
            assert order.join[p][q] == by_set[as_set(p) | as_set(q)]


# ---------------------------------------------------------------------------
# sharpness, atoms, isotropic index


def test_chain2_h_not_sharp():
    alg = catalog.chain(2)
    assert not is_sharp(alg, alg.index("1/2"))


def test_bounds_always_sharp(corpus):
    for _, _, alg in corpus:
        assert is_sharp(alg, alg.zero)
        assert is_sharp(alg, alg.unit)


def test_chain4_sharp_elements():
    alg = catalog.chain(4)
    assert sharp_elements(alg) == (alg.zero, alg.unit)


def test_bp3_atoms_are_singletons():
    alg = catalog.boolean_powerset(3)
    labels = sorted(alg.labels[p] for p in derive_order(alg).atoms)
    assert labels == ["{1}", "{2}", "{3}"]


def test_chain3_single_atom():
    alg = catalog.chain(3)
    assert [alg.labels[p] for p in derive_order(alg).atoms] == ["1/3"]


def test_every_finite_algebra_atomic(corpus):
    for _, _, alg in corpus:
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


def test_self_compatibility(corpus):
    for alg in upto(corpus, caps=CORE):
        for p in alg.elements():
            assert (alg.zero, alg.zero, p) in are_compatible(alg, p, p)


def test_bp2_atoms_compatible():
    alg = catalog.boolean_powerset(2)
    a, b = alg.index("{1}"), alg.index("{2}")
    assert (a, b, alg.zero) in are_compatible(alg, a, b)


def test_mo2_atoms_incompatible():
    alg = catalog.mo(2)
    assert are_compatible(alg, alg.index("a1"), alg.index("a2")) == []
    assert (alg.index("a1"), alg.index("a2")) in derive_order(alg).incompatible_pairs


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


def test_structure_report_flags_consistent(corpus):
    for alg in upto(corpus, caps=CORE):
        rep = structure_report(alg)
        assert rep.is_effect_algebra
        if rep.is_boolean:
            assert rep.is_orthomodular_poset
        if rep.is_orthomodular_poset:
            assert rep.is_orthoalgebra


def test_structure_report_matches_library_functions(corpus):
    # the report decides each fact once; here each comes from its own call
    kinds = set()
    for alg in upto(corpus, caps=CORE):
        rep = structure_report(alg)
        order = derive_order(alg)
        ortho = is_orthoalgebra(alg)[0]
        assert rep.is_orthoalgebra == ortho
        assert rep.is_orthomodular_poset == (ortho and check_coherence(alg)[0])
        assert rep.is_boolean == is_boolean(alg)
        assert rep.sharp_elements == sharp_elements(alg)
        assert rep.atoms == order.atoms
        nonzero = [p for p in alg.elements() if p != alg.zero]
        assert list(rep.iota.items()) == [(p, isotropic_index(alg, p)) for p in nonzero]
        assert rep.is_atomic == is_atomic(alg)
        assert rep.is_archimedean == is_archimedean(alg)
        assert rep.incompatible_pairs == order.incompatible_pairs
        kinds.add((rep.is_orthoalgebra, rep.is_orthomodular_poset, rep.is_boolean))
    # not an orthoalgebra; incoherent; orthomodular but not Boolean; Boolean
    assert kinds == {
        (False, False, False),
        (True, False, False),
        (True, True, False),
        (True, True, True),
    }


def test_structure_report_decides_each_fact_once(monkeypatch):
    calls = Counter()
    for name in ("is_orthoalgebra", "check_coherence", "isotropic_index"):

        def counted(*args, _fn=getattr(algebra, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(algebra, name, counted)
    bp5 = "boolean_powerset(5)"
    structure_report(catalog.build_spec(f"horizontal_sum({bp5},{bp5})"))
    # 61 nonzero elements; check_coherence asks is_orthoalgebra once more
    assert calls == {"is_orthoalgebra": 2, "check_coherence": 1, "isotropic_index": 61}


# ---------------------------------------------------------------------------
# cross-cutting invariants, on the corpus


@pytest.mark.parametrize("max_size", (1, 0, -3))
def test_fuzz_refuses_a_size_cap_below_two(max_size):
    with pytest.raises(ValueError, match="max_size must be at least 2"):
        random_algebras(seed=1, count=3, max_size=max_size)
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="max_size must be at least 2"):
        random_algebra(rng, max_size)
    assert rng.getstate() == state  # refused before any draw


def test_fuzz_at_the_smallest_size_cap():
    assert [alg.size for alg in random_algebras(seed=1, count=20, max_size=2)] == [2] * 20


# SHA-256 of the JSON lines of random_algebras(seed, count, max_size), one
# algebra document per line, as the sweep benchmark writes them
PINNED_FUZZ_DOCUMENTS = {
    (1, 2000, 10): "36044fcd6f71042c9d9533866ab7846a9e04a0ab65a1b394da9bbcf11669b122",
    (7, 2000, 10): "756b828c618bcca0e8f6a69825c6dae9b8afe95eb6085159eb848c11fe6ee575",
    (202, 2000, 10): "72e55f9c5ad8855c469ac1bef984fc15c4401cdb6b63f0c7fa217b0c2aba621a",
    (202, 30, 16): "02dc538be3a343fb39b51ca897831890cbfe7fc7c0bf1fcc73e1f6b5cacc80a5",
    (1, 20, 2): "3867183c20efce5ea76498e724076d37d7f379b4ea4968e4bd99d206302f7d32",
}


@pytest.mark.parametrize("seed, count, max_size", sorted(PINNED_FUZZ_DOCUMENTS))
def test_fuzz_documents_pinned(seed, count, max_size):
    algs = random_algebras(seed, count, max_size)
    assert len({id(alg) for alg in algs}) == count
    text = "".join(json.dumps(alg.to_json_dict()) + "\n" for alg in algs)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_FUZZ_DOCUMENTS[seed, count, max_size]


# SHA-256 of the corpus's algebra documents, one JSON line each, in corpus order
PINNED_CORPUS = "72af86ca35e50bee0239e641232fb52df8211e83c9bbe37ed589f37467d64467"


def test_corpus_is_pinned(corpus):
    assert Counter(source for source, _, _ in corpus) == {
        "catalog": 13,
        "construction": 6,
        "fuzz(1, 500, 10)": 500,
        "fuzz(7, 500, 10)": 500,
        "fuzz(202, 500, 10)": 500,
        "fuzz(202, 30, 16)": 30,
        "pastings(1, 500)": 301,
        "pastings(7, 500)": 315,
        "pastings(3, 100)": 67,
    }
    text = "".join(json.dumps(alg.to_json_dict()) + "\n" for _, _, alg in corpus)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CORPUS


def test_fuzz_builds_each_construction_once(monkeypatch):
    calls = []
    for name in ("chain", "boolean_powerset", "mo", "product", "horizontal_sum"):

        def record(*args, build=getattr(catalog, name), name=name):
            calls.append((name, tuple(a if isinstance(a, int) else a.to_json() for a in args)))
            return build(*args)

        monkeypatch.setattr(catalog, name, record)
    random_algebras(seed=1, count=2000, max_size=10)
    # 4,031 constructor calls before constructions were reused
    assert len(calls) == len(set(calls)) == 243


def test_fuzz_keys_are_catalog_specs(monkeypatch):
    drawn = {}
    construct = catalog.construct

    def record(*args):
        spec, alg = construct(*args)
        assert drawn.setdefault(spec, alg) is alg
        return spec, alg

    monkeypatch.setattr(catalog, "construct", record)
    random_algebras(seed=1, count=2000, max_size=10)
    monkeypatch.undo()  # build_spec below goes through construct too
    assert len(drawn) == 243
    for spec, alg in drawn.items():
        assert catalog.build_spec(spec) == alg, spec


def test_cancellativity(corpus):
    for _, _, alg in corpus:
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


def test_supplement_involution(corpus):
    for _, _, alg in corpus:
        supp = derive_order(alg).supplement
        for p in alg.elements():
            assert supp[supp[p]] == p
            assert alg.table[p][supp[p]] == alg.unit


def test_orthogonality_implies_order_bound(corpus):
    for _, _, alg in corpus:
        order = derive_order(alg)
        for p in alg.elements():
            for q in alg.elements():
                if alg.perp(p, q):
                    assert order.leq[p][order.supplement[q]]
                    assert order.leq[q][order.supplement[p]]


def test_sharpness_dichotomy(corpus):
    # orthoalgebra iff every element is sharp, both sides computed independently
    for _, _, alg in corpus:
        ortho, _ = is_orthoalgebra(alg)
        all_sharp = all(is_sharp(alg, p) for p in alg.elements())
        assert ortho == all_sharp


def test_join_coincides_with_sum_when_orthogonal(corpus):
    # an orthoalgebra law; unsharp algebras break it (h v h = h but h+h = 1)
    for alg in [a for _, _, a in corpus if is_orthoalgebra(a)[0]]:
        joins = derive_order(alg).join
        for p in alg.elements():
            for q in alg.elements():
                s = alg.table[p][q]
                if s is not None:
                    j = joins[p][q]
                    if j is not None:
                        assert j == s


def test_boolean_deciders_agree_on_fuzz(corpus):
    # is_boolean raises internally if the two deciders disagree
    for alg in upto(corpus, source="fuzz"):
        is_boolean(alg)


@pytest.mark.parametrize("decide", [is_boolean, structure_report])
@pytest.mark.parametrize("spec", ["boolean_powerset(2)", "mo(2)", "chain(2)"])
def test_boolean_deciders_must_agree(monkeypatch, decide, spec):
    # the lattice decider flipped: each caller of the cross-check refuses
    def flipped(alg):
        return not _boolean_via_lattice(alg)

    monkeypatch.setattr("qlogic.algebra._boolean_via_lattice", flipped)
    with pytest.raises(AlgebraError, match="Boolean deciders disagree"):
        decide(catalog.build_spec(spec))


def distributive_boolean(alg):
    """Oracle: a lattice whose supplements are complements and whose meet
    distributes over joins, checked on all n^3 triples."""
    n = alg.size
    order = derive_order(alg)
    meets, joins, supp = order.meet, order.join, order.supplement
    if any(None in row for row in meets + joins):
        return False
    for p in range(n):
        if meets[p][supp[p]] != alg.zero or joins[p][supp[p]] != alg.unit:
            return False
    return all(
        meets[p][joins[q][r]] == joins[meets[p][q]][meets[p][r]]
        for p in range(n)
        for q in range(n)
        for r in range(n)
    )


def test_boolean_via_lattice_matches_distributivity(corpus):
    outcomes = set()
    for alg in upto(corpus, caps=CORE):
        boolean = _boolean_via_lattice(alg)
        assert boolean == distributive_boolean(alg), alg.labels
        outcomes.add(boolean)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the derived-structure record against brute-force oracles, on the core


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


def test_meet_join_tables_match_brute_force(corpus):
    for alg in upto(corpus, caps=CORE):
        order = derive_order(alg)
        for p in alg.elements():
            for q in alg.elements():
                assert order.meet[p][q] == brute_meet(alg, p, q)
                assert order.join[p][q] == brute_join(alg, p, q)


def test_incompatible_pairs_match_are_compatible(corpus):
    # slice: the core's algebras of at most 16 elements
    for alg in upto(corpus, 16, CORE):
        expected = tuple(
            (p, q)
            for p in alg.elements()
            for q in range(p + 1, alg.size)
            if are_compatible(alg, p, q) == []
        )
        assert derive_order(alg).incompatible_pairs == expected


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


def test_isomorphism_search_positive_and_negative(corpus):
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
    for alg in upto(corpus, source="fuzz")[::250]:
        shuffled = shuffle_carrier(alg, rng)
        m = find_isomorphism(alg, shuffled)
        assert sorted(m.values()) == list(shuffled.elements())
        for p in alg.elements():
            for q in alg.elements():
                s = alg.table[p][q]
                t = shuffled.table[m[p]][m[q]]
                assert t == (None if s is None else m[s])


# ---------------------------------------------------------------------------
# coherence against a table scan


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


# ---------------------------------------------------------------------------
# whole-row loading, validation and derivation against the scalar paths they
# replaced, kept here as oracles


def oracle_from_json_dict(doc):
    """Oracle: from_json_dict's per-triple checks with one all(...) label
    test, then oracle_validate."""
    for triple in doc["sums"]:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise MalformedTable(f"sum entry {triple!r} is not an [a, b, c] triple")
        if not all(isinstance(x, str) for x in triple):
            raise MalformedTable(f"sum entry {triple!r} has a non-string label")
    return oracle_validate(doc["elements"], doc["zero"], doc["unit"], doc["sums"])


def oracle_validate(elements, zero, unit, sums):
    """Oracle: validate with one membership test per label and one
    orientation at a time, then scalar_validate_checked."""
    labels = tuple(elements)
    _check_structure(labels, zero, unit)
    n = len(labels)
    pos = {lbl: i for i, lbl in enumerate(labels)}
    table = [[None] * n for _ in range(n)]
    for triple in sums:
        if len(triple) != 3:
            raise MalformedTable(f"sum entry {triple!r} is not an [a, b, c] triple")
        a, b, c = triple
        for lbl in (a, b, c):
            if lbl not in pos:
                raise MalformedTable(f"sum entry mentions unknown label {lbl!r}")
        i, j, k = pos[a], pos[b], pos[c]
        for x, y in ((i, j), (j, i)):
            if table[x][y] is not None and table[x][y] != k:
                raise CommutativityViolation(
                    f"conflicting values for {a!r}(+){b!r}", (a, b)
                )
            table[x][y] = k
    return scalar_validate_checked(labels, pos[zero], pos[unit], table)


def scalar_validate_checked(labels, zero, unit, table):
    """Oracle: the four axiom checks as scalar scans of the table, cell by cell."""
    n = len(labels)
    for p in range(n):
        for q in range(p, n):
            if table[p][q] != table[q][p]:
                raise CommutativityViolation(
                    f"{labels[p]!r}(+){labels[q]!r} and its flip disagree",
                    (labels[p], labels[q]),
                )
    for p in range(n):
        if table[p][unit] is not None and p != zero:
            raise UnitIsotropic(
                f"{labels[p]!r} is orthogonal to the unit but nonzero", (labels[p],)
            )
    for p in range(n):
        supp = [q for q in range(n) if table[p][q] == unit]
        if not supp:
            raise SupplementMissing(
                f"{labels[p]!r} has no orthosupplement", (labels[p],)
            )
        if len(supp) > 1:
            raise SupplementNotUnique(
                f"{labels[p]!r} has several orthosupplements "
                f"{[labels[q] for q in supp]}",
                (labels[p],) + tuple(labels[q] for q in supp),
            )
    for q in range(n):
        for r in range(n):
            qr = table[q][r]
            if qr is None:
                continue
            for p in range(n):
                if table[p][qr] is None:
                    continue
                pq = table[p][q]
                if pq is None or table[pq][r] != table[p][qr]:
                    raise AssociativityViolation(
                        f"associativity fails on "
                        f"({labels[p]!r}, {labels[q]!r}, {labels[r]!r})",
                        (labels[p], labels[q], labels[r]),
                    )
    return FiniteEffectAlgebra(
        labels=tuple(labels),
        zero=zero,
        unit=unit,
        table=tuple(tuple(row) for row in table),
    )


def generator_derive(alg):
    """Oracle: the derived structure built cell by cell and through generator
    expressions, one row at a time."""
    n = alg.size
    t = alg.table
    down = [0] * n
    up = [0] * n
    difference = [[None] * n for _ in range(n)]
    sums = []
    for p in range(n):
        for r, q in enumerate(t[p]):
            if q is not None:
                down[q] |= 1 << p
                up[p] |= 1 << q
                difference[p][q] = r
                if p <= r:
                    sums.append((p, r, q))
    compatible = [0] * n
    for x in range(n):
        orth = [y for y in range(n) if t[x][y] is not None]
        for y in orth:
            for z in orth:
                if t[y][z] is not None:
                    compatible[t[x][z]] |= 1 << t[y][z]
    by_down = {mask: p for p, mask in enumerate(down)}
    by_up = {mask: p for p, mask in enumerate(up)}
    return DerivedStructure(
        leq=tuple(tuple(r is not None for r in row) for row in difference),
        supplement=tuple(row[alg.unit] for row in difference),
        atoms=tuple(p for p in range(n) if down[p].bit_count() == 2),
        difference=tuple(tuple(row) for row in difference),
        meet=tuple(tuple(by_down.get(dp & dq) for dq in down) for dp in down),
        join=tuple(tuple(by_up.get(up_p & up_q) for up_q in up) for up_p in up),
        incompatible_pairs=tuple(
            (p, q) for p in range(n) for q in range(p + 1, n) if not compatible[p] >> q & 1
        ),
        sums=tuple(sums),
    )


def outcome(load, *args):
    """The algebra load builds, or the class, message and witnesses it raises."""
    try:
        return load(*args)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witnesses", None)


def test_whole_row_validation_matches_scalar_oracle(corpus):
    # slice: the core with the first 200 draws of each fuzz seed
    for alg in upto(corpus, caps=dict(CORE, fuzz=200)):
        rows = [list(row) for row in alg.table]
        args = (alg.labels, alg.zero, alg.unit)
        assert _validate_checked(*args, rows) == scalar_validate_checked(*args, rows)
        assert from_table(*args, rows) == alg
        doc = alg.to_json_dict()
        assert from_json_dict(doc) == oracle_from_json_dict(doc) == alg


def test_whole_row_derive_matches_generator_oracle(corpus):
    for _, _, alg in corpus:
        assert _derive(alg) == generator_derive(alg), alg.labels


def corrupt_sums(doc, rng):
    """doc with one of its sums corrupted in one of six ways."""
    sums = [list(s) for s in doc["sums"]]
    i = rng.randrange(len(sums))
    kind = rng.randrange(6)
    if kind == 0:  # a sum's result changed
        sums[i][2] = rng.choice(doc["elements"])
    elif kind == 1:  # a sum dropped
        del sums[i]
    elif kind == 2:  # a sum added, on sum i's flipped pair or on any pair; it
        # conflicts unless its pair is new or it draws the same value
        pair = sums[i][1::-1] if rng.randrange(2) else rng.choices(doc["elements"], k=2)
        sums.append(pair + [rng.choice(doc["elements"])])
    elif kind == 3:  # one or two unknown labels
        for k in rng.sample(range(3), rng.randint(1, 2)):
            sums[i][k] = f"unknown{k}"
    elif kind == 4:
        sums[i][rng.randrange(3)] = 7
    else:
        del sums[i][rng.randrange(3)]
    return dict(doc, sums=sums)


def test_corrupted_documents_raise_what_the_oracle_raises():
    rng = random.Random(19)
    docs = [alg.to_json_dict() for alg in random_algebras(seed=19, count=100)]
    seen = set()
    for _ in range(400):
        doc = corrupt_sums(rng.choice(docs), rng)
        got = outcome(from_json_dict, doc)
        assert got == outcome(oracle_from_json_dict, doc), doc
        seen.add(got[0] if isinstance(got, tuple) else "valid")
    assert seen >= {
        "MalformedTable",
        "CommutativityViolation",
        "AssociativityViolation",
        "SupplementMissing",
        "SupplementNotUnique",
        "UnitIsotropic",
    }


def test_corrupted_tables_raise_what_the_oracle_raises():
    # one cell changed, on one side of the diagonal only, so commutativity
    # fails too; from_table checks the whole table against its transpose
    rng = random.Random(23)
    algs = random_algebras(seed=23, count=100)
    seen = set()
    for _ in range(400):
        alg = rng.choice(algs)
        rows = [list(row) for row in alg.table]
        p, q = rng.randrange(alg.size), rng.randrange(alg.size)
        rows[p][q] = rng.choice([None, *alg.elements()])
        if rng.randrange(2):
            rows[q][p] = rows[p][q]
        args = (alg.labels, alg.zero, alg.unit, rows)
        got = outcome(from_table, *args)
        assert got == outcome(scalar_validate_checked, *args), rows
        seen.add(got[0] if isinstance(got, tuple) else "valid")
    assert seen == {
        "valid",
        "CommutativityViolation",
        "AssociativityViolation",
        "SupplementMissing",
        "SupplementNotUnique",
        "UnitIsotropic",
    }


def test_corrupted_large_tables_raise_what_the_oracle_raises():
    # one cell changed on the large carriers, where the associativity walk
    # skips the most undefined entries; three times in four its mirror cell
    # too, so that commutativity holds and the later checks are reached
    rng = random.Random(29)
    seen = set()
    for name, specs in BENCH_CARRIERS:
        alg = getattr(catalog, name)(*map(catalog.build_spec, specs))
        for _ in range(40):
            rows = [list(row) for row in alg.table]
            p, q = rng.randrange(alg.size), rng.randrange(alg.size)
            rows[p][q] = rng.choice([None, *alg.elements()])
            if rng.randrange(4):
                rows[q][p] = rows[p][q]
            args = (alg.labels, alg.zero, alg.unit, rows)
            got = outcome(from_table, *args)
            assert got == outcome(scalar_validate_checked, *args), (alg.size, p, q)
            seen.add(got[0] if isinstance(got, tuple) else "valid")
    assert seen >= {
        "CommutativityViolation",
        "AssociativityViolation",
        "SupplementMissing",
        "SupplementNotUnique",
        "UnitIsotropic",
    }


CHAIN2_ROWS = [[0, 1, 2], [1, 2, None], [2, None, None]]


def test_from_table_builds_what_validate_builds():
    labels = ("0", "a", "1")
    sums = [["0", "0", "0"], ["0", "a", "a"], ["0", "1", "1"], ["a", "a", "1"]]
    assert from_table(labels, 0, 2, CHAIN2_ROWS) == validate(labels, "0", "1", sums)


@pytest.mark.parametrize(
    "zero, unit, rows",
    [
        (0, 2, CHAIN2_ROWS + [[None] * 3]),
        (5, 2, CHAIN2_ROWS),
        (-3, 2, CHAIN2_ROWS),
        (0, 2.0, CHAIN2_ROWS),
        (0, 3, CHAIN2_ROWS),
        (0, 2, [[0, 1, 2], [1, 2], [2, None, None]]),
        (0, 2, CHAIN2_ROWS[:2]),
        (0, 2, CHAIN2_ROWS[:2] + [2]),
        (0, 2, [[0, 1, 2], [1, 2, 9], [2, 9, None]]),
        (0, 2, [[0, 1, 2], [1, 2, -1], [2, -1, None]]),
        (0, 2, [[0, 1, 2.0], [1, 2, None], [2.0, None, None]]),
        (0, 2, [[0, True, 2], [True, 2, None], [2, None, None]]),
    ],
    ids=[
        "four-rows",
        "zero-5",
        "zero-minus-3",
        "unit-float",
        "unit-3",
        "short-row",
        "two-rows",
        "row-not-a-sequence",
        "entry-9",
        "entry-minus-1",
        "entry-float",
        "entry-bool",
    ],
)
def test_from_table_refuses_malformed_shapes(zero, unit, rows):
    with pytest.raises(MalformedTable) as err:
        from_table(("0", "a", "1"), zero, unit, rows)
    assert type(err.value) is MalformedTable
