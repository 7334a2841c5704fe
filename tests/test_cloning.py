"""Cloning bimorphism search, witness verification, and the witness lemmas."""

import random

import pytest

from qlogic import catalog
from qlogic.algebra import (
    NotAnOrthoalgebra,
    ValidationError,
    check_coherence,
    derive_order,
    is_boolean,
    is_orthoalgebra,
)
from qlogic.cloning import (
    DEFAULT_NODE_BUDGET,
    CloningWitness,
    DecompositionMismatch,
    NotBoolean,
    check_witness_lemmas,
    compatibility_core,
    find_cloning_bimorphism,
    meet_witness,
    verify_witness,
)
from qlogic.fuzz import random_algebras
from qlogic.states import MAX_STATE_CARRIER, check_state, enumerate_vertex_states
from test_algebra import catalog_suite
from test_catalog import random_pasting_blocks
from test_states import _polytope_or_message, combinatorial_vertex_states


def test_bp2_witness_found_and_equals_meet():
    alg = catalog.boolean_powerset(2)
    out = find_cloning_bimorphism(alg)
    assert out.status == "witness-found"
    assert out.witnesses[0].table == meet_witness(alg).table


def test_mo2_no_witness():
    assert find_cloning_bimorphism(catalog.mo(2)).status == "no-witness"


def test_chain2_no_witness():
    out = find_cloning_bimorphism(catalog.chain(2))
    assert out.status == "no-witness"


def test_wright_no_witness():
    assert find_cloning_bimorphism(catalog.wright_triangle()).status == "no-witness"


def test_budget_abort_never_reported_as_nonexistence():
    out = find_cloning_bimorphism(catalog.boolean_powerset(4), node_budget=10)
    assert out.status == "aborted"
    assert out.nodes_explored > 10


def test_enumerate_all_unique_on_booleans():
    for k in (1, 2, 3):
        alg = catalog.boolean_powerset(k)
        out = find_cloning_bimorphism(alg, enumerate_all=True)
        assert len(out.witnesses) == 1
        assert out.witnesses[0].table == meet_witness(alg).table


def test_verify_rejects_bad_table_on_chain2():
    alg = catalog.chain(2)
    h = alg.index("1/2")
    table = [[alg.table[p][alg.zero] for _ in alg.elements()] for p in alg.elements()]
    table = [[None] * 3 for _ in range(3)]
    for p in alg.elements():
        table[p][alg.unit] = p
        table[alg.unit][p] = p
        table[p][alg.zero] = alg.zero
        table[alg.zero][p] = alg.zero
    table[h][h] = alg.zero
    ok, violation = verify_witness(alg, tuple(tuple(r) for r in table))
    assert not ok
    assert "biadditivity" in violation


def _meet_table_with(alg, cells):
    """alg's meet witness table with the given (p, q) -> value cells changed."""
    table = [list(row) for row in meet_witness(alg).table]
    for (p, q), v in cells.items():
        table[p][q] = v
    return tuple(tuple(row) for row in table)


def test_verify_rejects_malformed_tables():
    alg = catalog.boolean_powerset(2)
    a, u = alg.index("{1}"), alg.unit
    cases = [
        (meet_witness(alg).table[:-1], "table is not square over the carrier"),
        (_meet_table_with(alg, {(a, a): alg.size}), "cell ({1}, {1}) is not an element"),
        (_meet_table_with(alg, {(a, a): "x"}), "cell ({1}, {1}) is not an element"),
        (_meet_table_with(alg, {(a, u): alg.zero}), "unit law fails: c({1}, 1) != {1}"),
        (_meet_table_with(alg, {(u, a): alg.zero}), "unit law fails: c(1, {1}) != {1}"),
    ]
    for table, message in cases:
        assert verify_witness(alg, table) == (False, message)


def test_witness_lemma_violations_are_reported_separately():
    alg = catalog.boolean_powerset(2)
    a, b, u = alg.index("{1}"), alg.index("{2}"), alg.unit
    # {1} and {2} are orthogonal, but c({1}, {2}) is not 0
    witness = CloningWitness(alg, _meet_table_with(alg, {(a, b): a}))
    rep = check_witness_lemmas(alg, witness)
    assert (rep.orthogonality_passed, rep.idempotence_passed) == (False, True)
    assert rep.violations == ("c({1}, {2}) = 0 is False but orthogonality is True",)
    # c(1, 1) is {1}: not 0, as 1 is not orthogonal to itself, but not 1 either
    witness = CloningWitness(alg, _meet_table_with(alg, {(u, u): a}))
    rep = check_witness_lemmas(alg, witness)
    assert (rep.orthogonality_passed, rep.idempotence_passed) == (True, False)
    assert rep.violations == ("c({1,2}, {1,2}) != {1,2}",)
    assert not rep.passed


def test_found_witnesses_round_trip_verify():
    for alg in (catalog.boolean_powerset(2), catalog.boolean_powerset(3), catalog.mo(1)):
        out = find_cloning_bimorphism(alg, enumerate_all=True)
        for w in out.witnesses:
            assert verify_witness(alg, w.table) == (True, None)


def test_meet_witness_requires_boolean():
    with pytest.raises(NotBoolean):
        meet_witness(catalog.mo(2))


def test_meet_witness_values_bp2():
    alg = catalog.boolean_powerset(2)
    w = meet_witness(alg)
    a, b = alg.index("{1}"), alg.index("{2}")
    assert w.value(a, b) == alg.zero
    assert w.value(a, a) == a
    assert w.value(a, alg.unit) == a


def test_bp1_witness_is_and_table():
    alg = catalog.boolean_powerset(1)
    w = find_cloning_bimorphism(alg).witnesses[0]
    z, u = alg.zero, alg.unit
    assert w.value(z, z) == z and w.value(z, u) == z
    assert w.value(u, z) == z and w.value(u, u) == u


def test_witness_lemmas_pass_on_booleans():
    for k in (2, 3):
        alg = catalog.boolean_powerset(k)
        rep = check_witness_lemmas(alg, meet_witness(alg))
        assert rep.passed and not rep.violations


def test_witness_lemmas_need_orthoalgebra():
    alg = catalog.chain(2)
    fake = find_cloning_bimorphism(catalog.boolean_powerset(1)).witnesses[0]
    with pytest.raises(NotAnOrthoalgebra):
        check_witness_lemmas(alg, fake)


def test_compatibility_core_distinct_atoms():
    alg = catalog.boolean_powerset(2)
    w = meet_witness(alg)
    a, b = alg.index("{1}"), alg.index("{2}")
    assert compatibility_core(alg, w, a, b) == (alg.zero, a, b)


def test_compatibility_core_diagonal():
    alg = catalog.boolean_powerset(2)
    w = meet_witness(alg)
    for p in alg.elements():
        assert compatibility_core(alg, w, p, p) == (p, alg.zero, alg.zero)


def test_compatibility_core_overlapping_sets():
    alg = catalog.boolean_powerset(3)
    w = meet_witness(alg)
    p, q = alg.index("{1,2}"), alg.index("{2,3}")
    r, a, b = compatibility_core(alg, w, p, q)
    assert alg.labels[r] == "{2}"
    assert alg.labels[a] == "{1}"
    assert alg.labels[b] == "{3}"


def test_witness_iff_boolean_small_catalog():
    suite = [
        catalog.boolean_powerset(2),
        catalog.mo(1),
        catalog.mo(2),
        catalog.mo(3),
        catalog.horizontal_sum(catalog.boolean_powerset(2), catalog.boolean_powerset(2)),
        catalog.wright_triangle(),
    ]
    for alg in suite:
        found = find_cloning_bimorphism(alg).status == "witness-found"
        assert found == is_boolean(alg)


def test_witness_iff_boolean_on_fuzz_effect_algebras():
    # every finite effect algebra is atomic and Archimedean, so the paper's
    # theorem reads "witness iff Boolean" on each, orthoalgebra or not
    witnesses = non_orthoalgebras = 0
    for seed in (1, 7, 202):
        for alg in random_algebras(seed=seed, count=500):
            outcome = find_cloning_bimorphism(alg)
            assert outcome.status != "aborted", alg.labels
            found = outcome.status == "witness-found"
            assert found == is_boolean(alg), alg.labels
            witnesses += found
            non_orthoalgebras += not is_orthoalgebra(alg)[0]
    assert witnesses > 0 and non_orthoalgebras > 0


@pytest.mark.parametrize("seed", [1, 7])
def test_witness_iff_boolean_on_random_pastings(seed):
    # Greechie pastings bring in orthoalgebras that are not lattices, and
    # some that are not orthomodular posets; draws validate rejects are skipped
    rng = random.Random(seed)
    valid = not_lattices = not_orthomodular = 0
    for _ in range(500):
        try:
            alg = catalog.pasting(random_pasting_blocks(rng))
        except ValidationError:
            continue
        valid += 1
        assert is_orthoalgebra(alg)[0], alg.labels
        not_lattices += any(None in row for row in derive_order(alg).meet)
        not_orthomodular += not check_coherence(alg)[0]
        outcome = find_cloning_bimorphism(alg)
        assert outcome.status != "aborted", alg.labels
        assert (outcome.status == "witness-found") == is_boolean(alg), alg.labels
        for w in outcome.witnesses:
            assert verify_witness(alg, w.table) == (True, None)
            assert check_witness_lemmas(alg, w).passed, alg.labels
        if alg.size <= MAX_STATE_CARRIER:
            poly = _polytope_or_message(enumerate_vertex_states, alg)
            assert poly == _polytope_or_message(combinatorial_vertex_states, alg)
            for v in getattr(poly, "vertices", ()):  # none if there are no states
                assert check_state(alg, v) == [], alg.labels
    assert valid >= 250 and not_lattices > 0 and not_orthomodular > 0


def test_search_deterministic():
    alg = catalog.boolean_powerset(3)
    a = find_cloning_bimorphism(alg, enumerate_all=True)
    b = find_cloning_bimorphism(alg, enumerate_all=True)
    assert a.to_json_dict() == b.to_json_dict()


def test_witness_serialization_sorted():
    alg = catalog.boolean_powerset(1)
    doc = find_cloning_bimorphism(alg).witnesses[0].to_json_dict()
    rows = doc["witness"]
    assert rows == sorted(rows)
    assert len(rows) == alg.size**2


def test_found_witness_symmetric_on_booleans():
    # symmetry is reported, not assumed; meet tables happen to be symmetric
    for k in (1, 2, 3):
        out = find_cloning_bimorphism(catalog.boolean_powerset(k))
        assert out.witnesses[0].is_symmetric()


def scan_biadditivity(alg, table):
    """Oracle: the first biadditivity violation, from the table's upper triangle."""
    labels, sumt = alg.labels, alg.table
    for a in alg.elements():
        for b in range(a, alg.size):
            s = sumt[a][b]
            if s is None:
                continue
            for q in alg.elements():
                w = sumt[table[a][q]][table[b][q]]
                if w is None:
                    return False, (
                        f"biadditivity fails: c({labels[a]}, {labels[q]}) is not "
                        f"orthogonal to c({labels[b]}, {labels[q]})"
                    )
                if w != table[s][q]:
                    return False, (
                        f"biadditivity fails: c({labels[a]}(+){labels[b]}, "
                        f"{labels[q]}) != c({labels[a]}, {labels[q]}) (+) "
                        f"c({labels[b]}, {labels[q]})"
                    )
                w = sumt[table[q][a]][table[q][b]]
                if w is None:
                    return False, (
                        f"biadditivity fails: c({labels[q]}, {labels[a]}) is not "
                        f"orthogonal to c({labels[q]}, {labels[b]})"
                    )
                if w != table[q][s]:
                    return False, (
                        f"biadditivity fails: c({labels[q]}, {labels[a]}(+)"
                        f"{labels[b]}) != c({labels[q]}, {labels[a]}) (+) "
                        f"c({labels[q]}, {labels[b]})"
                    )
    return True, None


def test_first_violation_matches_table_scan():
    booleans = [alg for alg in catalog_suite() if is_boolean(alg)]
    assert len(booleans) >= 4
    for alg in booleans:
        meets = meet_witness(alg).table
        # cells off the unit's row and column, so the unit laws hold and only
        # biadditivity can fail; the meet witness is the only witness
        others = [p for p in alg.elements() if p != alg.unit]
        for p in others:
            for q in others:
                for v in alg.elements():
                    if v == meets[p][q]:
                        continue
                    table = [list(row) for row in meets]
                    table[p][q] = v
                    expected = scan_biadditivity(alg, table)
                    assert not expected[0]
                    assert verify_witness(alg, table) == expected


@pytest.mark.parametrize(
    "spec, nodes",
    [(f"boolean_powerset({k})", n) for k, n in zip(range(1, 6), (0, 2, 6, 12, 20))]
    + [(f"mo({n})", 3) for n in range(2, 7)]
    + [("wright_triangle()", 4)],
)
def test_search_node_counts(spec, nodes):
    outcome = find_cloning_bimorphism(catalog.build_spec(spec), enumerate_all=True)
    assert outcome.nodes_explored == nodes


@pytest.mark.parametrize(
    "spec, nodes",
    [
        ("product(boolean_powerset(2),boolean_powerset(2),boolean_powerset(2))", 30),
        ("horizontal_sum(boolean_powerset(5),boolean_powerset(5))", 6),
        ("product(boolean_powerset(3),chain(5))", 2),
        ("product(mo(2),mo(2))", 4),
        ("horizontal_sum(mo(6),boolean_powerset(5),wright_triangle())", 3),
    ],
)
def test_search_node_counts_on_large_carriers(spec, nodes):
    outcome = find_cloning_bimorphism(catalog.build_spec(spec), enumerate_all=True)
    assert outcome.nodes_explored == nodes


def rescan_search(alg, enumerate_all=False, node_budget=DEFAULT_NODE_BUDGET):
    """Oracle: the search with full-rescan propagation.

    Every pass re-checks every sum triple in every row and column until a
    pass changes nothing.  Returns (status, nodes explored, witness tables).
    """
    n = alg.size
    sumt = alg.table
    order = derive_order(alg)
    lo = order.leq
    sub = order.difference
    branch_cells = [(p, q) for p in order.atoms for q in order.atoms]

    def propagate(tab):
        changed = True
        while changed:
            changed = False
            for a, b, s in order.sums:
                for q in range(n):
                    for (ra, ca), (rb, cb), (rs, cs) in (
                        ((a, q), (b, q), (s, q)),
                        ((q, a), (q, b), (q, s)),
                    ):
                        x = tab[ra][ca]
                        y = tab[rb][cb]
                        z = tab[rs][cs]
                        if x is not None and y is not None:
                            w = sumt[x][y]
                            if w is None:
                                return False
                            if z is None:
                                tab[rs][cs] = w
                                changed = True
                            elif z != w:
                                return False
                        elif z is not None:
                            if x is not None:
                                w = sub[x][z]
                                if w is None:
                                    return False
                                tab[rb][cb] = w
                                changed = True
                            elif y is not None:
                                w = sub[y][z]
                                if w is None:
                                    return False
                                tab[ra][ca] = w
                                changed = True
        return True

    seed = [[None] * n for _ in range(n)]
    for p in range(n):
        seed[p][alg.unit] = p
        seed[alg.unit][p] = p
        seed[p][alg.zero] = alg.zero
        seed[alg.zero][p] = alg.zero

    tables = []
    nodes = 0
    aborted = False

    def rec(tab):
        nonlocal nodes, aborted
        cell = next(((p, q) for p, q in branch_cells if tab[p][q] is None), None)
        if cell is None:
            tables.append(tuple(tuple(row) for row in tab))
            return
        p, q = cell
        for v in range(n):
            if not (lo[v][p] and lo[v][q]):
                continue
            nodes += 1
            if nodes > node_budget:
                aborted = True
                return
            nxt = [row[:] for row in tab]
            nxt[p][q] = v
            if propagate(nxt):
                rec(nxt)
            if aborted or (tables and not enumerate_all):
                return

    if propagate(seed):
        rec(seed)
    tables.sort()
    if aborted:
        status = "aborted"
    elif tables:
        status = "witness-found"
    else:
        status = "no-witness"
    return status, nodes, tables


@pytest.fixture(scope="module")
def oracle_suite():
    # bp(4) explores 12 nodes, so a 7-node budget aborts on it
    suite = catalog_suite() + [catalog.boolean_powerset(4)]
    for seed in (1, 7, 202):
        suite += random_algebras(seed, 100)
    return suite


@pytest.mark.parametrize("node_budget", [3, 7, DEFAULT_NODE_BUDGET])
@pytest.mark.parametrize("enumerate_all", [False, True])
def test_search_matches_rescan_oracle(oracle_suite, enumerate_all, node_budget):
    statuses = set()
    for alg in oracle_suite:
        outcome = find_cloning_bimorphism(alg, enumerate_all, node_budget)
        assert (
            outcome.status,
            outcome.nodes_explored,
            [w.table for w in outcome.witnesses],
        ) == rescan_search(alg, enumerate_all, node_budget)
        statuses.add(outcome.status)
    expected = {"witness-found", "no-witness"}
    if node_budget < DEFAULT_NODE_BUDGET:
        expected.add("aborted")
    assert statuses == expected
