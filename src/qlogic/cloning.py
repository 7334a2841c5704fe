"""Exhaustive backtracking search for cloning bimorphisms c: P x P -> P.

A cloning witness is a total table satisfying the unit laws c(p,1)=c(1,p)=p
and biadditivity in each argument.  Existence is decided at the bimorphism
level; a completed exhaustive search with no witness is a proof of
nonexistence, while a budget abort is reported as such and never as
nonexistence.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    AlgebraError,
    ElementId,
    FiniteEffectAlgebra,
    are_compatible,
    derive_order,
    is_boolean,
    require_orthoalgebra,
)

DEFAULT_NODE_BUDGET = 10**8


class NotBoolean(AlgebraError):
    pass


class DecompositionMismatch(AlgebraError):
    pass


class CloningWitness(NamedTuple):
    """A total map c: E x E -> E passing verify_witness on its algebra."""

    algebra: FiniteEffectAlgebra
    table: tuple[tuple[ElementId, ...], ...]

    def value(self, p: ElementId, q: ElementId) -> ElementId:
        return self.table[p][q]

    def is_symmetric(self) -> bool:
        n = self.algebra.size
        return all(
            self.table[p][q] == self.table[q][p]
            for p in range(n)
            for q in range(p + 1, n)
        )

    def to_json_dict(self) -> dict:
        labels = self.algebra.labels
        rows = sorted(
            [labels[p], labels[q], labels[self.table[p][q]]]
            for p in self.algebra.elements()
            for q in self.algebra.elements()
        )
        return {"witness": rows}


class SearchOutcome(NamedTuple):
    status: str  # "witness-found" | "no-witness" | "aborted"
    witnesses: list[CloningWitness]
    nodes_explored: int

    def to_json_dict(self) -> dict:
        witnesses = [w.to_json_dict() for w in self.witnesses]
        return {**self._asdict(), "witnesses": witnesses}


def find_cloning_bimorphism(
    alg: FiniteEffectAlgebra,
    enumerate_all: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchOutcome:
    """Search for all/first cloning bimorphism tables, deterministically.

    Only the atom x atom cells are branched on, in atom order, with candidate
    values ascending.  Propagation derives sums and differences along
    orthogonal pairs and prunes contradictions; every element is a sum of
    atoms and c is additive in each argument, so it fills every other cell.

    Propagation is a worklist (AC-3, Mackworth 1977): a cell (r, c) that
    changed re-checks only the constraints it occurs in, the column-c
    constraints of the sum triples that contain r and the row-r constraints
    of those that contain c.  Each rule fills a cell with the one value its
    other two cells force, so the fixpoint does not depend on the order the
    cells are taken in.  Sum triples that contain zero are left out: in
    0 + x = x the x cell and the sum cell are one cell, and the zero cell is
    seeded with 0, so such a rule can neither fill a cell nor fail.  Since
    a + b = 0 forces a = b = 0, the zero row and column occur in no other
    triple, so the root starts from the seeded unit row and column only; a
    branch starts from its one new cell, because its parent table is
    already at the fixpoint.
    """
    n = alg.size
    sumt = alg.table
    order = derive_order(alg)
    down = order.down
    sub = order.difference

    branch_cells = [(p, q) for p in order.atoms for q in order.atoms]
    touch: list[list[tuple[ElementId, ElementId, ElementId]]] = [[] for _ in range(n)]
    for triple in order.sums:
        if alg.zero not in triple:
            a, b, s = triple  # s is neither a nor b, which are nonzero
            for x in (a, s) if a == b else triple:
                touch[x].append(triple)

    def propagate(
        tab: list[list[ElementId | None]], work: list[tuple[ElementId, ElementId]]
    ) -> bool:
        # the rule for a + b = s, in column c over rows a, b, s and in row r
        # over columns a, b, s: with x, y, z the a, b, s cells, known x and y
        # force z = x + y, known x (or y) and z force y = z - x (x = z - y),
        # and an undefined sum or difference, or a z other than x + y, fails
        while work:
            r, c = work.pop()
            for a, b, s in touch[r]:
                x, y, z = tab[a][c], tab[b][c], tab[s][c]
                if x is not None and y is not None:
                    w = sumt[x][y]
                    if z is None:
                        if w is None:
                            return False
                        tab[s][c] = w
                        work.append((s, c))
                    elif z != w:
                        return False
                elif z is not None:
                    if x is not None:
                        w = sub[x][z]
                        if w is None:
                            return False
                        tab[b][c] = w
                        work.append((b, c))
                    elif y is not None:
                        w = sub[y][z]
                        if w is None:
                            return False
                        tab[a][c] = w
                        work.append((a, c))
            row = tab[r]
            for a, b, s in touch[c]:
                x, y, z = row[a], row[b], row[s]
                if x is not None and y is not None:
                    w = sumt[x][y]
                    if z is None:
                        if w is None:
                            return False
                        row[s] = w
                        work.append((r, s))
                    elif z != w:
                        return False
                elif z is not None:
                    if x is not None:
                        w = sub[x][z]
                        if w is None:
                            return False
                        row[b] = w
                        work.append((r, b))
                    elif y is not None:
                        w = sub[y][z]
                        if w is None:
                            return False
                        row[a] = w
                        work.append((r, a))
        return True

    seed: list[list[ElementId | None]] = [[None] * n for _ in range(n)]
    for p in range(n):
        seed[p][alg.unit] = p
        seed[alg.unit][p] = p
        seed[p][alg.zero] = alg.zero
        seed[alg.zero][p] = alg.zero
    seeded = [(p, alg.unit) for p in range(n)] + [(alg.unit, q) for q in range(n)]

    witnesses: list[CloningWitness] = []
    nodes = 0
    aborted = False

    def rec(tab: list[list[ElementId | None]]) -> None:
        nonlocal nodes, aborted
        cell = next(((p, q) for p, q in branch_cells if tab[p][q] is None), None)
        if cell is None:
            full = tuple(tuple(row) for row in tab)
            ok, violation = verify_witness(alg, full)
            if not ok:  # propagation checks every constraint; must not happen
                raise AlgebraError(f"search produced an invalid table: {violation}")
            witnesses.append(CloningWitness(algebra=alg, table=full))
            return
        p, q = cell
        # sound filter: any witness has c(p,q) <= p and c(p,q) <= q
        below = down[p] & down[q]
        for v in range(n):
            if not below >> v & 1:
                continue
            nodes += 1
            if nodes > node_budget:
                aborted = True
                return
            nxt = [row[:] for row in tab]
            nxt[p][q] = v
            if propagate(nxt, [(p, q)]):
                rec(nxt)
            if aborted or (witnesses and not enumerate_all):
                return

    try:
        if propagate(seed, seeded):
            rec(seed)
    finally:
        del rec  # rec refers to itself through its closure: break the cycle

    witnesses.sort(key=lambda w: w.table)
    if aborted:
        status = "aborted"
    elif witnesses:
        status = "witness-found"
    else:
        status = "no-witness"
    return SearchOutcome(status=status, witnesses=witnesses, nodes_explored=nodes)


def verify_witness(
    alg: FiniteEffectAlgebra, table
) -> tuple[bool, str | None]:
    """Check all cloning-witness invariants; report the first violation."""
    n = alg.size
    labels = alg.labels
    sumt = alg.table
    if len(table) != n or any(len(row) != n for row in table):
        return False, "table is not square over the carrier"
    for p in range(n):
        for q in range(n):
            v = table[p][q]
            if not isinstance(v, int) or not (0 <= v < n):
                return False, f"cell ({labels[p]}, {labels[q]}) is not an element"
    for p in range(n):
        if table[p][alg.unit] != p:
            return False, f"unit law fails: c({labels[p]}, 1) != {labels[p]}"
        if table[alg.unit][p] != p:
            return False, f"unit law fails: c(1, {labels[p]}) != {labels[p]}"
    for a, b, s in derive_order(alg).sums:
        for q in range(n):
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


def meet_witness(alg: FiniteEffectAlgebra) -> CloningWitness:
    """The meet-table witness c(p, q) = p /\\ q, available on Boolean algebras."""
    if not is_boolean(alg):
        raise NotBoolean("the meet witness exists only on Boolean algebras")
    table = derive_order(alg).meet
    witness = CloningWitness(algebra=alg, table=table)
    ok, violation = verify_witness(alg, table)
    if not ok:
        raise AlgebraError(f"meet witness failed verification: {violation}")
    return witness


class LemmaReport(NamedTuple):
    orthogonality_passed: bool  # c(p,q) = 0  iff  p orthogonal to q
    idempotence_passed: bool  # c(p,p) = p
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.orthogonality_passed and self.idempotence_passed

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "violations": list(self.violations)}


def check_witness_lemmas(
    alg: FiniteEffectAlgebra, witness: CloningWitness
) -> LemmaReport:
    """Exhaustively check the two witness lemmas, valid on orthoalgebras only."""
    require_orthoalgebra(alg, "the witness lemmas hold on orthoalgebras only")
    violations = []
    orth_ok = True
    idem_ok = True
    for p in alg.elements():
        for q in alg.elements():
            zero_val = witness.table[p][q] == alg.zero
            perp = alg.perp(p, q)
            if zero_val != perp:
                orth_ok = False
                violations.append(
                    f"c({alg.labels[p]}, {alg.labels[q]}) = 0 is {zero_val} "
                    f"but orthogonality is {perp}"
                )
    for p in alg.elements():
        if witness.table[p][p] != p:
            idem_ok = False
            violations.append(f"c({alg.labels[p]}, {alg.labels[p]}) != {alg.labels[p]}")
    return LemmaReport(
        orthogonality_passed=orth_ok,
        idempotence_passed=idem_ok,
        violations=tuple(violations),
    )


def compatibility_core(
    alg: FiniteEffectAlgebra,
    witness: CloningWitness,
    p: ElementId,
    q: ElementId,
) -> tuple[ElementId, ElementId, ElementId]:
    """The unique Mackey decomposition (r, a, b) read off the witness table."""
    require_orthoalgebra(alg, "compatibility cores are defined on orthoalgebras")
    supp = derive_order(alg).supplement
    r = witness.table[p][q]
    a = witness.table[p][supp[q]]
    b = witness.table[supp[p]][q]
    t = alg.table
    if t[r][a] != p or t[r][b] != q or t[a][b] is None:
        raise DecompositionMismatch(
            f"witness does not decompose ({alg.labels[p]}, {alg.labels[q]})"
        )
    decomps = are_compatible(alg, p, q)
    if decomps != [(a, b, r)]:
        raise DecompositionMismatch(
            f"decomposition of ({alg.labels[p]}, {alg.labels[q]}) is not the "
            f"unique one: {decomps}"
        )
    return r, a, b
