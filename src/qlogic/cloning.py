"""Exhaustive backtracking search for cloning bimorphisms c: P x P -> P.

A cloning witness is a total table satisfying the unit laws c(p,1)=c(1,p)=p
and biadditivity in each argument.  Existence is decided at the bimorphism
level; a completed exhaustive search with no witness is a proof of
nonexistence, while a budget abort is reported as such and never as
nonexistence.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class CloningWitness:
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


@dataclass
class SearchOutcome:
    status: str  # "witness-found" | "no-witness" | "aborted"
    witnesses: list[CloningWitness]
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {**vars(self), "witnesses": [w.to_json_dict() for w in self.witnesses]}


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
    cells are taken in.  The root starts from the seeded unit and zero rows
    and columns; a branch starts from its one new cell, because its parent
    table is already at the fixpoint.
    """
    n = alg.size
    sumt = alg.table
    order = derive_order(alg)
    lo = order.leq
    sub = order.difference

    branch_cells = [(p, q) for p in order.atoms for q in order.atoms]
    touch: list[list[tuple[ElementId, ElementId, ElementId]]] = [[] for _ in range(n)]
    for triple in order.sums:
        for x in set(triple):
            touch[x].append(triple)

    def propagate(
        tab: list[list[ElementId | None]], work: list[tuple[ElementId, ElementId]]
    ) -> bool:
        while work:
            r, c = work.pop()
            constraints = [((a, c), (b, c), (s, c)) for a, b, s in touch[r]]
            constraints += [((r, a), (r, b), (r, s)) for a, b, s in touch[c]]
            for (ra, ca), (rb, cb), (rs, cs) in constraints:
                x = tab[ra][ca]
                y = tab[rb][cb]
                z = tab[rs][cs]
                if x is not None and y is not None:
                    w = sumt[x][y]
                    if w is None:
                        return False
                    if z is None:
                        tab[rs][cs] = w
                        work.append((rs, cs))
                    elif z != w:
                        return False
                elif z is not None:
                    if x is not None:
                        w = sub[x][z]
                        if w is None:
                            return False
                        tab[rb][cb] = w
                        work.append((rb, cb))
                    elif y is not None:
                        w = sub[y][z]
                        if w is None:
                            return False
                        tab[ra][ca] = w
                        work.append((ra, ca))
        return True

    seed: list[list[ElementId | None]] = [[None] * n for _ in range(n)]
    for p in range(n):
        seed[p][alg.unit] = p
        seed[alg.unit][p] = p
        seed[p][alg.zero] = alg.zero
        seed[alg.zero][p] = alg.zero
    seeded = [(p, q) for p in range(n) for q in range(n) if seed[p][q] is not None]

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
        for v in range(n):
            # sound filter: any witness has c(p,q) <= p and c(p,q) <= q
            if not (lo[v][p] and lo[v][q]):
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


@dataclass(frozen=True)
class LemmaReport:
    orthogonality_passed: bool  # c(p,q) = 0  iff  p orthogonal to q
    idempotence_passed: bool  # c(p,p) = p
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.orthogonality_passed and self.idempotence_passed

    def to_json_dict(self) -> dict:
        return {**vars(self), "violations": list(self.violations)}


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
