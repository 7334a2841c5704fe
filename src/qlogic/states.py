"""Exact-rational state polytopes of finite effect algebras.

A state assigns each element a rational in [0, 1], additively over the
partial sum, with value 1 on the unit.  Every element of a finite effect
algebra is a sum of atoms, so a state is fixed by its weights on the atoms:
``v[x] = dec[x] . w`` where ``dec[x]`` counts the atoms in one decomposition
of x.  The state polytope is therefore the polytope of atom weights w >= 0
(nonnegativity on atoms gives it everywhere, since ``dec >= 0``) with
``(dec[a] + dec[b] - dec[c]) . w = 0`` for every ``a + b = c`` and
``dec[1] . w = 1`` (Greechie's atom-weight view of states), mapped onto the
element-coordinate polytope by w -> dec . w.  That equality system is
reduced once; each vertex then solves the small system that one choice of
zero atoms leaves in the reduced system's free variables, entirely over
Fractions, and is mapped back to all elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraError, ElementId, FiniteEffectAlgebra, derive_order

MAX_STATE_CARRIER = 32


class EmptyStateSpace(AlgebraError):
    """The algebra admits no states at all."""


class StateCarrierTooLarge(AlgebraError):
    """The carrier has more than MAX_STATE_CARRIER elements to enumerate."""


@dataclass(frozen=True)
class StatePolytope:
    """Vertex states, each a tuple of Fractions indexed by ElementId."""

    vertices: tuple[tuple[Fraction, ...], ...]
    affine_dimension: int

    def to_json_list(self, alg: FiniteEffectAlgebra) -> list[dict]:
        return [
            {alg.labels[p]: _fraction_str(v[p]) for p in alg.elements()}
            for v in self.vertices
        ]


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def state_constraints(
    alg: FiniteEffectAlgebra,
) -> list[tuple[tuple[Fraction, ...], Fraction]]:
    """Equality rows (coefficients, rhs): v_unit = 1 and v_a + v_b = v_c.

    v_zero = 0 is not postulated; it falls out of the 0 + 0 = 0 row.
    """
    n = alg.size
    rows = []
    unit_row = [Fraction(0)] * n
    unit_row[alg.unit] = Fraction(1)
    rows.append((tuple(unit_row), Fraction(1)))
    for a in alg.elements():
        for b in range(a, n):
            c = alg.table[a][b]
            if c is None:
                continue
            row = [Fraction(0)] * n
            row[a] += 1
            row[b] += 1
            row[c] -= 1
            if any(row):
                rows.append((tuple(row), Fraction(0)))
    return rows


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]] | None:
    """Reduced row echelon form of an augmented matrix; None if inconsistent."""
    mat = [row[:] for row in rows]
    ncols = len(mat[0]) - 1 if mat else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][-1] != 0:
            return None
    return mat[:r], pivots


def atom_decompositions(alg: FiniteEffectAlgebra) -> list[tuple[int, ...]]:
    """``dec[x]``: atom multiplicities of one decomposition of x into atoms.

    Walks up from zero adding one atom at a time; ``dec[x][i]`` counts
    ``atoms[i]``.  Every element is reached: a nonzero x lies above some atom
    a, and x = (x - a) + a with x - a strictly below x.
    """
    atoms = derive_order(alg).atoms
    dec: list[tuple[int, ...] | None] = [None] * alg.size
    dec[alg.zero] = (0,) * len(atoms)
    frontier = [alg.zero]
    while frontier:
        reached = []
        for x in frontier:
            for i, a in enumerate(atoms):
                y = alg.table[x][a]
                if y is not None and dec[y] is None:
                    dec[y] = dec[x][:i] + (dec[x][i] + 1,) + dec[x][i + 1 :]
                    reached.append(y)
        frontier = reached
    return dec


def enumerate_vertex_states(alg: FiniteEffectAlgebra) -> StatePolytope:
    """Exact vertex enumeration of the state polytope, in atom coordinates.

    Raises EmptyStateSpace when the algebra admits no states, and
    StateCarrierTooLarge above MAX_STATE_CARRIER elements.
    """
    if alg.size > MAX_STATE_CARRIER:
        raise StateCarrierTooLarge(
            f"vertex enumeration supports carriers up to {MAX_STATE_CARRIER} "
            f"elements, got {alg.size}"
        )
    dec = atom_decompositions(alg)
    m = len(dec[alg.zero])
    rows = {dec[alg.unit] + (1,)}
    for a, b, c in derive_order(alg).sums:
        row = tuple(x + y - z for x, y, z in zip(dec[a], dec[b], dec[c]))
        if any(row):
            rows.add(row + (0,))
    reduced = _rref([[Fraction(x) for x in row] for row in rows])
    if reduced is None:
        raise EmptyStateSpace("the additivity constraints are inconsistent")
    base_rows, pivots = reduced
    free = [col for col in range(m) if col not in pivots]

    # A vertex has k = len(free) zero atoms.  Zeroing a pivot atom turns its
    # row into an equation over the free atoms left nonzero; as many free
    # atoms stay nonzero as pivot atoms are zeroed, so the system is square.
    weights = set()
    for zeros in combinations(range(m), len(free)):
        rows_zeroed = [row for row, col in zip(base_rows, pivots) if col in zeros]
        basic = [col for col in free if col not in zeros]
        solved = _rref([[row[c] for c in basic] + [row[-1]] for row in rows_zeroed])
        if solved is None or len(solved[1]) < len(basic):
            continue
        w = [Fraction(0)] * m
        for row, j in zip(*solved):
            w[basic[j]] = row[-1]
        for row, col in zip(base_rows, pivots):
            w[col] = row[-1] - sum(row[c] * w[c] for c in basic)
        if all(x >= 0 for x in w):
            weights.add(tuple(w))

    if not weights:
        raise EmptyStateSpace("the state polytope is empty")
    verts = tuple(
        sorted(
            tuple(sum((c * x for c, x in zip(d, w) if c), Fraction(0)) for d in dec)
            for w in weights
        )
    )
    return StatePolytope(vertices=verts, affine_dimension=_affine_dim(verts))


def _affine_dim(vertices: tuple[tuple[Fraction, ...], ...]) -> int:
    if len(vertices) <= 1:
        return 0
    base = vertices[0]
    diffs = [
        [x - y for x, y in zip(v, base)] + [Fraction(0)] for v in vertices[1:]
    ]
    reduced = _rref(diffs)
    assert reduced is not None
    return len(reduced[1])


def is_separating(
    alg: FiniteEffectAlgebra, polytope: StatePolytope
) -> tuple[bool, list[tuple[ElementId, ElementId]]]:
    """True iff every pair of distinct elements is split by some vertex state.

    Sufficient for all states: every state is a convex mixture of vertices.
    """
    merged = []
    for p in alg.elements():
        for q in range(p + 1, alg.size):
            if all(v[p] == v[q] for v in polytope.vertices):
                merged.append((p, q))
    return not merged, merged


def check_state(alg: FiniteEffectAlgebra, values, scale=1) -> list[str]:
    """Violations of the state axioms for an explicit value assignment.

    The axioms are homogeneous, so values may be a state multiplied by a
    positive scale (integers at a common denominator, say); the unit must
    then take the value scale.
    """
    out = []
    if values[alg.unit] != scale:
        out.append("value at the unit is not 1")
    for p in alg.elements():
        if values[p] < 0:
            out.append(f"negative value at {alg.labels[p]}")
    for a, b, c in derive_order(alg).sums:
        if values[a] + values[b] != values[c]:
            out.append(f"additivity fails on ({alg.labels[a]}, {alg.labels[b]})")
    return out


def monotone_under(alg: FiniteEffectAlgebra, values) -> bool:
    lo = derive_order(alg).leq
    return all(
        values[p] <= values[q]
        for p in alg.elements()
        for q in alg.elements()
        if lo[p][q]
    )
