"""Exact-rational state polytopes of finite effect algebras.

A state assigns each element a rational in [0, 1], additively over the
partial sum, with value 1 on the unit.  Every element of a finite effect
algebra is a sum of atoms, so a state is fixed by its weights on the atoms:
``v[x] = dec[x] . w`` where ``dec[x]`` counts the atoms in one decomposition
of x.  The state polytope is therefore the polytope of atom weights w >= 0
(nonnegativity on atoms gives it everywhere, since ``dec >= 0``) with
``(dec[a] + dec[b] - dec[c]) . w = 0`` for every ``a + b = c`` and
``dec[1] . w = 1`` (Greechie's atom-weight view of states), mapped onto the
element-coordinate polytope by w -> dec . w.  That map is taken along the
atom walk that found the decompositions, with no dot products: each
``y = x + atoms[i]`` on the walk gives ``v[y] = v[x] + w[i]``.

That equality system is reduced once, by fraction-free Gauss-Jordan
elimination on integers, which solves each pivot atom's weight for the free
atoms'.  What is left is the cone of (x, t) >= 0 over the free atoms x and
a homogenizing t, cut by one inequality per pivot atom (its weight is
nonnegative).  Its extreme rays come from the double description method
(Motzkin et al. 1953; Fukuda and Prodon 1996): primitive integer rays,
refined one inequality at a time, combining only adjacent pairs.  Every
extreme ray has t > 0 (the polytope is bounded) and is one vertex.  The
vertices stay integers too: one numerator row each, over the least
denominator common to all of them.  The rays span the cone's linear hull,
cut out by its implicit equalities, the inequalities tight on every ray
(Schrijver 1986, Theory of Linear and Integer Programming, §8.2), so the
affine dimension is read from those rows, not from the rays.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm
from operator import add, mul, sub
from typing import NamedTuple

from .algebra import AlgebraError, ElementId, FiniteEffectAlgebra, derive_order


class EmptyStateSpace(AlgebraError):
    """The algebra admits no states at all."""


class StatePolytope(NamedTuple):
    """Vertex states as sorted integer rows over their least common
    denominator: vertex i is ``vertices[i][p] / denominator`` at ElementId p."""

    denominator: int
    vertices: tuple[tuple[int, ...], ...]
    affine_dimension: int

    def to_json_list(self, alg: FiniteEffectAlgebra) -> list[dict]:
        # each value as its reduced fraction, so 0 reads 0/1
        d = self.denominator
        return [
            dict(zip(alg.labels, (f"{x // (g := gcd(x, d))}/{d // g}" for x in v)))
            for v in self.vertices
        ]


def atom_decompositions(
    alg: FiniteEffectAlgebra,
) -> tuple[list[tuple[int, ...]], list[tuple[ElementId, ElementId, int]]]:
    """``(dec, walk)``: the atom multiplicities ``dec[x]`` of one
    decomposition of each x into atoms, and the walk that found them.

    Walks up from zero adding one atom at a time; ``dec[x][i]`` counts
    ``atoms[i]``.  Every element is reached: a nonzero x lies above some atom
    a, and x = (x - a) + a with x - a strictly below x.  The walk lists
    ``(y, x, i)`` for each y first reached as ``x + atoms[i]``, in the order
    reached, so x is zero or an earlier y and ``dec[y]`` is ``dec[x]`` plus
    one ``atoms[i]``.
    """
    atoms = derive_order(alg).atoms
    dec: list[tuple[int, ...] | None] = [None] * alg.size
    dec[alg.zero] = (0,) * len(atoms)
    walk = []
    frontier = [alg.zero]
    while frontier:
        reached = []
        for x in frontier:
            for i, a in enumerate(atoms):
                y = alg.table[x][a]
                if y is not None and dec[y] is None:
                    dec[y] = dec[x][:i] + (dec[x][i] + 1,) + dec[x][i + 1 :]
                    walk.append((y, x, i))
                    reached.append(y)
        frontier = reached
    return dec, walk


def enumerate_vertex_states(alg: FiniteEffectAlgebra) -> StatePolytope:
    """Exact vertex enumeration of the state polytope, by double description.

    Raises EmptyStateSpace when the algebra admits no states.
    """
    dec, walk = atom_decompositions(alg)
    m = len(dec[alg.zero])
    # dec[x] in 8-bit lanes: counts are below 64, so a row is 0 iff the ints agree
    packed = [0] * alg.size
    for y, x, i in walk:
        packed[y] = packed[x] + (1 << 8 * i)
    rows = {dec[alg.unit] + (1,)}
    for a, b, c in derive_order(alg).sums:
        if packed[a] + packed[b] != packed[c]:
            rows.add(tuple(map(sub, map(add, dec[a], dec[b]), dec[c])) + (0,))
    reduced = _reduce(rows)
    if reduced is None:
        raise EmptyStateSpace("the additivity constraints are inconsistent")
    base_rows, pivots = reduced
    free = [col for col in range(m) if col not in pivots]

    # Row p*w[pivot] + sum(row[f] * w[f]) = rhs makes w[pivot] >= 0 read
    # rhs*t - sum(row[f] * x[f]) >= 0 on the cone over (x, t) = t * (w[free], 1).
    # Every ray has t > 0: at t = 0 the rows force w = 0, as each element
    # and its supplement add up to the unit.  So each ray is one vertex.
    d = len(free) + 1
    constraints = [[-row[f] for f in free] + [row[-1]] for row in base_rows]
    rays = _extreme_rays(d, constraints)
    if not rays:
        raise EmptyStateSpace("the state polytope is empty")

    # At the lcm L of the pivots, W = L * t * w is an integer on every atom.
    scale = lcm(*(row[col] for row, col in zip(base_rows, pivots)))
    values = []
    for ray in rays:
        w = [0] * m
        for f, x in zip(free, ray):
            w[f] = scale * x
        for row, col in zip(base_rows, pivots):
            s = row[-1] * ray[-1] - sum(row[f] * x for f, x in zip(free, ray))
            w[col] = scale // row[col] * s
        # v = dec . W along the atom walk; it takes the value scale * t at
        # the unit, and made primitive, the unit's entry is the vertex's
        # least denominator
        v = [0] * alg.size
        for y, x, i in walk:
            v[y] = v[x] + w[i]
        values.append(_primitive(v))
    denominator = lcm(*(v[alg.unit] for v in values))
    verts = sorted(tuple(denominator // v[alg.unit] * x for x in v) for v in values)
    # w -> dec . w is injective (each atom's dec is a unit vector), so the
    # vertices span the same affine dimension as their rays, less one.  The
    # rays span the cone's linear hull, which the implicit equalities cut
    # out: the inequalities tight on every ray, so zero at the rays' sum
    total = list(map(sum, zip(*rays)))
    implicit = [[0] * j + [1] + [0] * (d - j) for j, s in enumerate(total) if not s]
    implicit += [a + [0] for a in constraints if not sum(map(mul, a, total))]
    rank = d - len(_reduce(implicit)[1]) if implicit else d
    return StatePolytope(denominator, tuple(verts), rank - 1)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(rows) -> tuple[list[list[int]], list[int]] | None:
    """Gauss-Jordan on augmented integer rows, fraction-free; None if inconsistent.

    Each row kept is primitive, has a positive pivot and is zero in the
    other rows' pivot columns.
    """
    mat = [_primitive(list(row)) for row in rows]
    ncols = len(mat[0]) - 1 if mat else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        i = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if i is None:
            continue
        prow = mat[i] if mat[i][col] > 0 else [-x for x in mat[i]]
        mat[i], mat[r] = mat[r], prow
        p = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                mat[i] = _primitive([p * x - f * y for x, y in zip(row, prow)])
        pivots.append(col)
        r += 1
    if any(row[-1] for row in mat[r:]):
        return None
    return mat[:r], pivots


def _extreme_rays(d: int, constraints: list[list[int]]) -> list[tuple[int, ...]]:
    """Primitive extreme rays of the cone {y >= 0 : a . y >= 0 for each a}.

    The double description method: start from the d unit rays of the
    orthant and add one constraint at a time.  Rays on its nonnegative side
    stay; each pair of adjacent rays on opposite sides gives the new ray on
    its boundary.  Two rays are adjacent when the constraints tight on both
    number at least d - 2 and no other ray is tight on all of them.
    """
    rays = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    # bit j < d of a tight set stands for y[j] >= 0, bit d + i for constraint i
    tight = [((1 << d) - 1) ^ (1 << i) for i in range(d)]
    for bit, a in enumerate(constraints, d):
        vals = [sum(x * y for x, y in zip(a, ray)) for ray in rays]
        kept = [i for i, v in enumerate(vals) if v >= 0]
        new_rays = [rays[i] for i in kept]
        new_tight = [tight[i] | (0 if vals[i] else 1 << bit) for i in kept]
        pos = [i for i in kept if vals[i]]
        neg = [j for j, v in enumerate(vals) if v < 0]
        for i in pos:
            for j in neg:
                common = tight[i] & tight[j]
                if common.bit_count() < d - 2 or not _adjacent(common, tight):
                    continue
                # a . ray = vals[i] * vals[j] - vals[j] * vals[i] = 0
                ray = [vals[i] * y - vals[j] * x for x, y in zip(rays[i], rays[j])]
                new_rays.append(tuple(_primitive(ray)))
                new_tight.append(common | 1 << bit)
        rays, tight = new_rays, new_tight
    return rays


def _adjacent(common: int, tight: list[int]) -> bool:
    """True unless a third ray is tight wherever both rays of the pair are."""
    found = 0
    for z in tight:
        if z & common == common:
            found += 1
            if found > 2:
                return False
    return True


def is_separating(
    alg: FiniteEffectAlgebra, polytope: StatePolytope
) -> tuple[bool, list[tuple[ElementId, ElementId]]]:
    """True iff every pair of distinct elements is split by some vertex state.

    Sufficient for all states: every state is a convex mixture of vertices.
    """
    # element p's values on all vertices; with no vertex, every pair merges
    columns = list(zip(*polytope.vertices)) or [()] * alg.size
    merged = [
        (p, q) for p, q in combinations(alg.elements(), 2) if columns[p] == columns[q]
    ]
    return not merged, merged


def check_state(alg: FiniteEffectAlgebra, values, scale=1) -> list[str]:
    """Violations of the state axioms for an explicit value assignment.

    The axioms are homogeneous, so values may be a state multiplied by a
    positive scale (integers at a common denominator, say); the unit must
    then take the value scale.

    The defined sums a + b = c are read straight from the table, as a <= b
    in ascending order (the order of ``DerivedStructure.sums``), so checking
    a state derives nothing.
    """
    out = []
    if values[alg.unit] != scale:
        out.append("value at the unit is not 1")
    for p in alg.elements():
        if values[p] < 0:
            out.append(f"negative value at {alg.labels[p]}")
    n = alg.size
    for a, row in enumerate(alg.table):
        va = values[a]
        for b in range(a, n):
            c = row[b]
            if c is not None and va + values[b] != values[c]:
                out.append(f"additivity fails on ({alg.labels[a]}, {alg.labels[b]})")
    return out


def monotone_under(alg: FiniteEffectAlgebra, values) -> bool:
    up = derive_order(alg).up
    return all(
        values[p] <= values[q]
        for p in alg.elements()
        for q in alg.elements()
        if up[p] >> q & 1
    )
