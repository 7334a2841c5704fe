"""State constraints, exact vertex enumeration, and separation."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from qlogic import catalog, states
from qlogic.algebra import derive_order
from qlogic.fuzz import random_algebras
from qlogic.states import (
    EmptyStateSpace,
    StatePolytope,
    atom_decompositions,
    check_state,
    enumerate_vertex_states,
    is_separating,
    monotone_under,
)
from test_algebra import catalog_suite, replaced_path_suite
from test_catalog import complete_quadrilateral, grid, stateless_pasting


def _rref(rows):
    """Reduced row echelon form of an augmented matrix; None if inconsistent."""
    mat = [row[:] for row in rows]
    ncols = len(mat[0]) - 1 if mat else 0
    pivots = []
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


def _affine_dim(vertices):
    if len(vertices) <= 1:
        return 0
    base = vertices[0]
    diffs = [
        [x - y for x, y in zip(v, base)] + [Fraction(0)] for v in vertices[1:]
    ]
    reduced = _rref(diffs)
    assert reduced is not None
    return len(reduced[1])


def integer_polytope(vertices, affine_dimension):
    """The StatePolytope of vertex states given as Fractions, in their order:
    integer rows over the least common denominator."""
    den = lcm(*(Fraction(x).denominator for v in vertices for x in v))
    rows = tuple(tuple(int(x * den) for x in v) for v in vertices)
    return StatePolytope(den, rows, affine_dimension)


def fraction_vertices(poly):
    """The vertex states of poly, each a tuple of Fractions."""
    return [tuple(Fraction(x, poly.denominator) for x in v) for v in poly.vertices]


def combinatorial_vertex_states(alg):
    """Oracle: the state polytope's vertices from every choice of zero atoms.

    Reduces the atom-coordinate equality system once over Fractions; each
    choice of k = #atoms - rank zero atoms leaves a square system in the
    free atoms still nonzero, solved with one RREF and mapped back to all
    elements.  It costs C(#atoms, k) eliminations.
    """
    dec, _ = atom_decompositions(alg)
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
    return integer_polytope(verts, _affine_dim(verts))


def state_constraints(alg):
    """Equality rows (coefficients, rhs) in element coordinates: v_unit = 1
    and v_a + v_b = v_c, read straight off the table.

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


def full_coordinate_vertex_states(alg):
    """Oracle: the state polytope's vertices in element coordinates.

    Solves, with one full RREF each, every choice of k = n - rank elements
    set to zero alongside the n-variable additivity constraints, so it does
    not rely on atom decompositions.  It costs C(n, k) eliminations of
    n x (n + 1) systems, so keep n small.
    """
    n = alg.size
    aug = [list(row) + [rhs] for row, rhs in state_constraints(alg)]
    reduced = _rref(aug)
    if reduced is None:
        raise EmptyStateSpace("the additivity constraints are inconsistent")
    base_rows, pivots = reduced
    vertices = set()
    for zeros in combinations(range(n), n - len(pivots)):
        system = [row[:] for row in base_rows]
        for i in zeros:
            row = [Fraction(0)] * (n + 1)
            row[i] = Fraction(1)
            system.append(row)
        solved = _rref(system)
        if solved is None or len(solved[1]) < n:
            continue
        point = [Fraction(0)] * n
        for row, col in zip(*solved):
            point[col] = row[-1]
        if all(x >= 0 for x in point):
            vertices.add(tuple(point))
    if not vertices:
        raise EmptyStateSpace("the state polytope is empty")
    verts = tuple(sorted(vertices))
    return integer_polytope(verts, _affine_dim(verts))


def _polytope_or_message(enumerate_states, alg):
    try:
        return enumerate_states(alg)
    except EmptyStateSpace as exc:
        return str(exc)


def oracle_algebras():
    suite = [alg for alg in catalog_suite() if alg.size <= 16]
    for seed in (1, 7, 202):
        suite += random_algebras(seed=seed, count=100)
    return suite


def test_atom_coordinates_match_full_coordinate_oracle():
    for alg in oracle_algebras():
        assert _polytope_or_message(enumerate_vertex_states, alg) == (
            _polytope_or_message(full_coordinate_vertex_states, alg)
        ), alg.labels


def test_double_description_matches_combinatorial_oracle():
    suite = [alg for alg in catalog_suite() if alg.size <= 32]
    for seed in (1, 7, 202):
        suite += random_algebras(seed=seed, count=300)
    for alg in suite:
        assert _polytope_or_message(enumerate_vertex_states, alg) == (
            _polytope_or_message(combinatorial_vertex_states, alg)
        ), alg.labels


def test_extreme_rays_by_double_description():
    # y0 + y1 <= 0 leaves the orthant's apex alone, so no ray and no state
    assert states._extreme_rays(2, [[-1, -1]]) == []
    # x <= t and y <= t cut the cone over the unit square
    rays = states._extreme_rays(3, [[-1, 0, 1], [0, -1, 1]])
    assert sorted(rays) == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    # 2x <= t and 3y <= t: the rays are primitive integer vectors
    rays = states._extreme_rays(3, [[-2, 0, 1], [0, -3, 1]])
    assert sorted(rays) == [(0, 0, 1), (0, 1, 3), (1, 0, 2), (3, 2, 6)]


@pytest.mark.parametrize(
    "summands, vertices, dimension",
    [
        # bp(3)'s states form a triangle: 3 x 3 vertices, 2 + 2 dimensions
        (lambda: [catalog.boolean_powerset(3)] * 2, 9, 4),
        # mo(4)'s form a 4-cube (16 vertices), the Wright triangle's a
        # 3-polytope with 5 vertices; the sum has 34 elements
        (lambda: [catalog.mo(4)] + [catalog.wright_triangle()] * 2, 16 * 5 * 5, 10),
    ],
)
def test_horizontal_sum_state_space_is_the_product(
    monkeypatch, summands, vertices, dimension
):
    # a state of a horizontal sum is one state of each summand, so the
    # vertex counts multiply and the affine dimensions add
    monkeypatch.setattr(states, "MAX_STATE_CARRIER", 64)
    poly = enumerate_vertex_states(catalog.horizontal_sum(*summands()))
    assert len(poly.vertices) == vertices
    assert poly.affine_dimension == dimension


def test_grid_states_are_the_birkhoff_polytope():
    # grid(3,3)'s states are the 3 x 3 doubly stochastic matrices, whose
    # vertices are the 3! permutation matrices (Birkhoff-von Neumann) and
    # whose affine dimension is (3 - 1)^2
    alg = grid(3, 3)
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 6
    assert poly.affine_dimension == 4
    assert poly == combinatorial_vertex_states(alg)
    cells = [[alg.index(f"x{i}{j}") for j in range(3)] for i in range(3)]
    for v in poly.vertices:
        assert sorted(tuple(v[p] for p in row).index(1) for row in cells) == [0, 1, 2]
        assert sorted(v[p] for row in cells for p in row) == [0] * 6 + [1] * 3


def test_complete_quadrilateral_states_do_not_separate():
    alg = complete_quadrilateral()
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 3
    assert poly == combinatorial_vertex_states(alg)
    separating, merged = is_separating(alg, poly)
    assert not separating and merged


@pytest.mark.parametrize(
    "build, message",
    [
        # the 4-atom rows force the 12 atom weights to sum to 3, the 3-atom
        # columns to 4
        (lambda: grid(3, 4), "the additivity constraints are inconsistent"),
        # consistent, but only with w(z) = -1
        (stateless_pasting, "the state polytope is empty"),
    ],
    ids=["grid_3x4", "forced_negative"],
)
def test_stateless_pastings(monkeypatch, build, message):
    monkeypatch.setattr(states, "MAX_STATE_CARRIER", 64)
    with pytest.raises(EmptyStateSpace, match=message):
        enumerate_vertex_states(build())


def test_every_element_has_an_atom_decomposition():
    for alg in oracle_algebras():
        atoms = derive_order(alg).atoms
        dec, walk = atom_decompositions(alg)
        assert None not in dec, alg.labels
        assert dec[alg.zero] == (0,) * len(atoms)
        for i, a in enumerate(atoms):
            assert dec[a] == tuple(int(j == i) for j in range(len(atoms)))
        # the walk reaches each nonzero element once, from zero or an
        # element it reached earlier, adding the atom it names
        reached = [alg.zero]
        for y, x, i in walk:
            assert x in reached and alg.table[x][atoms[i]] == y
            assert dec[y] == tuple(d + (j == i) for j, d in enumerate(dec[x]))
            reached.append(y)
        assert sorted(reached) == list(alg.elements())


def dot_product_vertex_states(alg):
    """Oracle: enumerate_vertex_states with each vertex coordinate taken as
    the dot product dec[x] . W of the atom decomposition and the atom
    weights, as before the atom walk replaced it."""
    dec, _ = atom_decompositions(alg)
    m = len(dec[alg.zero])
    rows = {dec[alg.unit] + (1,)}
    for a, b, c in derive_order(alg).sums:
        row = tuple(x + y - z for x, y, z in zip(dec[a], dec[b], dec[c]))
        if any(row):
            rows.add(row + (0,))
    reduced = states._reduce(rows)
    if reduced is None:
        raise EmptyStateSpace("the additivity constraints are inconsistent")
    base_rows, pivots = reduced
    free = [col for col in range(m) if col not in pivots]
    rays = states._extreme_rays(
        len(free) + 1, [[-row[f] for f in free] + [row[-1]] for row in base_rows]
    )
    if not rays:
        raise EmptyStateSpace("the state polytope is empty")
    scale = lcm(*(row[col] for row, col in zip(base_rows, pivots)))
    values = []
    for ray in rays:
        w = [0] * m
        for f, x in zip(free, ray):
            w[f] = scale * x
        for row, col in zip(base_rows, pivots):
            s = row[-1] * ray[-1] - sum(row[f] * x for f, x in zip(free, ray))
            w[col] = scale // row[col] * s
        values.append(states._primitive([sum(c * x for c, x in zip(d, w)) for d in dec]))
    denominator = lcm(*(v[alg.unit] for v in values))
    verts = sorted(tuple(denominator // v[alg.unit] * x for x in v) for v in values)
    rank = len(states._reduce([ray + (0,) for ray in rays])[1])
    return StatePolytope(denominator, tuple(verts), rank - 1)


def pairwise_separating(alg, poly):
    """Oracle: is_separating with one pass over the vertices per pair."""
    merged = []
    for p in alg.elements():
        for q in range(p + 1, alg.size):
            if all(v[p] == v[q] for v in poly.vertices):
                merged.append((p, q))
    return not merged, merged


def replaced_path_algebras():
    suite = catalog_suite() + [grid(3, 3), complete_quadrilateral()]
    for seed in (1, 7, 202):
        suite += random_algebras(seed=seed, count=100)
    return suite


def test_walk_coordinates_match_dot_product_oracle():
    for alg in replaced_path_algebras():
        assert _polytope_or_message(enumerate_vertex_states, alg) == (
            _polytope_or_message(dot_product_vertex_states, alg)
        ), alg.labels


def test_column_separation_matches_pairwise_oracle():
    outcomes = set()
    no_vertices = StatePolytope(1, (), 0)
    for alg in replaced_path_algebras():
        for poly in (enumerate_vertex_states(alg), no_vertices):
            separating, merged = is_separating(alg, poly)
            assert (separating, merged) == pairwise_separating(alg, poly)
            outcomes.add((separating, poly is no_vertices))
    # a separating and a non-separating algebra (the complete
    # quadrilateral), and the empty polytope, which merges every pair
    assert outcomes == {(True, False), (False, False), (False, True)}


def padded_grid(pads, lead):
    """grid(3, 3) with a new atom z_j in each of the first pads column blocks,
    listed first in its block when lead is true (n = 36 for 2 pads, 44 for 3).

    The rows and the columns each sum to 3, so the z_j sum to 0 and are 0 on
    every state, which no equality forces one at a time: the reduced cone has
    implicit equalities.  Listed last, all but one z_j are free atoms and the
    y >= 0 rows carry the equalities; listed first, the z_j are pivot atoms
    and the constraint rows carry them.
    """
    rows = [tuple(f"x{i}{j}" for j in range(3)) for i in range(3)]
    columns = [tuple(f"x{i}{j}" for i in range(3)) for j in range(3)]
    for j in range(pads):
        columns[j] = (f"z{j}",) + columns[j] if lead else columns[j] + (f"z{j}",)
    return catalog.pasting(columns + rows if lead else rows + columns)


def ray_rank(rays):
    """Oracle: the rank of the rays by Gauss-Jordan elimination, as the
    affine dimension was taken before the implicit equalities replaced it."""
    return len(states._reduce([ray + (0,) for ray in rays])[1])


def test_dimension_from_implicit_equalities_matches_ray_rank(monkeypatch):
    seen = []
    extreme_rays = states._extreme_rays

    def capture(d, constraints):
        rays = extreme_rays(d, constraints)
        seen.append((d, rays))
        return rays

    monkeypatch.setattr(states, "_extreme_rays", capture)
    monkeypatch.setattr(states, "MAX_STATE_CARRIER", 64)
    padded = [padded_grid(3, lead=False), padded_grid(2, lead=True)]
    cut = []
    for alg in replaced_path_suite() + padded:
        seen.clear()
        try:
            poly = enumerate_vertex_states(alg)
        except EmptyStateSpace:
            continue
        ((d, rays),) = seen
        assert poly.affine_dimension == ray_rank(rays) - 1, alg.labels
        if poly.affine_dimension < d - 1:
            cut.append(alg)
    # the padded grids' rays span less than the cone's d dimensions, and
    # their states are still the 4-dimensional Birkhoff polytope
    assert cut == padded
    for alg in padded:
        assert enumerate_vertex_states(alg).affine_dimension == 4


def derived_sums_check_state(alg, values, scale=1):
    """Oracle: check_state reading the defined sums from derive_order."""
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


def test_check_state_matches_derived_sums_oracle():
    failing = 0
    for alg in replaced_path_suite():
        try:
            poly = enumerate_vertex_states(alg)
        except EmptyStateSpace:
            continue
        for i, v in enumerate(poly.vertices):
            values = list(v)
            values[i % alg.size] -= 1 + i % 3
            for case in (v, values):
                messages = check_state(alg, case, poly.denominator)
                assert messages == derived_sums_check_state(alg, case, poly.denominator)
                failing += bool(messages)
    assert failing


def test_chain2_forces_half():
    alg = catalog.chain(2)
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 1
    assert fraction_vertices(poly)[0][alg.index("1/2")] == Fraction(1, 2)


def test_polytope_is_immutable():
    poly = enumerate_vertex_states(catalog.chain(2))
    with pytest.raises(AttributeError):
        poly.vertices = ()


def test_bp2_two_dispersion_free_vertices():
    alg = catalog.boolean_powerset(2)
    poly = enumerate_vertex_states(alg)
    a, b = alg.index("{1}"), alg.index("{2}")
    values = sorted((v[a], v[b]) for v in fraction_vertices(poly))
    assert values == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]


def test_mo2_four_vertices():
    alg = catalog.mo(2)
    poly = enumerate_vertex_states(alg)
    a, b = alg.index("a1"), alg.index("a2")
    values = sorted((v[a], v[b]) for v in fraction_vertices(poly))
    # independent oracle: the polytope is a product of two segments
    assert values == [
        (Fraction(x), Fraction(y)) for x in (0, 1) for y in (0, 1)
    ]


@pytest.mark.parametrize("k", (1, 2, 3, 4, 5))
def test_powerset_vertices_dispersion_free(k):
    alg = catalog.boolean_powerset(k)
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == k
    assert poly.affine_dimension == k - 1
    for v in fraction_vertices(poly):
        assert all(x in (0, 1) for x in v)


def test_mo6_vertices_are_the_64_corners():
    # mo(6) pastes six 4-element blocks {0, ai, ai', 1}: a state picks each
    # v(ai) in [0, 1] independently, so the polytope is the 6-cube
    alg = catalog.mo(6)
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 64
    assert poly.affine_dimension == 6
    corners = {
        tuple(v[alg.index(f"a{i}")] for i in range(1, 7))
        for v in fraction_vertices(poly)
    }
    assert corners == {
        tuple(Fraction(b >> i & 1) for i in range(6)) for b in range(64)
    }


def test_constraint_rows_mention_unit():
    alg = catalog.boolean_powerset(2)
    rows = state_constraints(alg)
    unit_rows = [r for r, rhs in rows if rhs == 1]
    assert len(unit_rows) == 1
    assert unit_rows[0][alg.unit] == 1


def test_horizontal_sum_of_two_bp1_reported():
    # no expectation asserted beyond running the enumeration
    alg = catalog.horizontal_sum(
        catalog.boolean_powerset(1), catalog.boolean_powerset(1)
    )
    poly = enumerate_vertex_states(alg)
    sep, merged = is_separating(alg, poly)
    assert len(poly.vertices) >= 1
    assert isinstance(sep, bool) and isinstance(merged, list)


def full_catalog():
    return [
        catalog.boolean_powerset(1),
        catalog.boolean_powerset(2),
        catalog.boolean_powerset(3),
        catalog.chain(2),
        catalog.chain(3),
        catalog.chain(4),
        catalog.mo(1),
        catalog.mo(2),
        catalog.mo(3),
        catalog.product(catalog.chain(2), catalog.chain(2)),
        catalog.wright_triangle(),
    ]


def test_vertices_satisfy_constraints_exactly():
    for alg in full_catalog():
        poly = enumerate_vertex_states(alg)
        for v in poly.vertices:
            assert check_state(alg, v, poly.denominator) == []


def test_vertex_states_monotone():
    for alg in full_catalog():
        poly = enumerate_vertex_states(alg)
        for v in poly.vertices:
            assert monotone_under(alg, v)


def test_supplement_law():
    for alg in full_catalog():
        supp = derive_order(alg).supplement
        poly = enumerate_vertex_states(alg)
        for v in fraction_vertices(poly):
            for p in alg.elements():
                assert v[supp[p]] == 1 - v[p]


def test_separation_across_catalog():
    for alg in full_catalog():
        poly = enumerate_vertex_states(alg)
        sep, merged = is_separating(alg, poly)
        assert sep, f"merged pairs on {alg.labels}: {merged}"


def test_fuzz_states_well_formed():
    for alg in random_algebras(seed=303, count=25, max_size=9):
        poly = enumerate_vertex_states(alg)
        for v in poly.vertices:
            assert check_state(alg, v, poly.denominator) == []
            assert monotone_under(alg, v)


def test_vertices_sorted_and_distinct():
    for alg in full_catalog():
        poly = enumerate_vertex_states(alg)
        assert list(poly.vertices) == sorted(set(poly.vertices))


def test_json_vertices_exact_fractions():
    alg = catalog.chain(2)
    poly = enumerate_vertex_states(alg)
    doc = poly.to_json_list(alg)
    assert doc == [{"0": "0/1", "1/2": "1/2", "1": "1/1"}]


def test_json_fractions_over_the_least_denominator():
    # each entry prints as Fraction(x, denominator) reduces, and no common
    # factor is left over: the denominator is the least common one
    suite = [alg for alg in catalog_suite() + full_catalog() if alg.size <= 32]
    suite += random_algebras(seed=11, count=200)
    denominators = set()
    for alg in suite:
        try:
            poly = enumerate_vertex_states(alg)
        except EmptyStateSpace:
            continue
        denominators.add(poly.denominator)
        assert gcd(poly.denominator, *(x for v in poly.vertices for x in v)) == 1
        expected = [
            {alg.labels[p]: f"{f.numerator}/{f.denominator}" for p, f in enumerate(v)}
            for v in fraction_vertices(poly)
        ]
        assert poly.to_json_list(alg) == expected, alg.labels
    assert {2, 3, 4} <= denominators


def scan_check_state(alg, values):
    """Oracle: check_state's messages, from the table's upper triangle."""
    out = []
    if values[alg.unit] != 1:
        out.append("value at the unit is not 1")
    for p in alg.elements():
        if values[p] < 0:
            out.append(f"negative value at {alg.labels[p]}")
    for a in alg.elements():
        for b in range(a, alg.size):
            c = alg.table[a][b]
            if c is not None and values[a] + values[b] != values[c]:
                out.append(f"additivity fails on ({alg.labels[a]}, {alg.labels[b]})")
    return out


def test_check_state_messages_match_table_scan():
    for alg in oracle_algebras():
        try:
            vertices = fraction_vertices(enumerate_vertex_states(alg))
        except EmptyStateSpace:
            continue
        last_atom = derive_order(alg).atoms[-1]
        for v in vertices:
            # moving zero breaks every 0 + x = x row, and moving the unit
            # breaks the unit value; the atom (the unit on two elements)
            # turns negative
            values = list(v)
            values[alg.zero] += Fraction(1, 2)
            values[alg.unit] += Fraction(1, 3)
            values[last_atom] -= 2
            messages = check_state(alg, values)
            assert messages[0] == "value at the unit is not 1"
            assert sum(m.startswith("additivity") for m in messages) >= 2
            assert messages == scan_check_state(alg, values), alg.labels
