"""State constraints, exact vertex enumeration, and separation."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from qlogic import catalog, states
from qlogic.algebra import derive_order
from qlogic.states import (
    EmptyStateSpace,
    StatePolytope,
    atom_decompositions,
    check_state,
    enumerate_vertex_states,
    is_separating,
    monotone_under,
)
from corpus import (
    CORE,
    complete_quadrilateral,
    fraction_vertices,
    grid,
    integer_polytope,
    padded_grid,
    polytope_or_message,
    stateless_pasting,
    upto,
)


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


def states_of(polytopes, algebras=None):
    """(alg, polytope) for each of algebras (all of polytopes by default)
    that has states."""
    algebras = polytopes if algebras is None else algebras
    return [(alg, polytopes[alg]) for alg in algebras if isinstance(polytopes[alg], StatePolytope)]


def test_atom_coordinates_match_full_coordinate_oracle(polytopes, corpus):
    # slice: the core's algebras of at most 10 elements, and the Wright
    # triangle (14); the oracle's cost grows as C(n, n - rank)
    for alg in upto(corpus, 10, CORE) + [catalog.wright_triangle()]:
        assert polytopes[alg] == polytope_or_message(full_coordinate_vertex_states, alg), (
            alg.labels
        )


def test_double_description_matches_combinatorial_oracle(polytopes, corpus):
    # slice: every corpus algebra of at most 32 elements
    for alg in upto(corpus, 32):
        assert polytopes[alg] == polytope_or_message(combinatorial_vertex_states, alg), (
            alg.labels
        )


@pytest.mark.parametrize(
    "spec",
    [
        "chain(40)",
        "chain(63)",
        "horizontal_sum(chain(32),chain(32))",
        # x + y = 1 in the long chain, against the unit decomposed into 2
        # or 3 atoms of the short one: lanes of 4 bits would read the row
        # (32, -2) as zero, as 32 = 2 * 16
        "horizontal_sum(chain(32),chain(2))",
        "horizontal_sum(chain(2),chain(32))",
        "horizontal_sum(chain(48),chain(3))",
        "horizontal_sum(chain(3),chain(48))",
    ],
)
def test_atom_counts_past_4_bits_match_combinatorial_oracle(spec):
    # the oracle builds each constraint row from the unpacked counts
    alg = catalog.build_spec(spec)
    dec, _ = atom_decompositions(alg)
    assert max(map(max, dec)) > 15
    assert enumerate_vertex_states(alg) == polytope_or_message(
        combinatorial_vertex_states, alg
    )


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
def test_horizontal_sum_state_space_is_the_product(summands, vertices, dimension):
    # a state of a horizontal sum is one state of each summand, so the
    # vertex counts multiply and the affine dimensions add
    poly = enumerate_vertex_states(catalog.horizontal_sum(*summands()))
    assert len(poly.vertices) == vertices
    assert poly.affine_dimension == dimension


def test_enumeration_takes_carriers_above_32_elements():
    # 36 elements: the library enumerates any carrier; the 32-element cap
    # belongs to the command line.  A state of a product is a mixture of a
    # state of each factor, so the vertices are the 4 + 4 corners of the
    # two squares
    alg = catalog.product(catalog.mo(2), catalog.mo(2))
    assert alg.size == 36
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 8
    for v in poly.vertices:
        assert check_state(alg, v, poly.denominator) == []


def test_grid_states_are_the_birkhoff_polytope():
    # grid(3,3)'s states are the 3 x 3 doubly stochastic matrices, whose
    # vertices are the 3! permutation matrices (Birkhoff-von Neumann) and
    # whose affine dimension is (3 - 1)^2
    alg = grid(3, 3)
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 6
    assert poly.affine_dimension == 4
    cells = [[alg.index(f"x{i}{j}") for j in range(3)] for i in range(3)]
    for v in poly.vertices:
        assert sorted(tuple(v[p] for p in row).index(1) for row in cells) == [0, 1, 2]
        assert sorted(v[p] for row in cells for p in row) == [0] * 6 + [1] * 3


def test_complete_quadrilateral_states_do_not_separate():
    alg = complete_quadrilateral()
    poly = enumerate_vertex_states(alg)
    assert len(poly.vertices) == 3
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
def test_stateless_pastings(build, message):
    with pytest.raises(EmptyStateSpace, match=message):
        enumerate_vertex_states(build())


def test_every_element_has_an_atom_decomposition(corpus):
    for _, _, alg in corpus:
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


def pairwise_separating(alg, poly):
    """Oracle: is_separating with one pass over the vertices per pair."""
    merged = []
    for p in alg.elements():
        for q in range(p + 1, alg.size):
            if all(v[p] == v[q] for v in poly.vertices):
                merged.append((p, q))
    return not merged, merged


def test_column_separation_matches_pairwise_oracle(polytopes):
    outcomes = set()
    no_vertices = StatePolytope(1, (), 0)
    for alg, poly in states_of(polytopes):
        for case in (poly, no_vertices):
            separating, merged = is_separating(alg, case)
            assert (separating, merged) == pairwise_separating(alg, case)
            outcomes.add((separating, case is no_vertices))
    # a separating and a non-separating algebra (the complete
    # quadrilateral), and the empty polytope, which merges every pair
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_dimension_from_implicit_equalities_matches_vertex_hull(polytopes, corpus):
    # the rank of the Fraction vertex rows' differences; in the padded grids
    # the implicit equalities cut the reduced cone's dimension to 4; slice:
    # the core with the first 200 draws of each fuzz seed
    for alg, poly in states_of(polytopes, upto(corpus, caps=dict(CORE, fuzz=200))):
        assert poly.affine_dimension == _affine_dim(fraction_vertices(poly)), alg.labels
    for alg in (padded_grid(3, lead=False), padded_grid(2, lead=True)):
        assert polytopes[alg].affine_dimension == 4


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


def test_check_state_matches_derived_sums_oracle(polytopes):
    failing = 0
    for alg, poly in states_of(polytopes):
        den, last_atom = poly.denominator, derive_order(alg).atoms[-1]
        for i, v in enumerate(poly.vertices):
            shifted = list(v)
            shifted[i % alg.size] -= 1 + i % 3
            # at six times the scale, zero moves by 1/2, which breaks every
            # 0 + x = x row, and the unit by 1/3; the last atom (the unit on
            # two elements) moves by -2 and turns negative
            moved = [6 * x for x in v]
            moved[alg.zero] += 3 * den
            moved[alg.unit] += 2 * den
            moved[last_atom] -= 12 * den
            for case, scale in ((v, den), (shifted, den), (moved, 6 * den)):
                messages = check_state(alg, case, scale)
                assert messages == derived_sums_check_state(alg, case, scale), alg.labels
                failing += bool(messages)
            assert messages[0] == "value at the unit is not 1"
            assert sum(m.startswith("additivity") for m in messages) >= 2
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
    # the sum glues the two zeros and the two units: the 2-element algebra,
    # whose one state separates its two elements
    alg = catalog.horizontal_sum(
        catalog.boolean_powerset(1), catalog.boolean_powerset(1)
    )
    poly = enumerate_vertex_states(alg)
    assert poly == StatePolytope(1, ((0, 1),), 0)
    assert is_separating(alg, poly) == (True, [])


def test_vertices_satisfy_constraints_exactly(polytopes):
    for alg, poly in states_of(polytopes):
        for v in poly.vertices:
            assert check_state(alg, v, poly.denominator) == [], alg.labels


def test_vertex_states_monotone(polytopes):
    for alg, poly in states_of(polytopes):
        for v in poly.vertices:
            assert monotone_under(alg, v), alg.labels


def test_supplement_law(polytopes):
    for alg, poly in states_of(polytopes):
        supp = derive_order(alg).supplement
        for v in poly.vertices:
            for p in alg.elements():
                assert v[supp[p]] == poly.denominator - v[p]


def test_separation_across_catalog(polytopes, corpus):
    for alg in upto(corpus, source="catalog"):
        sep, merged = is_separating(alg, polytopes[alg])
        assert sep, f"merged pairs on {alg.labels}: {merged}"


def test_vertices_sorted_and_distinct(polytopes):
    for alg, poly in states_of(polytopes):
        assert list(poly.vertices) == sorted(set(poly.vertices))


def test_json_vertices_exact_fractions():
    alg = catalog.chain(2)
    poly = enumerate_vertex_states(alg)
    doc = poly.to_json_list(alg)
    assert doc == [{"0": "0/1", "1/2": "1/2", "1": "1/1"}]


def test_json_fractions_over_the_least_denominator(polytopes, corpus):
    # each entry prints as Fraction(x, denominator) reduces, and no common
    # factor is left over: the denominator is the least common one
    denominators = set()
    for alg, poly in states_of(polytopes, upto(corpus, caps=CORE)):
        denominators.add(poly.denominator)
        assert gcd(poly.denominator, *(x for v in poly.vertices for x in v)) == 1
        expected = [
            {alg.labels[p]: f"{f.numerator}/{f.denominator}" for p, f in enumerate(v)}
            for v in fraction_vertices(poly)
        ]
        assert poly.to_json_list(alg) == expected, alg.labels
    assert {2, 3, 4} <= denominators
