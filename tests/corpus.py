"""The one test corpus, the fixtures it is built from, and shared helpers.

`build_corpus` builds every algebra the property tests and the test-only
oracles run on, once per session (the `corpus` fixture in conftest.py):

- the catalog: powersets bp(1)..bp(4), chains of 2..4 steps, mo(1)..mo(3),
  the Wright triangle, chain(2) x chain(2) and bp(2) (+) bp(2);
- constructions: grid(3, 3), the complete quadrilateral, the two padded
  grids, and two pastings with no states: grid(3, 4) and stateless_pasting();
- fuzz: random_algebras(seed, 500) for seeds 1, 7 and 202, and
  random_algebras(202, 30, max_size=16);
- pastings: the valid Greechie pastings among 500 random block lists of each
  of seeds 1 and 7, and among 100 of seed 3.

Each entry is a `Fixture(source, draw, alg)`.  The corpus is sorted by size
(stably, so each size keeps the order above), so a failed comparison names
the smallest algebra first.  An oracle runs on the whole corpus or on a slice
stated next to it; test_corpus_is_pinned fixes the counts and the documents.
"""

import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from qlogic import catalog
from qlogic.algebra import FiniteEffectAlgebra, ValidationError
from qlogic.cloning import find_cloning_bimorphism
from qlogic.divisible import MAX_DENOMINATOR, IntervalFunction
from qlogic.fuzz import random_algebras
from qlogic.mv import FiniteMV, find_chain_decomposition, hidden_variable_construct
from qlogic.states import EmptyStateSpace, StatePolytope, enumerate_vertex_states

FUZZ_DRAWS = ((1, 500, 10), (7, 500, 10), (202, 500, 10), (202, 30, 16))
PASTING_DRAWS = ((1, 500), (7, 500), (3, 100))


class Fixture(NamedTuple):
    # "catalog", "construction", "fuzz(seed, count, max_size)" or
    # "pastings(seed, draws)"
    source: str
    draw: int  # the fixture's place in its source
    alg: FiniteEffectAlgebra


def grid(r, c):
    """Greechie pasting of r row blocks and c column blocks over atoms x_ij.

    Its states are the weights with every row and every column summing to 1:
    the r x r doubly stochastic matrices when r == c, and none otherwise.
    """
    rows = [tuple(f"x{i}{j}" for j in range(c)) for i in range(r)]
    columns = [tuple(f"x{i}{j}" for i in range(r)) for j in range(c)]
    return catalog.pasting(rows + columns)


def complete_quadrilateral():
    """Four 3-atom blocks on six atoms, each atom in two of them (n = 14)."""
    return catalog.pasting(
        [("p", "q", "r"), ("p", "s", "t"), ("q", "s", "u"), ("r", "t", "u")]
    )


def stateless_pasting():
    """A coherent 58-element pasting whose atom weights are forced negative.

    The five 3-atom blocks c_j* partition 15 atoms, so a state's weights on
    them sum to 5.  The four 4-atom blocks partition the same 15 atoms and z,
    so those weights sum to 4, which forces w(z) = -1.
    """
    rows = [tuple(f"c{j}{i}" for i in range(3)) for j in range(5)]
    columns = [
        ("c10", "c20", "c30", "c40"),
        ("c00", "c21", "c31", "c41"),
        ("c01", "c11", "c32", "c42"),
        ("c02", "c12", "c22", "z"),
    ]
    return catalog.pasting(rows + columns)


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


def random_pasting_blocks(rng):
    """Up to 5 blocks of 2-4 atoms from a pool of 3-9, pairwise sharing <= 1."""
    pool = [f"x{i}" for i in range(rng.randint(3, 9))]
    blocks = []
    for _ in range(rng.randint(1, 5)):
        block = tuple(rng.sample(pool, rng.randint(2, min(4, len(pool)))))
        if all(len(set(block) & set(other)) <= 1 for other in blocks):
            blocks.append(block)
    return blocks


def random_pastings(seed, draws):
    """The valid Greechie pastings among draws random block lists."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        try:
            out.append(catalog.pasting(random_pasting_blocks(rng)))
        except ValidationError:
            pass
    return out


def build_corpus():
    bp2 = catalog.boolean_powerset(2)
    sources = {
        "catalog": [catalog.boolean_powerset(k) for k in (1, 2, 3, 4)]
        + [catalog.chain(d) for d in (2, 3, 4)]
        + [catalog.mo(n) for n in (1, 2, 3)]
        + [
            catalog.wright_triangle(),
            catalog.product(catalog.chain(2), catalog.chain(2)),
            catalog.horizontal_sum(bp2, bp2),
        ],
        "construction": [
            grid(3, 3),
            complete_quadrilateral(),
            padded_grid(3, lead=False),
            padded_grid(2, lead=True),
            grid(3, 4),
            stateless_pasting(),
        ],
    }
    for seed, count, max_size in FUZZ_DRAWS:
        sources[f"fuzz({seed}, {count}, {max_size})"] = random_algebras(seed, count, max_size)
    for seed, draws in PASTING_DRAWS:
        sources[f"pastings({seed}, {draws})"] = random_pastings(seed, draws)
    fixtures = [
        Fixture(source, i, alg)
        for source, algs in sources.items()
        for i, alg in enumerate(algs)
    ]
    return tuple(sorted(fixtures, key=lambda f: f.alg.size))


def leq_table(alg):
    """p <= q as a table of bools, read off the sum table: p <= q iff some r
    has p + r = q."""
    return [[q in row for q in alg.elements()] for row in alg.table]


def upto(corpus, max_size=64, caps=None, source=None):
    """The corpus algebras of at most max_size elements, in corpus order.

    caps maps a source, or a kind ("fuzz", "pastings"), to the number of its
    fixtures kept, its first draws; source keeps one source or kind only.
    """
    caps = caps or {}
    out = []
    for src, draw, alg in corpus:
        kind = src.partition("(")[0]
        if alg.size <= max_size and source in (None, src, kind):
            if draw < caps.get(src, caps.get(kind, draw + 1)):
                out.append(alg)
    return out


# the benchmark's five carriers of 33 to 64 elements, each as the catalog
# constructor's name and the specs of its components
BENCH_CARRIERS = (
    ("horizontal_sum", ("boolean_powerset(5)",) * 2),
    ("product", ("boolean_powerset(3)", "chain(5)")),
    ("product", ("boolean_powerset(2)",) * 3),
    ("product", ("mo(2)",) * 2),
    ("horizontal_sum", ("mo(6)", "boolean_powerset(5)", "wright_triangle()")),
)


def bench_components(name):
    """The component lists of the benchmark carriers built by constructor name."""
    return [
        [catalog.build_spec(spec) for spec in specs]
        for built_by, specs in BENCH_CARRIERS
        if built_by == name
    ]


# the slice for oracles too slow for the whole corpus: the catalog, the
# constructions, the first 100 draws of each fuzz source (all of
# random_algebras(202, 30, 16)), and the pastings of seed 3 only
CORE = {"fuzz": 100, "pastings(1, 500)": 0, "pastings(7, 500)": 0}


def luka_chain(steps):
    """Lukasiewicz structure on {0, 1/steps, ..., 1} with truncated sum."""
    ks = range(steps + 1)
    P = tuple(tuple(min(i + j, steps) for j in ks) for i in ks)
    N = tuple(steps - i for i in ks)
    return FiniteMV(tuple(Fraction(k, steps) for k in ks), P, N, 0, steps)


def sample_fraction(rng):
    """A value k/d in [0, 1], d drawn from 1..MAX_DENOMINATOR."""
    den = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(0, den), den)


def sample_function(rng, n):
    return IntervalFunction([sample_fraction(rng) for _ in range(n)])


def hidden_variable_models(algebras):
    """(model, polytope) for each algebra with a witness and a decomposition."""
    out = []
    for alg in algebras:
        outcome = find_cloning_bimorphism(alg)
        decomps = find_chain_decomposition(alg) if outcome.witnesses else []
        if decomps:
            model = hidden_variable_construct(alg, outcome.witnesses[0], decomps[0])
            out.append((model, enumerate_vertex_states(alg)))
    return out


def integer_polytope(vertices, affine_dimension):
    """The StatePolytope of vertex states given as Fractions, in their order:
    integer rows over the least common denominator."""
    den = lcm(*(Fraction(x).denominator for v in vertices for x in v))
    rows = tuple(tuple(int(x * den) for x in v) for v in vertices)
    return StatePolytope(den, rows, affine_dimension)


def fraction_vertices(poly):
    """The vertex states of poly, each a tuple of Fractions."""
    return [tuple(Fraction(x, poly.denominator) for x in v) for v in poly.vertices]


def polytope_or_message(enumerate_states, alg):
    try:
        return enumerate_states(alg)
    except EmptyStateSpace as exc:
        return str(exc)
