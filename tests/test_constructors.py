"""The constructors that write index rows for from_table.

Each is checked against a label-triple oracle, which writes every defined
sum out as a label triple for validate to parse; for the carrier shuffle
the oracle lists the labels in a hand-permuted order.  The constructors
must give the same labels, zero, unit and table.  The rest pins the order
of refusals: from_table and indicator_algebra refuse a bad carrier before
they read a row or take a sum, and indicator_algebra refuses a sum that
is no element of its carrier.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from qlogic import catalog, divisible
from qlogic.algebra import (
    AlgebraError,
    MalformedTable,
    derive_order,
    from_table,
    validate,
)
from qlogic.cloning import find_cloning_bimorphism
from qlogic.divisible import (
    IntervalFunction,
    indicator,
    indicator_algebra,
    pointwise_sum,
)
from qlogic.fuzz import shuffle_carrier
from qlogic.mv import effect_algebra_of_mv, hidden_variable_construct
from corpus import bench_components, luka_chain, upto


def fields(alg):
    return alg.labels, alg.zero, alg.unit, alg.table


def set_label(n, m):
    return "{" + ",".join(str(i + 1) for i in range(n) if m >> i & 1) + "}"


def masks_by_size(n):
    return sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))


def powerset_by_triples(k):
    masks = masks_by_size(k)
    sums = [
        [set_label(k, a), set_label(k, b), set_label(k, a | b)]
        for a in masks
        for b in masks
        if a & b == 0
    ]
    labels = [set_label(k, m) for m in masks]
    return validate(labels, set_label(k, 0), set_label(k, (1 << k) - 1), sums)


def chain_by_triples(d):
    def label(k):
        return "0" if k == 0 else "1" if k == d else f"{k}/{d}"

    sums = [
        [label(a), label(b), label(a + b)]
        for a in range(d + 1)
        for b in range(d + 1)
        if a + b <= d
    ]
    return validate([label(k) for k in range(d + 1)], "0", "1", sums)


def product_by_triples(*components):
    def label(tup):
        return "(" + ",".join(c.labels[p] for c, p in zip(components, tup)) + ")"

    elems = list(iproduct(*(range(c.size) for c in components)))
    sums = []
    for a in elems:
        for b in elems:
            cs = [comp.table[x][y] for comp, x, y in zip(components, a, b)]
            if all(c is not None for c in cs):
                sums.append([label(a), label(b), label(tuple(cs))])
    zero = label(tuple(c.zero for c in components))
    unit = label(tuple(c.unit for c in components))
    return validate([label(t) for t in elems], zero, unit, sums)


def horizontal_sum_by_triples(*components):
    labels = ["0", "1"]
    maps = []
    for k, comp in enumerate(components, start=1):
        m = {}
        for p in comp.elements():
            if p == comp.zero:
                m[p] = "0"
            elif p == comp.unit:
                m[p] = "1"
            else:
                m[p] = f"{k}:{comp.labels[p]}"
                labels.append(m[p])
        maps.append(m)
    sums = []
    for comp, m in zip(components, maps):
        for p in comp.elements():
            for q in comp.elements():
                c = comp.table[p][q]
                if c is not None:
                    sums.append([m[p], m[q], m[c]])
    return validate(labels, "0", "1", sums)


def indicators_by_triples(n):
    masks = masks_by_size(n)
    sums = []
    for a in masks:
        for b in masks:
            fa = indicator(n, {i for i in range(n) if a >> i & 1})
            fb = indicator(n, {i for i in range(n) if b >> i & 1})
            s = pointwise_sum(fa, fb)
            if s is not None:
                c = sum(1 << i for i in range(n) if s.values[i] == 1)
                sums.append([set_label(n, a), set_label(n, b), set_label(n, c)])
    labels = [set_label(n, m) for m in masks]
    return validate(labels, set_label(n, 0), set_label(n, (1 << n) - 1), sums)


def mv_by_triples(mv):
    labels = [str(e) for e in mv.elements]
    P, N = mv.P, mv.N
    sums = [
        [labels[a], labels[b], labels[P[a][b]]]
        for a in range(len(labels))
        for b in range(len(labels))
        # a <= b' in the MV order: a' + b' = 1
        if P[N[a]][N[b]] == mv.one
    ]
    return validate(labels, labels[mv.zero], labels[mv.one], sums)


def shuffle_by_permutation(alg, rng):
    perm = list(range(alg.size))
    rng.shuffle(perm)  # new index -> old index
    lbl = alg.labels
    sums = [
        [lbl[p], lbl[q], lbl[alg.table[p][q]]]
        for p in alg.elements()
        for q in alg.elements()
        if alg.table[p][q] is not None
    ]
    return validate([lbl[old] for old in perm], lbl[alg.zero], lbl[alg.unit], sums)


def test_powerset_matches_label_triples():
    for k in range(1, 7):
        assert fields(catalog.boolean_powerset(k)) == fields(powerset_by_triples(k))


def test_chain_matches_label_triples():
    for d in range(1, 64):
        assert fields(catalog.chain(d)) == fields(chain_by_triples(d))


def test_indicator_algebra_matches_label_triples():
    for n in range(1, 7):
        assert fields(indicator_algebra(n)) == fields(indicators_by_triples(n))


def test_product_matches_label_triples(corpus):
    pool = upto(corpus, 6, source="catalog")
    for a in pool:
        for b in pool:
            assert fields(catalog.product(a, b)) == fields(product_by_triples(a, b))
    # three factors fold the table twice; the bench's bp(2)^3 has 64 elements
    for abc in iproduct(upto(corpus, 4, source="catalog"), repeat=3):
        if abc[0].size * abc[1].size * abc[2].size <= 32:
            assert fields(catalog.product(*abc)) == fields(product_by_triples(*abc))
    for comps in bench_components("product"):
        assert fields(catalog.product(*comps)) == fields(product_by_triples(*comps))


def test_horizontal_sum_matches_label_triples(corpus):
    pool = upto(corpus, 6, source="catalog")
    for a in pool:
        for b in pool:
            got = catalog.horizontal_sum(a, b)
            assert fields(got) == fields(horizontal_sum_by_triples(a, b))
    for comps in bench_components("horizontal_sum"):
        got = catalog.horizontal_sum(*comps)
        assert fields(got) == fields(horizontal_sum_by_triples(*comps))


def test_shuffle_carrier_matches_permuted_table(corpus):
    for alg in upto(corpus, source="catalog"):
        for seed in range(20):
            got = shuffle_carrier(alg, random.Random(seed))
            expected = shuffle_by_permutation(alg, random.Random(seed))
            assert fields(got) == fields(expected)


def hidden_variable_mv(k):
    alg = catalog.boolean_powerset(k)
    witness = find_cloning_bimorphism(alg).witnesses[0]
    return hidden_variable_construct(alg, witness, derive_order(alg).atoms).mv


def test_effect_algebra_of_mv_matches_label_triples(models):
    mvs = [luka_chain(steps) for steps in range(1, 5)]
    mvs += [hidden_variable_mv(k) for k in range(1, 4)]
    # the product carriers of the corpus's hidden-variable models
    mvs += [model.mv for model, _ in models]
    for mv in mvs:
        assert fields(effect_algebra_of_mv(mv)) == fields(mv_by_triples(mv))


def test_indicator_algebra_refuses_a_non_indicator_sum(monkeypatch):
    # {1} + {2} comes back half-valued: no element of the carrier, so the
    # constructor must not round it to one
    a, b = indicator(2, [0]), indicator(2, [1])

    def half_sum(f, g):
        if (f, g) == (a, b):
            return IntervalFunction([Fraction(1, 2), 1])
        return pointwise_sum(f, g)

    monkeypatch.setattr(divisible, "pointwise_sum", half_sum)
    with pytest.raises(MalformedTable, match=r"\{1\}\(\+\)\{2\} is not an indicator"):
        indicator_algebra(2)


def counting(fn):
    def wrapped(*args):
        wrapped.calls += 1
        return fn(*args)

    wrapped.calls = 0
    return wrapped


def unread_rows():
    pytest.fail("from_table read the rows of a carrier it refuses")
    yield


@pytest.mark.parametrize(
    "labels, message",
    [
        (tuple(map(str, range(65))), "carrier size 65 exceeds cap 64"),
        (("0", "x", "x"), "labels are not pairwise distinct"),
    ],
    ids=["65-labels", "repeated-labels"],
)
def test_from_table_refuses_bad_carrier_before_reading_rows(labels, message):
    with pytest.raises(MalformedTable, match=message):
        from_table(labels, 0, len(labels) - 1, unread_rows())


def test_indicator_algebra_refuses_oversize_before_any_sum(monkeypatch):
    calls = counting(divisible.pointwise_sum)
    monkeypatch.setattr(divisible, "pointwise_sum", calls)
    with pytest.raises(AlgebraError, match="cap 64"):
        indicator_algebra(7)
    assert calls.calls == 0
    indicator_algebra(2)  # the counter does see the sums
    assert calls.calls == 16
