"""The non-atomic interval-function model: [0,1]-valued functions on N points.

The carrier is uncountable, so it is represented intensionally: operations
act on explicit rational vectors, and the model's laws are checked
exhaustively on finite submodels, the Lukasiewicz chains and the indicator
functions.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    FiniteEffectAlgebra,
    MalformedTable,
    find_isomorphism,
    from_table,
)
from .catalog import boolean_powerset, subset_carrier
from .mv import FiniteMV

# the largest denominator of the values sharp_elements_report checks
MAX_DENOMINATOR = 24


def _as_unit_fraction(x) -> Fraction:
    f = Fraction(x)
    if not 0 <= f <= 1:
        raise AlgebraError(f"value {f} outside [0, 1]")
    return f


class IntervalFunction:
    """An exact-rational function on {1..N} with values in [0, 1].

    Immutable: it compares and hashes by its values, and assigning an
    attribute raises AttributeError.
    """

    def __init__(self, values):
        self.__dict__["values"] = tuple(_as_unit_fraction(v) for v in values)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    @property
    def domain_size(self) -> int:
        return len(self.values)

    def to_json_dict(self) -> dict:
        return {
            "n": self.domain_size,
            "values": [f"{v.numerator}/{v.denominator}" for v in self.values],
        }


def constant(n: int, value) -> IntervalFunction:
    return IntervalFunction([Fraction(value)] * n)


def indicator(n: int, support) -> IntervalFunction:
    support = set(support)
    return IntervalFunction([1 if x in support else 0 for x in range(n)])


def pointwise_sum(f: IntervalFunction, g: IntervalFunction) -> IntervalFunction | None:
    """The partial sum (f+g)(x); None where some component exceeds 1."""
    if f.domain_size != g.domain_size:
        raise AlgebraError("domain sizes differ")
    sums = [a + b for a, b in zip(f.values, g.values)]
    if any(s > 1 for s in sums):
        return None
    return IntervalFunction(sums)


def complement(f: IntervalFunction) -> IntervalFunction:
    return IntervalFunction([1 - v for v in f.values])


def outer(f: IntervalFunction, g: IntervalFunction) -> IntervalFunction:
    """The tensor-side element f(x) * g(y) on N x N points, (x, y) at x*N + y."""
    if f.domain_size != g.domain_size:
        raise AlgebraError("domain sizes differ")
    return IntervalFunction([a * b for a in f.values for b in g.values])


def diagonal_clone(F: IntervalFunction) -> IntervalFunction:
    """Restriction of a function on N x N points to the diagonal: the cloning map."""
    n = math.isqrt(F.domain_size)
    if n * n != F.domain_size:
        raise AlgebraError(f"domain size {F.domain_size} is not a square")
    return IntervalFunction([F.values[x * n + x] for x in range(n)])


def product_bimorphism(f: IntervalFunction, g: IntervalFunction) -> IntervalFunction:
    """Pointwise product: the diagonal clone of the outer product of f and g."""
    if f.domain_size != g.domain_size:
        raise AlgebraError("domain sizes differ")
    return IntervalFunction([a * b for a, b in zip(f.values, g.values)])


def is_sharp_function(f: IntervalFunction) -> bool:
    # the order is pointwise, so the meet with the complement is pointwise min
    return all(min(v, 1 - v) == 0 for v in f.values)


def luka_plus(a, b) -> Fraction:
    return min(Fraction(a) + Fraction(b), Fraction(1))


def luka_neg(a) -> Fraction:
    return 1 - Fraction(a)


def lukasiewicz_chain(d: int) -> FiniteMV:
    """The Lukasiewicz chain L_d = {0, 1/d, ..., 1}, its tables read off
    luka_plus and luka_neg.

    By Chang's completeness theorem an MV identity holds in [0, 1] iff it
    holds in every L_d, so check_mv_axioms on these chains checks the
    Fraction operations themselves.  A sum or complement that leaves L_d
    raises KeyError.
    """
    elements = tuple(Fraction(k, d) for k in range(d + 1))
    pos = {v: i for i, v in enumerate(elements)}
    P = tuple(tuple([pos[luka_plus(a, b)] for b in elements]) for a in elements)
    N = tuple(pos[luka_neg(a)] for a in elements)
    return FiniteMV(elements, P, N, 0, d)


def indicator_algebra(n: int) -> FiniteEffectAlgebra:
    """The {0,1}-valued elements with the inherited (disjoint-support) sums."""
    masks, label = subset_carrier(n, "indicator_algebra")
    labels = tuple(map(label, masks))
    funcs = [indicator(n, [i for i in range(n) if m >> i & 1]) for m in masks]
    pos = {f: i for i, f in enumerate(funcs)}
    rows = []
    for p, f in enumerate(funcs):
        row = []
        for q, g in enumerate(funcs):
            s = pointwise_sum(f, g)
            if s is not None and s not in pos:
                raise MalformedTable(f"{labels[p]}(+){labels[q]} is not an indicator")
            row.append(None if s is None else pos[s])
        rows.append(row)
    return from_table(labels, 0, len(masks) - 1, rows)


class SharpElementsReport(NamedTuple):
    n: int
    sharp_count: int
    all_indicators_sharp: bool
    closed_under_sum_and_complement: bool
    nonindicators_unsharp: bool
    isomorphic_to_powerset: bool

    @property
    def passed(self) -> bool:
        return (
            self.all_indicators_sharp
            and self.closed_under_sum_and_complement
            and self.nonindicators_unsharp
            and self.isomorphic_to_powerset
        )


def sharp_elements_report(n: int) -> SharpElementsReport:
    """Check that the sharp functions on n points are the indicators and
    form the Boolean algebra of subsets of the n points.

    indicator_algebra(n) refuses n past the carrier cap with BoundExceeded
    before any indicator is formed.  Building it is the closure check: it
    raises MalformedTable on a sum that leaves the indicators, and
    from_table raises SupplementMissing on an indicator whose complement is
    not one, so a returned report is closed.  is_sharp_function is a
    conjunction over points, so a function with values of denominator at
    most MAX_DENOMINATOR is sharp iff each value is; those values are
    checked one at a time.
    """
    alg = indicator_algebra(n)
    supports = [{i for i in range(n) if m >> i & 1} for m in range(1 << n)]
    denominators = range(1, MAX_DENOMINATOR + 1)
    values = {Fraction(k, d) for d in denominators for k in range(d + 1)}
    return SharpElementsReport(
        n=n,
        sharp_count=alg.size,
        all_indicators_sharp=all(is_sharp_function(indicator(n, s)) for s in supports),
        closed_under_sum_and_complement=True,
        nonindicators_unsharp=not any(
            is_sharp_function(IntervalFunction([v])) for v in values - {0, 1}
        ),
        isomorphic_to_powerset=find_isomorphism(alg, boolean_powerset(n)) is not None,
    )
