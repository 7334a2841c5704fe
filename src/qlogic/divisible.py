"""The non-atomic interval-function model: [0,1]-valued functions on N points.

The carrier is uncountable, so it is represented intensionally: operations
act on explicit rational vectors, and the model's laws are checked on seeded
samples plus adversarial corners.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    FiniteEffectAlgebra,
    MalformedTable,
    find_isomorphism,
    from_table,
)
from .catalog import BoundExceeded, boolean_powerset, subset_carrier
from .mv import DEFAULT_SEED, SampledMV

MAX_DENOMINATOR = 24
# sharp_elements_report checks SHARP_SAMPLES functions drawn from
# random.Random(DEFAULT_SEED)
SHARP_SAMPLES = 200


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


def sample_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(1, MAX_DENOMINATOR)
    return Fraction(rng.randint(0, den), den)


def sample_function(rng: random.Random, n: int) -> IntervalFunction:
    return IntervalFunction([sample_fraction(rng) for _ in range(n)])


def lukasiewicz_rationals() -> SampledMV:
    """The [0,1] Lukasiewicz MV prototype, probed on sampled rationals."""
    return SampledMV(
        plus=luka_plus,
        neg=luka_neg,
        zero=Fraction(0),
        one=Fraction(1),
        sample=sample_fraction,
    )


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
    sampled_nonindicators_unsharp: bool
    isomorphic_to_powerset: bool | None  # None when 2^N exceeds MAX_CARRIER
    seed: int

    @property
    def passed(self) -> bool:
        return (
            self.all_indicators_sharp
            and self.closed_under_sum_and_complement
            and self.sampled_nonindicators_unsharp
            and self.isomorphic_to_powerset in (True, None)
        )


def sharp_elements_report(n: int) -> SharpElementsReport:
    """Check that the sharp elements form the expected Boolean subalgebra."""
    subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
    indicators = {s: indicator(n, s) for s in subsets}

    all_sharp = all(is_sharp_function(f) for f in indicators.values())

    closed = True
    for s in subsets:
        if not is_sharp_function(complement(indicators[s])):
            closed = False
    for s in subsets:
        for t in subsets:
            total = pointwise_sum(indicators[s], indicators[t])
            if s & t:
                if total is not None:
                    closed = False
            elif total is None or not is_sharp_function(total):
                closed = False

    rng = random.Random(DEFAULT_SEED)
    nonind_ok = True
    for _ in range(SHARP_SAMPLES):
        f = sample_function(rng, n)
        if any(0 < v < 1 for v in f.values) and is_sharp_function(f):
            nonind_ok = False

    try:
        iso = find_isomorphism(indicator_algebra(n), boolean_powerset(n)) is not None
    except BoundExceeded:
        iso = None

    return SharpElementsReport(
        n=n,
        sharp_count=len(subsets),
        all_indicators_sharp=all_sharp,
        closed_under_sum_and_complement=closed,
        sampled_nonindicators_unsharp=nonind_ok,
        isomorphic_to_powerset=iso,
        seed=DEFAULT_SEED,
    )
