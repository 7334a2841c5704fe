"""Seeded generation of random valid effect-algebra tables for property tests.

Tables are produced by composing catalog constructions at random through
catalog.construct, which reuses a construction drawn again, and then
permuting the carrier order, so every generated table is valid but its
layout is adversarial.
"""

from __future__ import annotations

import random

from .algebra import FiniteEffectAlgebra
from . import catalog


def _build(built: dict, name: str, *args):
    """catalog.construct's (spec, algebra) pair, or None past a bound."""
    try:
        return catalog.construct(built, name, *args)
    except catalog.BoundExceeded:
        return None


def _random_spec(rng: random.Random, budget: int, built: dict):
    """A random (spec, algebra) pair from _build, or None if it is too large."""
    choice = rng.randrange(6)
    if choice == 0:
        drawn = _build(built, "chain", rng.randint(1, 4))
    elif choice == 1:
        drawn = _build(built, "boolean_powerset", rng.randint(1, 3))
    elif choice == 2:
        drawn = _build(built, "mo", rng.randint(1, 3))
    elif choice == 3 and budget >= 9:
        a = _random_spec(rng, 3, built) or _build(built, "chain", 2)
        b = _random_spec(rng, budget // max(a[1].size, 1), built) or _build(
            built, "chain", 1
        )
        drawn = _build(built, "product", a, b)
    elif choice == 4 and budget >= 6:
        a = _random_spec(rng, budget - 2, built) or _build(built, "chain", 2)
        b = _random_spec(rng, budget - a[1].size + 2, built) or _build(
            built, "chain", 2
        )
        drawn = _build(built, "horizontal_sum", a, b)
    else:
        drawn = _build(built, "chain", rng.randint(1, min(4, budget - 1)))
    return drawn if drawn is not None and drawn[1].size <= budget else None


def shuffle_carrier(
    alg: FiniteEffectAlgebra, rng: random.Random
) -> FiniteEffectAlgebra:
    """The same algebra with a randomly permuted carrier order.

    A permuted valid table is valid, so it is not checked again.
    """
    order = list(alg.elements())
    rng.shuffle(order)  # new index -> old index
    new = {old: i for i, old in enumerate(order)}
    new[None] = None  # an undefined sum stays undefined
    table = tuple(tuple([new[alg.table[p][q]] for q in order]) for p in order)
    labels = tuple([alg.labels[p] for p in order])
    return FiniteEffectAlgebra(labels, new[alg.zero], new[alg.unit], table)


def random_algebra(rng: random.Random, max_size: int = 10) -> FiniteEffectAlgebra:
    """One random valid algebra with at most max_size elements."""
    return _draw(rng, max_size, {})


def random_algebras(seed: int, count: int, max_size: int = 10):
    """count random valid algebras from random.Random(seed), each a new object.

    A construction drawn again reuses the algebra built for it earlier in
    the call; only the carrier shuffle is new.
    """
    rng = random.Random(seed)
    built: dict = {}
    return [_draw(rng, max_size, built) for _ in range(count)]


def _draw(rng: random.Random, max_size: int, built: dict) -> FiniteEffectAlgebra:
    if max_size < 2:
        # refused before any draw
        raise ValueError(
            f"max_size must be at least 2, the smallest algebra's size; got {max_size}"
        )
    while True:
        drawn = _random_spec(rng, max_size, built)
        if drawn is not None:
            return shuffle_carrier(drawn[1], rng)
