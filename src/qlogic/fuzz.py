"""Seeded generation of random valid effect-algebra tables for property tests.

Tables are produced by composing catalog constructors at random and then
permuting the carrier order, so every generated table is valid but its
layout is adversarial.
"""

from __future__ import annotations

import random

from .algebra import FiniteEffectAlgebra
from . import catalog


def _random_spec(rng: random.Random, budget: int) -> FiniteEffectAlgebra | None:
    choice = rng.randrange(6)
    if choice == 0:
        alg = catalog.chain(rng.randint(1, 4))
    elif choice == 1:
        alg = catalog.boolean_powerset(rng.randint(1, 3))
    elif choice == 2:
        alg = catalog.mo(rng.randint(1, 3))
    elif choice == 3 and budget >= 9:
        a = _random_spec(rng, 3) or catalog.chain(2)
        b = _random_spec(rng, budget // max(a.size, 1)) or catalog.chain(1)
        try:
            alg = catalog.product(a, b)
        except catalog.BoundExceeded:
            return None
    elif choice == 4 and budget >= 6:
        a = _random_spec(rng, budget - 2) or catalog.chain(2)
        b = _random_spec(rng, budget - a.size + 2) or catalog.chain(2)
        try:
            alg = catalog.horizontal_sum(a, b)
        except catalog.BoundExceeded:
            return None
    else:
        alg = catalog.chain(rng.randint(1, min(4, budget - 1)))
    return alg if alg.size <= budget else None


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
    if max_size < 2:
        # refused before any draw
        raise ValueError(
            f"max_size must be at least 2, the smallest algebra's size; got {max_size}"
        )
    while True:
        alg = _random_spec(rng, max_size)
        if alg is not None:
            return shuffle_carrier(alg, rng)


def random_algebras(seed: int, count: int, max_size: int = 10):
    rng = random.Random(seed)
    return [random_algebra(rng, max_size) for _ in range(count)]
