"""MV-algebras, the MV -> effect-algebra view, and hidden-variable models.

The hidden-variable construction takes an effect algebra with a cloning
witness and a decomposition of the unit into parts whose lower intervals are
totally ordered and sum-closed.  Each interval carries a truncated-sum MV
structure; their product is the hidden-variable carrier, and the witness
rows at the parts give the embedding h.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iproduct
from math import lcm
from operator import mul

from .algebra import (
    AlgebraError,
    ElementId,
    FiniteEffectAlgebra,
    derive_order,
    is_sharp,
    tabulate,
)
from .cloning import CloningWitness, verify_witness
from .states import StatePolytope, check_state

DEFAULT_SEED = 20260823
# verify_hidden_variable draws mixture weights from 1..MAX_MIXTURE_WEIGHT
MAX_MIXTURE_WEIGHT = 12


class ConstructionFailed(AlgebraError):
    pass


class FiniteMV:
    """A finite MV carrier with explicit operation tables.

    Elements may be any hashable values (interval ElementIds, tuples, ...).
    """

    def __init__(self, elements, plus_map, neg_map, zero, one):
        self.elements = tuple(elements)
        self.plus_map = plus_map
        self.neg_map = neg_map
        self.zero = zero
        self.one = one

    def plus(self, a, b):
        return self.plus_map[(a, b)]

    def neg(self, a):
        return self.neg_map[a]

    def leq(self, a, b) -> bool:
        # the MV order: a <= b iff a' + b = 1
        return self.plus(self.neg(a), b) == self.one


class SampledMV:
    """An MV carrier too large to enumerate, probed through a seeded sampler."""

    def __init__(self, plus, neg, zero, one, sample):
        self.plus = plus
        self.neg = neg
        self.zero = zero
        self.one = one
        self.sample = sample
        self.elements = None


@dataclass(frozen=True)
class MVReport:
    passed: bool
    mode: str  # "exhaustive" | "sampled"
    triples_checked: int
    violations: tuple[str, ...]
    seed: int | None = None


def check_mv_axioms(carrier, sample_budget: int = 1000, seed: int = DEFAULT_SEED) -> MVReport:
    """Verify the eight MV identities, exhaustively or on sampled triples.

    Each instance is checked once; sampled mode takes its elements and
    pairs from the first components of the sampled triples.
    """
    plus, neg, zero, one = carrier.plus, carrier.neg, carrier.zero, carrier.one
    if carrier.elements is not None:
        mode, seed, elems = "exhaustive", None, carrier.elements
        pairs = iproduct(elems, repeat=2)
        triples, count = iproduct(elems, repeat=3), len(elems) ** 3
    else:
        mode, rng, count = "sampled", random.Random(seed), sample_budget
        triples = dict.fromkeys(
            (carrier.sample(rng), carrier.sample(rng), carrier.sample(rng))
            for _ in range(sample_budget)
        )
        pairs = dict.fromkeys(t[:2] for t in triples)
        elems = dict.fromkeys(t[0] for t in triples)
    violations = [] if neg(zero) == one else ["0' != 1"]
    for a in elems:
        if plus(a, neg(a)) != one:
            violations.append(f"a + a' != 1 at {a}")
        if plus(a, zero) != a:
            violations.append(f"a + 0 != a at {a}")
        if neg(neg(a)) != a:
            violations.append(f"a'' != a at {a}")
        if plus(a, one) != one:
            violations.append(f"a + 1 != 1 at {a}")
    for a, b in pairs:
        if plus(a, b) != plus(b, a):
            violations.append(f"commutativity fails on ({a}, {b})")
        if plus(neg(plus(neg(a), b)), b) != plus(neg(plus(a, neg(b))), a):
            violations.append(f"(a'+b)'+b != (a+b')'+a on ({a}, {b})")
    for a, b, c in triples:
        if plus(plus(a, b), c) != plus(a, plus(b, c)):
            violations.append(f"associativity fails on ({a}, {b}, {c})")
    return MVReport(
        passed=not violations,
        mode=mode,
        triples_checked=count,
        violations=tuple(violations),
        seed=seed,
    )


def effect_algebra_of_mv(mv: FiniteMV) -> FiniteEffectAlgebra:
    """The induced effect algebra: a + b kept only when a <= b' in the MV order."""

    def plus(a, b):
        return mv.plus(a, b) if mv.leq(a, mv.neg(b)) else None

    return tabulate(mv.elements, mv.zero, mv.one, plus, label=str)


# ---------------------------------------------------------------------------
# Chain decompositions of the unit


def chain_interval(alg: FiniteEffectAlgebra, p: ElementId) -> list[ElementId] | None:
    """[0, p] in increasing order; None unless it is totally ordered and
    closed under the inherited partial sum."""
    lo = derive_order(alg).leq
    interval = [x for x in alg.elements() if lo[x][p]]
    for x in interval:
        for y in interval:
            if not (lo[x][y] or lo[y][x]):
                return None
            s = alg.table[x][y]
            if s is not None and not lo[s][p]:
                return None
    # on a chain, the size of each down-set gives the order
    return sorted(interval, key=lambda x: sum(lo[y][x] for y in interval))


def find_chain_decomposition(
    alg: FiniteEffectAlgebra,
) -> list[tuple[ElementId, ...]]:
    """All multisets {p_n} of chain-ideal parts with total sum 1."""
    candidates = [p for p in alg.elements() if p != alg.zero and chain_interval(alg, p)]
    results: list[tuple[ElementId, ...]] = []
    # (parts so far, their sum, first candidate index still allowed); the
    # order of the walk does not matter because the results are sorted
    stack: list[tuple[tuple[ElementId, ...], ElementId, int]] = [((), alg.zero, 0)]
    while stack:
        parts, acc, start = stack.pop()
        for i in range(start, len(candidates)):
            c = candidates[i]
            s = alg.table[acc][c]
            if s is None:
                continue
            if s == alg.unit:
                results.append(parts + (c,))
            else:
                stack.append((parts + (c,), s, i))
    results.sort(key=lambda t: (len(t), t))
    return results


# ---------------------------------------------------------------------------
# Hidden-variable construction


@dataclass(frozen=True)
class HiddenVariableModel:
    algebra: FiniteEffectAlgebra
    components: tuple[FiniteMV, ...]  # interval_mv of each part, in part order
    mv: FiniteMV
    h: dict  # ElementId -> tuple of interval ElementIds
    induced: FiniteEffectAlgebra  # effect_algebra_of_mv(mv), built once

    def to_json_dict(self) -> dict:
        labels = self.algebra.labels
        return {
            "decomposition": [labels[c.one] for c in self.components],
            "h": {
                labels[x]: [labels[c] for c in img]
                for x, img in sorted(self.h.items())
            },
            "components": [
                {"part": labels[c.one], "interval": [labels[x] for x in c.elements]}
                for c in self.components
            ],
        }


def interval_mv(alg: FiniteEffectAlgebra, p: ElementId) -> FiniteMV:
    """Truncated-sum MV structure on the chain ideal [0, p]."""
    interval = chain_interval(alg, p)
    if interval is None:
        raise ConstructionFailed(
            f"[0, {alg.labels[p]}] is not a totally ordered sum-closed interval"
        )
    # [0, p] is sum-closed, so only an undefined sum truncates to p
    t = alg.table
    plus_map = {
        (x, y): p if t[x][y] is None else t[x][y] for x in interval for y in interval
    }
    # the complement p - x of each x <= p lies in [0, p]
    difference = derive_order(alg).difference
    neg_map = {x: difference[x][p] for x in interval}
    return FiniteMV(interval, plus_map, neg_map, zero=alg.zero, one=p)


def product_mv(components: list[FiniteMV]) -> FiniteMV:
    elements = tuple(iproduct(*(c.elements for c in components)))
    plus_map = {}
    for a in elements:
        for b in elements:
            plus_map[(a, b)] = tuple(
                c.plus(x, y) for c, x, y in zip(components, a, b)
            )
    neg_map = {a: tuple(c.neg(x) for c, x in zip(components, a)) for a in elements}
    return FiniteMV(
        elements=elements,
        plus_map=plus_map,
        neg_map=neg_map,
        zero=tuple(c.zero for c in components),
        one=tuple(c.one for c in components),
    )


def hidden_variable_construct(
    alg: FiniteEffectAlgebra,
    witness: CloningWitness,
    decomposition,
) -> HiddenVariableModel:
    """Build and fully verify the product-of-intervals hidden-variable model."""
    parts = tuple(decomposition)
    ok, violation = verify_witness(alg, witness.table)
    if not ok:
        raise ConstructionFailed(f"witness fails verification: {violation}")

    total = _orthosum(alg, parts)
    if total is None:
        raise ConstructionFailed("decomposition parts are not summable")
    if total != alg.unit:
        raise ConstructionFailed("decomposition does not sum to the unit")
    for p in parts:
        if not is_sharp(alg, p):
            raise ConstructionFailed(f"part {alg.labels[p]} is not sharp")

    components = [interval_mv(alg, p) for p in parts]
    mv = product_mv(components)
    axioms = check_mv_axioms(mv)
    if not axioms.passed:
        raise ConstructionFailed(
            f"product carrier violates the MV axioms: {axioms.violations[0]}"
        )

    h = {
        x: tuple(witness.table[p][x] for p in parts) for x in alg.elements()
    }
    mv_elems = set(mv.elements)
    for x, img in h.items():
        if img not in mv_elems:
            raise ConstructionFailed(
                f"h({alg.labels[x]}) leaves the product carrier"
            )
    if len(set(h.values())) != alg.size:
        raise ConstructionFailed("h is not injective")
    if len(mv.elements) != alg.size:
        raise ConstructionFailed("h is not a bijection onto the product carrier")
    # mv.plus passed the exhaustive commutativity check above, so a failing
    # pair fails in both orders and the first one found has x <= y
    for x, y, s in derive_order(alg).sums:
        if h[s] != mv.plus(h[x], h[y]):
            raise ConstructionFailed(
                f"h is not additive on ({alg.labels[x]}, {alg.labels[y]})"
            )
    return HiddenVariableModel(
        algebra=alg, components=tuple(components), mv=mv, h=h,
        induced=effect_algebra_of_mv(mv),
    )


def order_reflection_holds(model: HiddenVariableModel) -> bool:
    """x <= y' in the source iff h(x) <= h(y)' in the MV order, exhaustively."""
    alg = model.algebra
    order = derive_order(alg)
    mv, h = model.mv, model.h
    for x in alg.elements():
        for y in alg.elements():
            src = order.leq[x][order.supplement[y]]
            tgt = mv.leq(h[x], mv.neg(h[y]))
            if src != tgt:
                return False
    return True


def _orthosum(alg: FiniteEffectAlgebra, parts) -> ElementId | None:
    """The sum of parts, added left to right, or None where it is undefined."""
    acc = alg.zero
    for p in parts:
        acc = alg.table[acc][p]
        if acc is None:
            return None
    return acc


def _lift_index(model: HiddenVariableModel) -> list[ElementId]:
    """For each MV element, in carrier order, the source sum of its components."""
    out = [_orthosum(model.algebra, m) for m in model.mv.elements]
    if None in out:
        raise ConstructionFailed(
            "component tuple is not orthosummable in the source algebra"
        )
    return out


def check_lifted_state(
    model: HiddenVariableModel, omega, omega_bar, scale=1
) -> list[str]:
    """Hidden-variable conditions for one state and one candidate lift.

    omega and omega_bar may both be scaled by a common positive factor; scale
    is then the value a state takes at the unit.
    """
    violations = []
    alg = model.algebra
    for q in alg.elements():
        if omega_bar[model.h[q]] != omega[q]:
            violations.append(
                f"lifted state disagrees with the source state at {alg.labels[q]}"
            )
    values = [omega_bar[e] for e in model.mv.elements]
    for msg in check_state(model.induced, values, scale):
        violations.append(f"lift is not a state on the MV effect algebra: {msg}")
    return violations


@dataclass(frozen=True)
class HiddenVariableReport:
    passed: bool
    states_checked: int
    mixtures_checked: int
    order_reflection: bool
    violations: tuple[str, ...]
    seed: int

    def to_json_dict(self) -> dict:
        # the report's keys are the fields, in their order
        return {**vars(self), "violations": list(self.violations)}


def verify_hidden_variable(
    model: HiddenVariableModel,
    polytope: StatePolytope,
    mixtures: int = 100,
    seed: int = DEFAULT_SEED,
) -> HiddenVariableReport:
    """Check the lift conditions on every vertex state plus random mixtures.

    The state with integer weights w (a unit vector for a vertex) is the int
    vector sum(w_i * L*V_i) at scale L*sum(w), L the vertices' common
    denominator.  With no negative entry, one check covers all states:
    state j is bits [j*width, (j+1)*width) of one int per element.  With k
    vertices a value is at most MAX_MIXTURE_WEIGHT * k * max(L, largest
    entry), and a lane holds twice that, so any value or sum of two fits its
    lane.  A failure is rechecked per state.
    """
    common = lcm(*(x.denominator for v in polytope.vertices for x in v))
    vertices = [
        [x.numerator * (common // x.denominator) for x in v]
        for v in polytope.vertices
    ]
    k = len(vertices)
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    rng = random.Random(seed)
    if vertices:
        rows += [
            [rng.randint(1, MAX_MIXTURE_WEIGHT) for _ in vertices]
            for _ in range(mixtures)
        ]
    violations: list[str] = []
    if rows:
        lift = _lift_index(model)
        columns = list(zip(*vertices))
        batches = [rows]
        if min(map(min, vertices)) >= 0:
            top = max(common, *map(max, vertices))
            width = (2 * MAX_MIXTURE_WEIGHT * k * top).bit_length()
            packed = [sum(x << j * width for j, x in enumerate(c)) for c in zip(*rows)]
            batches.insert(0, [packed])
        for batch in batches:
            violations = []
            for w in batch:
                omega = [sum(map(mul, w, column)) for column in columns]
                omega_bar = dict(zip(model.mv.elements, [omega[x] for x in lift]))
                violations += check_lifted_state(model, omega, omega_bar, common * sum(w))
            if not violations:
                break
    reflection = order_reflection_holds(model)
    if not reflection:
        violations.append("order reflection of h fails")
    return HiddenVariableReport(
        passed=not violations,
        states_checked=k,
        mixtures_checked=len(rows) - k,
        order_reflection=reflection,
        violations=tuple(violations),
        seed=seed,
    )
