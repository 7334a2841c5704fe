"""MV-algebras, the MV -> effect-algebra view, and hidden-variable models.

The hidden-variable construction takes an effect algebra with a cloning
witness and a decomposition of the unit into parts whose lower intervals are
totally ordered and sum-closed.  Each interval carries a truncated-sum MV
structure; their product is the hidden-variable carrier, and the witness
rows at the parts give the embedding h.
"""

from __future__ import annotations

import random
from itertools import product as iproduct
from operator import mul
from typing import NamedTuple

from .algebra import (
    AlgebraError,
    ElementId,
    FiniteEffectAlgebra,
    derive_order,
    from_table,
    is_sharp,
)
from .cloning import CloningWitness, verify_witness
from .states import StatePolytope, check_state

DEFAULT_SEED = 20260823
# verify_hidden_variable checks MIXTURES mixtures of the vertex states, their
# weights drawn from random.Random(DEFAULT_SEED)
MIXTURES = 100
# verify_hidden_variable draws mixture weights from 1..MAX_MIXTURE_WEIGHT and
# packs each into one byte, so it must stay below 256; _mixture_weights reads
# each draw off the top byte of a generator output, which also needs its bit
# length to be at most 8
MAX_MIXTURE_WEIGHT = 12
# getrandbits(b) is the top b bits of one 32-bit generator output; indexed
# by an output's top byte, _WEIGHT_OF_TOP_BYTE gives that draw plus one, and
# _REDRAWN_TOP_BYTES lists the top bytes of the draws randint redraws
_SHIFT = 8 - MAX_MIXTURE_WEIGHT.bit_length()
_WEIGHT_OF_TOP_BYTE = bytes(
    [(b >> _SHIFT) + 1 if b >> _SHIFT < MAX_MIXTURE_WEIGHT else 0 for b in range(256)]
)
_REDRAWN_TOP_BYTES = bytes([b for b in range(256) if b >> _SHIFT >= MAX_MIXTURE_WEIGHT])


class ConstructionFailed(AlgebraError):
    pass


class FiniteMV(NamedTuple):
    """A finite MV carrier as index tables over its elements.

    P[i][j] is the index of elements[i] + elements[j], N[i] that of
    elements[i]', and zero and one are indices.  The elements (interval
    ElementIds, tuples of them, ...) only name the indices in reports.
    """

    elements: tuple
    P: tuple[tuple[int, ...], ...]
    N: tuple[int, ...]
    zero: int
    one: int


class MVReport(NamedTuple):
    passed: bool
    triples_checked: int
    violations: tuple[str, ...]


def check_mv_axioms(mv: FiniteMV) -> MVReport:
    """Verify the eight MV identities exhaustively on mv's index tables.

    Each instance is checked once, in the order: 0' = 1, the one-variable
    identities per element, commutativity and the Lukasiewicz identity per
    pair, associativity per triple.  Associativity compares the row
    P[P[i][j]] with a + (b + c) for all c at once and walks c only in a row
    that differs.
    """
    elems, P, N, Z, U = mv
    violations = [] if N[Z] == U else ["0' != 1"]
    for i, a in enumerate(elems):
        if P[i][N[i]] != U:
            violations.append(f"a + a' != 1 at {a}")
        if P[i][Z] != i:
            violations.append(f"a + 0 != a at {a}")
        if N[N[i]] != i:
            violations.append(f"a'' != a at {a}")
        if P[i][U] != U:
            violations.append(f"a + 1 != 1 at {a}")
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            if P[i][j] != P[j][i]:
                violations.append(f"commutativity fails on ({a}, {b})")
            if P[N[P[N[i]][j]]][j] != P[N[P[i][N[j]]]][i]:
                violations.append(f"(a'+b)'+b != (a+b')'+a on ({a}, {b})")
    for i, a in enumerate(elems):
        Pi = P[i]
        for j, b in enumerate(elems):
            left, Pj = P[Pi[j]], P[j]
            if left != tuple([Pi[x] for x in Pj]):
                for k, c in enumerate(elems):
                    if left[k] != Pi[Pj[k]]:
                        violations.append(f"associativity fails on ({a}, {b}, {c})")
    return MVReport(
        passed=not violations,
        triples_checked=len(elems) ** 3,
        violations=tuple(violations),
    )


def effect_algebra_of_mv(mv: FiniteMV) -> FiniteEffectAlgebra:
    """The induced effect algebra: a + b kept only when a <= b' in the MV
    order, that is when a' + b' = 1."""
    P, N, U = mv.P, mv.N, mv.one
    table = [
        [s if negs[nb] == U else None for s, nb in zip(row, N)]
        for row, negs in zip(P, [P[na] for na in N])
    ]
    return from_table(tuple(map(str, mv.elements)), mv.zero, U, table)


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


class HiddenVariableModel(NamedTuple):
    algebra: FiniteEffectAlgebra
    components: tuple[FiniteMV, ...]  # interval_mv of each part, in part order
    mv: FiniteMV
    h: tuple[int, ...]  # h[x]: the mv.elements index of x's image
    induced: FiniteEffectAlgebra  # effect_algebra_of_mv(mv), built once

    def to_json_dict(self) -> dict:
        labels = self.algebra.labels
        parts = [labels[c.elements[c.one]] for c in self.components]
        return {
            "decomposition": parts,
            "h": {
                labels[x]: [labels[c] for c in self.mv.elements[i]]
                for x, i in enumerate(self.h)
            },
            "components": [
                {"part": p, "interval": [labels[x] for x in c.elements]}
                for p, c in zip(parts, self.components)
            ],
        }


def interval_mv(alg: FiniteEffectAlgebra, p: ElementId) -> FiniteMV:
    """Truncated-sum MV structure on the chain ideal [0, p]."""
    interval = chain_interval(alg, p)
    if interval is None:
        raise ConstructionFailed(
            f"[0, {alg.labels[p]}] is not a totally ordered sum-closed interval"
        )
    pos = {x: i for i, x in enumerate(interval)}
    # [0, p] is sum-closed, so only an undefined sum truncates to p
    t = alg.table
    P = tuple(
        tuple([pos[p if t[x][y] is None else t[x][y]] for y in interval])
        for x in interval
    )
    # the complement p - x of each x <= p lies in [0, p]
    difference = derive_order(alg).difference
    N = tuple(pos[difference[x][p]] for x in interval)
    return FiniteMV(tuple(interval), P, N, pos[alg.zero], pos[p])


def product_mv(components: list[FiniteMV]) -> FiniteMV:
    """The componentwise product, its elements in itertools.product order.

    The components are folded in one at a time: with c of size m, the pair
    (i, j) of the product so far and c has index i*m + j, and
    P'[i*m + j][k*m + l] = P[i][k]*m + c.P[j][l].
    """
    P, N, zero, one = ((0,),), (0,), 0, 0  # the one-element MV on ()
    for c in components:
        m = len(c.elements)
        P = tuple(
            tuple([s * m + t for s in row for t in crow]) for row in P for crow in c.P
        )
        N = tuple([s * m + t for s in N for t in c.N])
        zero, one = zero * m + c.zero, one * m + c.one
    elements = tuple(iproduct(*(c.elements for c in components)))
    return FiniteMV(elements, P, N, zero, one)


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

    # h(x) is the tuple of witness.table[p][x] over the parts
    index = {e: i for i, e in enumerate(mv.elements)}
    h = []
    for x in alg.elements():
        i = index.get(tuple([witness.table[p][x] for p in parts]))
        if i is None:
            raise ConstructionFailed(f"h({alg.labels[x]}) leaves the product carrier")
        h.append(i)
    h = tuple(h)
    if len(set(h)) != alg.size:
        raise ConstructionFailed("h is not injective")
    if len(mv.elements) != alg.size:
        raise ConstructionFailed("h is not a bijection onto the product carrier")
    # mv.P passed the exhaustive commutativity check above, so a failing
    # pair fails in both orders and the first one found has x <= y
    P = mv.P
    for x, y, s in derive_order(alg).sums:
        if h[s] != P[h[x]][h[y]]:
            raise ConstructionFailed(
                f"h is not additive on ({alg.labels[x]}, {alg.labels[y]})"
            )
    return HiddenVariableModel(
        algebra=alg, components=tuple(components), mv=mv, h=h,
        induced=effect_algebra_of_mv(mv),
    )


def order_reflection_holds(model: HiddenVariableModel) -> bool:
    """x <= y' in the source iff h(x) <= h(y)' in the MV order, exhaustively.

    In an effect algebra x <= y' iff x + y is defined, and the induced
    algebra defines a + b exactly when a <= b' in the MV order, so each side
    is read as definedness in its table.
    """
    h, induced = model.h, model.induced.table
    return all(
        [induced[hx][hy] is not None for hy in h] == [s is not None for s in row]
        for hx, row in zip(h, model.algebra.table)
    )


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

    omega_bar lists the lift's values in mv.elements order.  omega and
    omega_bar may both be scaled by a common positive factor; scale is then
    the value a state takes at the unit.
    """
    violations = []
    alg = model.algebra
    for q in alg.elements():
        if omega_bar[model.h[q]] != omega[q]:
            violations.append(
                f"lifted state disagrees with the source state at {alg.labels[q]}"
            )
    for msg in check_state(model.induced, omega_bar, scale):
        violations.append(f"lift is not a state on the MV effect algebra: {msg}")
    return violations


def _mixture_weights(seed: int, count: int) -> bytes:
    """The first count draws of random.Random(seed).randint(1,
    MAX_MIXTURE_WEIGHT), one per byte.

    randint takes getrandbits of the weight's bit length, the top bits of
    one 32-bit output, and redraws while it is out of range.
    getrandbits(32 * m) is m successive outputs as 32-bit words, the first
    the least significant, so every fourth of its little-endian bytes is an
    output's top byte, and one translate maps those to weights and drops the
    redrawn ones.  A round draws a little more than is expected to be
    missing and another round follows if it falls short; the generator is
    local, so the draws past the count are never used.
    """
    rng = random.Random(seed)
    weights = b""
    while len(weights) < count:
        # a draw is kept with odds MAX_MIXTURE_WEIGHT in 2^bit_length
        missing = count - len(weights)
        m = (missing << MAX_MIXTURE_WEIGHT.bit_length()) // MAX_MIXTURE_WEIGHT + 16
        top = rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]
        weights += top.translate(_WEIGHT_OF_TOP_BYTE, _REDRAWN_TOP_BYTES)
    return weights[:count]


class HiddenVariableReport(NamedTuple):
    passed: bool
    states_checked: int
    mixtures_checked: int
    order_reflection: bool
    violations: tuple[str, ...]
    seed: int

    def to_json_dict(self) -> dict:
        # the report's keys are the fields, in their order
        return {**self._asdict(), "violations": list(self.violations)}


def verify_hidden_variable(
    model: HiddenVariableModel, polytope: StatePolytope
) -> HiddenVariableReport:
    """Check the lift conditions on every vertex state plus MIXTURES mixtures.

    The state with integer weights w (a unit vector for a vertex) is the int
    vector sum(w_i * V_i) at scale L*sum(w), V_i = polytope.vertices[i] and
    L = polytope.denominator.  The weights are the same draws as
    random.Random(DEFAULT_SEED).randint(1, MAX_MIXTURE_WEIGHT) gives, row by
    row.  The weight vectors come from _weight_batches: first all states
    packed into lanes, if no vertex entry is negative, then, only if that
    check fails, one row per state, which gives the messages.
    """
    den, vertices = polytope.denominator, polytope.vertices
    k = len(vertices)
    violations: list[str] = []
    if vertices:
        lift = _lift_index(model)
        columns = list(zip(*vertices))
        weights = _mixture_weights(DEFAULT_SEED, k * MIXTURES)
        for batch in _weight_batches(vertices, den, weights):
            violations = []
            for w in batch:
                omega = [sum(map(mul, w, column)) for column in columns]
                omega_bar = [omega[x] for x in lift]
                violations += check_lifted_state(model, omega, omega_bar, den * sum(w))
            if not violations:
                break
    reflection = order_reflection_holds(model)
    if not reflection:
        violations.append("order reflection of h fails")
    return HiddenVariableReport(
        passed=not violations,
        states_checked=k,
        mixtures_checked=MIXTURES if vertices else 0,
        order_reflection=reflection,
        violations=tuple(violations),
        seed=DEFAULT_SEED,
    )


def _weight_batches(vertices, den: int, weights: bytes):
    """verify_hidden_variable's weight vectors: the k vertices' unit
    vectors, then one vector of k weights per mixture.

    With no negative vertex entry, the first batch checks all states at
    once: vertex j is one int whose lane s holds state s's weight on it, a
    lane being a whole number of bytes, so vertex j has a 1 in lane j and
    the weights weights[j::k] in lanes k, k+1, ....  A value is at most
    MAX_MIXTURE_WEIGHT * k * max(den, largest entry) and a lane holds at
    least twice that, so any value or sum of two fits its lane.  The rows
    of the next batch, one per state, are built only if it is asked for.
    """
    k = len(vertices)
    if min(map(min, vertices)) >= 0:
        top = max(den, *map(max, vertices))
        nbytes = ((2 * MAX_MIXTURE_WEIGHT * k * top).bit_length() + 7) // 8
        lanes = bytearray(nbytes * (k + MIXTURES))
        packed = []
        for j in range(k):
            lanes[j * nbytes] = 1
            lanes[k * nbytes :: nbytes] = weights[j::k]
            packed.append(int.from_bytes(lanes, "little"))
            lanes[j * nbytes] = 0
        yield [packed]
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    yield rows + [weights[i : i + k] for i in range(0, k * MIXTURES, k)]
