"""Finite effect algebras stored as dense partial-sum tables.

The carrier is a list of labelled elements and the partial binary sum is a
square table with ``None`` marking undefined entries.  Validation checks the
four effect-algebra axioms by full exhaustion, comparing whole rows where it
can (the table against its transpose, a count of unit entries per row); the
scalar loops run only to name the first violation.  Associativity walks the
defined entries alone: each defined q + r, then each p with p + (q + r)
defined, read from per-row lists of the defined positions.  The order,
supplements, atoms, differences, meets, joins, incompatible pairs and
defined sums are then derived in one pass over the table, on first use,
into one record kept on the algebra instance (``derive_order``); coherence
and Boolean-ness are decided from the table and that record.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, product, starmap
from operator import and_, is_not
from typing import NamedTuple

ElementId = int

MAX_CARRIER = 64


class AlgebraError(Exception):
    """Base class for errors raised by this package."""


class MalformedTable(AlgebraError):
    """Structurally broken input (labels, keys, conflicts) before axiom checks."""


class ValidationError(AlgebraError):
    """An effect-algebra axiom fails; ``witnesses`` names the offending labels."""

    def __init__(self, message: str, witnesses: tuple[str, ...] = ()):
        super().__init__(message)
        self.witnesses = witnesses


class CommutativityViolation(ValidationError):
    pass


class AssociativityViolation(ValidationError):
    pass


class SupplementMissing(ValidationError):
    pass


class SupplementNotUnique(ValidationError):
    pass


class UnitIsotropic(ValidationError):
    pass


class NotAnOrthoalgebra(AlgebraError):
    pass


class ZeroHasNoIndex(AlgebraError):
    pass


class FiniteEffectAlgebra:
    """A validated finite effect algebra (labels, zero, unit, partial sum table).

    Immutable: its fields compare and hash as the tuple (labels, zero, unit,
    table), and assigning an attribute raises AttributeError.
    """

    def __init__(
        self,
        labels: tuple[str, ...],
        zero: ElementId,
        unit: ElementId,
        table: tuple[tuple[ElementId | None, ...], ...],
    ):
        self.__dict__.update(labels=labels, zero=zero, unit=unit, table=table)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self):
        return self.labels, self.zero, self.unit, self.table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def size(self) -> int:
        return len(self.labels)

    def elements(self) -> range:
        return range(len(self.labels))

    def sum(self, p: ElementId, q: ElementId) -> ElementId | None:
        return self.table[p][q]

    def perp(self, p: ElementId, q: ElementId) -> bool:
        return self.table[p][q] is not None

    def index(self, label: str) -> ElementId:
        try:
            return self.labels.index(label)
        except ValueError:
            raise MalformedTable(f"unknown element label {label!r}") from None

    def to_json_dict(self) -> dict:
        sums = []
        for p in self.elements():
            for q in range(p, self.size):
                c = self.table[p][q]
                if c is not None:
                    sums.append([self.labels[p], self.labels[q], self.labels[c]])
        return {
            "elements": list(self.labels),
            "zero": self.labels[self.zero],
            "unit": self.labels[self.unit],
            "sums": sums,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @cached_property
    def _derived(self) -> DerivedStructure:
        # stored in the instance __dict__, so it lives and dies with the algebra
        return _derive(self)


def validate(elements, zero: str, unit: str, sums) -> FiniteEffectAlgebra:
    """Build and validate an algebra from (a, b, c) label triples meaning a+b=c.

    One orientation per pair suffices; the table is symmetrized.  Conflicting
    orientations raise CommutativityViolation.
    """
    labels = tuple(elements)
    _check_structure(labels, zero, unit)
    n = len(labels)
    pos = {lbl: i for i, lbl in enumerate(labels)}
    table: list[list[ElementId | None]] = [[None] * n for _ in range(n)]
    for triple in sums:
        if len(triple) != 3:
            raise MalformedTable(f"sum entry {triple!r} is not an [a, b, c] triple")
        a, b, c = triple
        try:
            i, j, k = pos[a], pos[b], pos[c]
        except KeyError:
            for lbl in (a, b, c):
                if lbl not in pos:
                    msg = f"sum entry mentions unknown label {lbl!r}"
                    raise MalformedTable(msg) from None
        # both orientations are written together, so the table stays symmetric
        if table[i][j] not in (None, k):
            raise CommutativityViolation(
                f"conflicting values for {a!r}(+){b!r}", (a, b)
            )
        table[i][j] = table[j][i] = k
    return _validate_checked(labels, pos[zero], pos[unit], table)


def from_table(labels, zero: ElementId, unit: ElementId, rows) -> FiniteEffectAlgebra:
    """Build and validate an algebra from the rows of its sum table: row p
    holds the ElementId of p + q at q, or None where the sum is undefined.

    The rows are read only once the carrier passes its structure checks.
    MalformedTable refuses, before any axiom check, a zero or unit that is
    not an int in range(n), a table that is not n rows of n entries, and an
    entry that is neither None nor an int in range(n).
    """
    n = len(labels)
    if not (type(zero) is type(unit) is int and 0 <= zero < n and 0 <= unit < n):
        raise MalformedTable(f"zero and unit must be ints in range({n})")
    _check_structure(labels, labels[zero], labels[unit])
    rows = list(rows)
    try:
        rows = tuple(map(tuple, rows))
    except TypeError:  # a row that is not a sequence fails the shape check
        rows = ()
    # types first, so that no 2.0 or True passes as an index
    if (
        set(map(len, rows)) | {len(rows)} != {n}
        or not set(map(type, chain(*rows))) <= {int, type(None)}
        or not set(chain(*rows)) <= {None, *range(n)}
    ):
        raise MalformedTable(
            f"the sum table must be {n} rows of {n} entries, each None or in range({n})"
        )
    return _validate_checked(labels, zero, unit, rows)


def from_json_dict(doc: dict) -> FiniteEffectAlgebra:
    """Load an algebra from the published JSON format; unknown keys rejected."""
    if not isinstance(doc, dict):
        raise MalformedTable("algebra document must be a JSON object")
    expected = {"elements", "zero", "unit", "sums"}
    unknown = set(doc) - expected
    if unknown:
        raise MalformedTable(f"unknown keys in algebra document: {sorted(unknown)}")
    missing = expected - set(doc)
    if missing:
        raise MalformedTable(f"missing keys in algebra document: {sorted(missing)}")
    if not isinstance(doc["elements"], list) or not all(
        isinstance(x, str) for x in doc["elements"]
    ):
        raise MalformedTable("'elements' must be an array of strings")
    if not isinstance(doc["sums"], list):
        raise MalformedTable("'sums' must be an array of [a, b, c] triples")
    for triple in doc["sums"]:
        if not (isinstance(triple, list) and len(triple) == 3):
            raise MalformedTable(f"sum entry {triple!r} is not an [a, b, c] triple")
        a, b, c = triple
        if not (isinstance(a, str) and isinstance(b, str) and isinstance(c, str)):
            raise MalformedTable(f"sum entry {triple!r} has a non-string label")
    return validate(doc["elements"], doc["zero"], doc["unit"], doc["sums"])


def from_json(text: str) -> FiniteEffectAlgebra:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers past Python's digit
        # limit; RecursionError is how json reports too deep a nesting
        raise MalformedTable(f"invalid JSON: {exc}") from exc
    return from_json_dict(doc)


def _check_structure(labels, zero, unit):
    if len(set(labels)) != len(labels):
        raise MalformedTable("element labels are not pairwise distinct")
    if len(labels) > MAX_CARRIER:
        raise MalformedTable(f"carrier size {len(labels)} exceeds cap {MAX_CARRIER}")
    for lbl in (zero, unit):
        if lbl not in labels:
            raise MalformedTable(f"distinguished element {lbl!r} not in carrier")
    if zero == unit:
        raise MalformedTable("degenerate algebra with 0 = 1 is rejected")


def _validate_checked(labels, zero, unit, table) -> FiniteEffectAlgebra:
    n = len(labels)
    rows = tuple(map(tuple, table))

    # (i) commutativity, in definedness and value: the table is its transpose
    if tuple(zip(*rows)) != rows:
        for p in range(n):
            for q in range(p, n):
                if rows[p][q] != rows[q][p]:
                    raise CommutativityViolation(
                        f"{labels[p]!r}(+){labels[q]!r} and its flip disagree",
                        (labels[p], labels[q]),
                    )

    # p orthogonal to 1 forces p = 0; the unit's row is its column
    for p, s in enumerate(rows[unit]):
        if s is not None and p != zero:
            raise UnitIsotropic(
                f"{labels[p]!r} is orthogonal to the unit but nonzero", (labels[p],)
            )

    # unique orthosupplement; the same pass lists, for each p, the q with
    # p + q defined, in increasing order, for the associativity walk
    defined = []
    for p, row in enumerate(rows):
        defined.append([q for q, c in enumerate(row) if c is not None])
        if row.count(unit) != 1:
            supp = [q for q in range(n) if row[q] == unit]
            if not supp:
                raise SupplementMissing(
                    f"{labels[p]!r} has no orthosupplement", (labels[p],)
                )
            raise SupplementNotUnique(
                f"{labels[p]!r} has several orthosupplements "
                f"{[labels[q] for q in supp]}",
                (labels[p],) + tuple(labels[q] for q in supp),
            )

    # associativity, fully exhausted: p + (q + r) defined forces (p + q) + r
    # = p + (q + r), read as row r at p + q by commutativity.  Only defined
    # q + r and p + (q + r) are visited, each in increasing order, so the
    # first violation named is the one a walk over every (q, r, p) finds
    for q, row_q in enumerate(rows):
        for r in defined[q]:
            qr = row_q[r]
            row_r = rows[r]
            row_qr = rows[qr]
            for p in defined[qr]:
                pq = row_q[p]
                if pq is None or row_r[pq] != row_qr[p]:
                    raise AssociativityViolation(
                        f"associativity fails on "
                        f"({labels[p]!r}, {labels[q]!r}, {labels[r]!r})",
                        (labels[p], labels[q], labels[r]),
                    )

    return FiniteEffectAlgebra(labels=tuple(labels), zero=zero, unit=unit, table=rows)


# ---------------------------------------------------------------------------
# Derived order structure


class DerivedStructure(NamedTuple):
    """Order structure derived from the sum table, built once per algebra.

    ``leq[p][q]``: p <= q.  ``difference[p][q]``: the r with p + r = q, or None.
    ``meet``/``join``: greatest lower / least upper bound of a pair, or None.
    ``sums``: every defined a + b = c as (a, b, c) with a <= b, in ascending
    (a, b) order; the sum is commutative, so this is each defined sum once.
    """

    leq: tuple[tuple[bool, ...], ...]
    supplement: tuple[ElementId, ...]
    atoms: tuple[ElementId, ...]
    difference: tuple[tuple[ElementId | None, ...], ...]
    meet: tuple[tuple[ElementId | None, ...], ...]
    join: tuple[tuple[ElementId | None, ...], ...]
    incompatible_pairs: tuple[tuple[ElementId, ElementId], ...]
    sums: tuple[tuple[ElementId, ElementId, ElementId], ...]


def derive_order(alg: FiniteEffectAlgebra) -> DerivedStructure:
    """The algebra's derived structure, built on first use and kept on it."""
    return alg._derived


def _derive(alg: FiniteEffectAlgebra) -> DerivedStructure:
    n = alg.size
    t = alg.table
    nones = (None,) * n
    # down[q] and up[p] are bitmasks of the elements below q and above p;
    # orth[p] lists the q with p + q defined
    down = [0] * n
    up = []
    orth = []
    leq = []
    difference = []
    sums = []
    for p, row in enumerate(t):
        o = [r for r, q in enumerate(row) if q is not None]
        orth.append(o)
        diff = [None] * n
        mask = 0
        for r in o:
            q = row[r]
            diff[q] = r
            down[q] |= 1 << p
            mask |= 1 << q
            if p <= r:
                sums.append((p, r, q))
        up.append(mask)
        leq.append(tuple(map(is_not, diff, nones)))
        difference.append(tuple(diff))

    # (x + z, y + z) is compatible for every mutually orthogonal (x, y, z)
    compatible = [0] * n
    for x, o in enumerate(orth):
        row_x = t[x]
        for y in o:
            row_y = t[y]
            for z in o:
                yz = row_y[z]
                if yz is not None:
                    compatible[row_x[z]] |= 1 << yz
    full = (1 << n) - 1
    incompatible = []
    for p, c in enumerate(compatible):
        if c != full:
            incompatible += [(p, q) for q in range(p + 1, n) if not c >> q & 1]

    # a meet's down-set is the common down-set, and distinct elements have
    # distinct down-sets (antisymmetry); dually for joins and up-sets.  Each
    # table is one pass over the n * n pairs, cut into rows of n by zip
    by_down = {mask: p for p, mask in enumerate(down)}.get
    by_up = {mask: p for p, mask in enumerate(up)}.get
    return DerivedStructure(
        leq=tuple(leq),
        supplement=tuple([row[alg.unit] for row in difference]),
        # an atom has exactly two elements below it: 0 and itself
        atoms=tuple([p for p, mask in enumerate(down) if mask.bit_count() == 2]),
        difference=tuple(difference),
        meet=tuple(zip(*[map(by_down, starmap(and_, product(down, repeat=2)))] * n)),
        join=tuple(zip(*[map(by_up, starmap(and_, product(up, repeat=2)))] * n)),
        incompatible_pairs=tuple(incompatible),
        sums=tuple(sums),
    )


def meet(alg: FiniteEffectAlgebra, p: ElementId, q: ElementId) -> ElementId | None:
    """Greatest lower bound of {p, q}, or None when the bound set has no maximum."""
    return derive_order(alg).meet[p][q]


def join(alg: FiniteEffectAlgebra, p: ElementId, q: ElementId) -> ElementId | None:
    """Least upper bound of {p, q}, or None when it does not exist."""
    return derive_order(alg).join[p][q]


def is_sharp(alg: FiniteEffectAlgebra, p: ElementId) -> bool:
    return meet(alg, p, derive_order(alg).supplement[p]) == alg.zero


def sharp_elements(alg: FiniteEffectAlgebra) -> tuple[ElementId, ...]:
    return tuple(p for p in alg.elements() if is_sharp(alg, p))


def atoms(alg: FiniteEffectAlgebra) -> tuple[ElementId, ...]:
    """Minimal nonzero elements, in carrier order."""
    return derive_order(alg).atoms


def is_atomic(alg: FiniteEffectAlgebra) -> bool:
    order = derive_order(alg)
    return all(
        p == alg.zero or any(order.leq[a][p] for a in order.atoms)
        for p in alg.elements()
    )


def isotropic_index(alg: FiniteEffectAlgebra, p: ElementId) -> int:
    """Largest n such that the n-fold sum p + ... + p is defined."""
    if p == alg.zero:
        raise ZeroHasNoIndex("the zero element has no finite isotropic index")
    n = 1
    acc = p
    while alg.table[acc][p] is not None:
        acc = alg.table[acc][p]
        n += 1
        if n > alg.size:  # impossible in a validated (cancellative) algebra
            raise AlgebraError("isotropic index exceeds carrier size")
    return n


def is_archimedean(alg: FiniteEffectAlgebra) -> bool:
    try:
        for p in alg.elements():
            if p != alg.zero:
                isotropic_index(alg, p)
    except AlgebraError:
        return False
    return True


def are_compatible(
    alg: FiniteEffectAlgebra, p: ElementId, q: ElementId
) -> list[tuple[ElementId, ElementId, ElementId]]:
    """All Mackey decompositions (x, y, z): p = x+z, q = y+z, mutually orthogonal."""
    t = alg.table
    out = []
    for x in alg.elements():
        for y in alg.elements():
            if t[x][y] is None:
                continue
            for z in alg.elements():
                if t[x][z] is None or t[y][z] is None:
                    continue
                if t[x][z] == p and t[y][z] == q:
                    out.append((x, y, z))
    return out


def incompatible_pairs(
    alg: FiniteEffectAlgebra,
) -> tuple[tuple[ElementId, ElementId], ...]:
    """Pairs p < q for which are_compatible(alg, p, q) is empty."""
    return derive_order(alg).incompatible_pairs


def is_orthoalgebra(
    alg: FiniteEffectAlgebra,
) -> tuple[bool, ElementId | None]:
    """True iff no nonzero p has p + p defined; counterexample otherwise."""
    for p in alg.elements():
        if p != alg.zero and alg.table[p][p] is not None:
            return False, p
    return True, None


def require_orthoalgebra(alg: FiniteEffectAlgebra, lead: str) -> None:
    """Raise NotAnOrthoalgebra, opening with lead, unless alg is an orthoalgebra."""
    ok, witness = is_orthoalgebra(alg)
    if not ok:
        raise NotAnOrthoalgebra(f"{lead}; {alg.labels[witness]!r} + itself is defined")


def check_coherence(
    alg: FiniteEffectAlgebra,
) -> tuple[bool, tuple[ElementId, ElementId, ElementId] | None]:
    """True iff every mutually orthogonal triple has a defined total sum.

    The counterexample is the first (p, q, r) in lexicographic order; it has
    p <= q, since (q, p, r) is a counterexample whenever (p, q, r) is.
    """
    require_orthoalgebra(alg, "coherence is checked on orthoalgebras only")
    t = alg.table
    for p, q, pq in derive_order(alg).sums:
        for r in alg.elements():
            if t[p][r] is not None and t[q][r] is not None and t[pq][r] is None:
                return False, (p, q, r)
    return True, None


def is_boolean(alg: FiniteEffectAlgebra) -> bool:
    """Boolean-ness, decided two independent ways; the deciders must agree."""
    via_compat = _boolean_via_compatibility(alg)
    via_lattice = _boolean_via_lattice(alg)
    if via_compat != via_lattice:
        raise AlgebraError(
            "internal inconsistency: the compatibility-based and lattice-based "
            "Boolean deciders disagree"
        )
    return via_compat


def _boolean_via_compatibility(alg: FiniteEffectAlgebra) -> bool:
    ok, _ = is_orthoalgebra(alg)
    if not ok:
        return False
    coherent, _ = check_coherence(alg)
    if not coherent:
        return False
    return not incompatible_pairs(alg)


def _boolean_via_lattice(alg: FiniteEffectAlgebra) -> bool:
    n = alg.size
    order = derive_order(alg)
    meets, joins, supp = order.meet, order.join, order.supplement
    if any(None in row for row in meets + joins):
        return False
    for p in range(n):
        if meets[p][supp[p]] != alg.zero or joins[p][supp[p]] != alg.unit:
            return False
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if meets[p][joins[q][r]] != joins[meets[p][q]][meets[p][r]]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Structure report


class StructureReport(NamedTuple):
    is_effect_algebra: bool
    is_orthoalgebra: bool
    is_orthomodular_poset: bool
    is_boolean: bool
    sharp_elements: tuple[ElementId, ...]
    atoms: tuple[ElementId, ...]
    iota: dict
    is_atomic: bool
    is_archimedean: bool
    incompatible_pairs: tuple[tuple[ElementId, ElementId], ...]

    def to_json_dict(self, alg: FiniteEffectAlgebra) -> dict:
        return {
            **self._asdict(),
            "sharp_elements": [alg.labels[p] for p in self.sharp_elements],
            "atoms": [alg.labels[p] for p in self.atoms],
            "iota": {alg.labels[p]: v for p, v in self.iota.items()},
            "incompatible_pairs": [
                [alg.labels[p], alg.labels[q]] for p, q in self.incompatible_pairs
            ],
        }


def structure_report(alg: FiniteEffectAlgebra) -> StructureReport:
    ortho, _ = is_orthoalgebra(alg)
    coherent = check_coherence(alg)[0] if ortho else False
    return StructureReport(
        is_effect_algebra=True,
        is_orthoalgebra=ortho,
        is_orthomodular_poset=ortho and coherent,
        is_boolean=is_boolean(alg),
        sharp_elements=sharp_elements(alg),
        atoms=atoms(alg),
        iota={p: isotropic_index(alg, p) for p in alg.elements() if p != alg.zero},
        is_atomic=is_atomic(alg),
        is_archimedean=is_archimedean(alg),
        incompatible_pairs=incompatible_pairs(alg),
    )


# ---------------------------------------------------------------------------
# Isomorphism search (backtracking on labelled tables)


def find_isomorphism(
    a: FiniteEffectAlgebra, b: FiniteEffectAlgebra
) -> dict[ElementId, ElementId] | None:
    """A sum-preserving bijection a -> b fixing zero and unit, or None."""
    if a.size != b.size:
        return None

    def profile(alg, p):
        lo = derive_order(alg).leq
        degree = sum(1 for q in alg.elements() if alg.table[p][q] is not None)
        down = sum(1 for q in alg.elements() if lo[q][p])
        up = sum(1 for q in alg.elements() if lo[p][q])
        return (degree, down, up)

    prof_a = {p: profile(a, p) for p in a.elements()}
    prof_b = {p: profile(b, p) for p in b.elements()}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return None

    mapping: dict[ElementId, ElementId] = {a.zero: b.zero, a.unit: b.unit}
    used = {b.zero, b.unit}
    todo = sorted(
        (p for p in a.elements() if p not in mapping),
        key=lambda p: (prof_a[p], p),
    )

    def consistent(p, q):
        for x, y in mapping.items():
            sa = a.table[p][x]
            sb = b.table[q][y]
            if (sa is None) != (sb is None):
                return False
            if sa is not None and sa in mapping and mapping[sa] != sb:
                return False
        return True

    def rec(i):
        if i == len(todo):
            # full check: definedness and values must transfer both ways
            for p in a.elements():
                for q in a.elements():
                    s = a.table[p][q]
                    t = b.table[mapping[p]][mapping[q]]
                    if (s is None) != (t is None):
                        return False
                    if s is not None and mapping[s] != t:
                        return False
            return True
        p = todo[i]
        for q in b.elements():
            if q in used or prof_b[q] != prof_a[p]:
                continue
            if not consistent(p, q):
                continue
            mapping[p] = q
            used.add(q)
            if rec(i + 1):
                return True
            del mapping[p]
            used.discard(q)
        return False

    try:
        return dict(mapping) if rec(0) else None
    finally:
        del rec  # rec refers to itself through its closure: break the cycle
