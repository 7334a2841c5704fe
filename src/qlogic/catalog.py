"""Deterministic constructors for the canonical test algebras.

Labels are human-meaningful and fixed per constructor so serialized output
is stable across runs; MO_n and the Wright triangle are Greechie pastings.
boolean_powerset, chain, product and horizontal_sum write their integer sum
tables for from_table, and pasting writes label triples for validate; every
table then goes through the same full axiom validation.
"""

from __future__ import annotations

from itertools import chain as ichain

from .algebra import (
    MAX_CARRIER,
    AlgebraError,
    FiniteEffectAlgebra,
    from_table,
    validate,
)

MAX_SPEC_DEPTH = 100
MAX_POWERSET = 5


class BoundExceeded(AlgebraError):
    pass


def subset_carrier(k: int):
    """Subsets of {1..k} as bitmasks by size, then value; labels like "{1,3}"."""
    masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))

    def label(m):
        return "{" + ",".join(str(i + 1) for i in range(k) if m >> i & 1) + "}"

    return masks, label


def boolean_powerset(k: int) -> FiniteEffectAlgebra:
    """Subsets of {1..k} under disjoint union; the Boolean reference family."""
    if not 1 <= k <= MAX_POWERSET:
        raise BoundExceeded(
            f"boolean_powerset supports 1 <= k <= {MAX_POWERSET}, got {k}"
        )
    masks, label = subset_carrier(k)
    pos = {m: i for i, m in enumerate(masks)}
    rows = [[None if a & b else pos[a | b] for b in masks] for a in masks]
    return from_table(tuple(map(label, masks)), 0, len(masks) - 1, rows)


def chain(d: int) -> FiniteEffectAlgebra:
    """The chain {0, 1/d, ..., 1} with k/d + m/d defined iff k + m <= d."""
    if not 1 <= d <= 12:
        raise BoundExceeded(f"chain supports 1 <= D <= 12, got {d}")
    labels = ("0", *(f"{k}/{d}" for k in range(1, d)), "1")
    rows = [[a + b if a + b <= d else None for b in range(d + 1)] for a in range(d + 1)]
    return from_table(labels, 0, d, rows)


def mo(n: int) -> FiniteEffectAlgebra:
    """The horizontal-sum orthoalgebra MO_n: n two-atom blocks {ai, ai'}."""
    if not 1 <= n <= 6:
        raise BoundExceeded(f"mo supports 1 <= n <= 6, got {n}")
    return pasting([(f"a{i}", f"a{i}'") for i in range(1, n + 1)])


def wright_triangle() -> FiniteEffectAlgebra:
    """Not coherent: a, c, e are mutually orthogonal but (a + c) + e is undefined."""
    return pasting([("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a")])


def pasting(blocks) -> FiniteEffectAlgebra:
    """Greechie pasting of Boolean blocks given as tuples of atom names.

    Blocks share at most one atom a, and with it a'.  Labels: "0", "1", the
    atoms, a' for each atom of a block of 3 or more, then the other block
    elements as "a+b".  validate decides whether it is an orthoalgebra.
    """
    labels = ["0", "1"] + [x for b in blocks for x in b]
    labels += [x + "'" for b in blocks if len(b) > 2 for x in b]
    sums = []
    for block in blocks:
        if len(set(block)) < len(block):
            raise BoundExceeded(f"block {block!r} repeats an atom")
        if 1 << len(block) > MAX_CARRIER:
            raise BoundExceeded(f"a {len(block)}-atom block exceeds cap {MAX_CARRIER}")
        lbl = [""]  # the block's elements, indexed by the bitmask of their atoms
        for x in block:
            lbl += [f"{s}+{x}" if s else x for s in lbl]
        lbl[0], lbl[-1] = "0", "1"
        if len(block) > 2:  # in a two-atom block, a' is the other atom
            for i, x in enumerate(block):
                lbl[-1 - (1 << i)] = x + "'"  # every atom but x
        labels += lbl
        ms = range(len(lbl))
        sums += [[lbl[a], lbl[b], lbl[a | b]] for a in ms for b in ms[a:] if not a & b]
    return validate(dict.fromkeys(labels), "0", "1", sums)


def horizontal_sum(*components: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Glue components at shared 0 and 1; no sums across components.

    0 and 1 are elements 0 and 1; the other elements of component k follow
    in its carrier order, labelled "k:label".  Each component's table is
    copied through that index map, and the result is validated in full.
    """
    if len(components) < 2:
        raise BoundExceeded("horizontal_sum needs at least two components")
    n = 2 + sum(comp.size - 2 for comp in components)
    if n > MAX_CARRIER:
        raise BoundExceeded(f"horizontal sum has {n} elements (cap {MAX_CARRIER})")
    labels = ["0", "1"]
    table = [[None] * n for _ in range(n)]
    for k, comp in enumerate(components, start=1):
        index = []
        for p, lbl in enumerate(comp.labels):
            if p == comp.zero:
                index.append(0)
            elif p == comp.unit:
                index.append(1)
            else:
                index.append(len(labels))
                labels.append(f"{k}:{lbl}")
        for p, row in zip(index, comp.table):
            out = table[p]
            for q, c in zip(index, row):
                if c is not None:
                    out[q] = index[c]
    return from_table(tuple(labels), 0, 1, table)


def product(*components: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Direct product with componentwise partial sums.

    The components are folded in order: element (p, q) of A x B is
    p * |B| + q, so the carrier is in lexicographic order, and its row is
    row p of A with each defined entry c replaced by row q of B shifted by
    c * |B|.  Labels are "(a,b,...)".  The folded table is validated in full.
    """
    if len(components) < 2:
        raise BoundExceeded("product needs at least two components")
    size = 1
    for comp in components:
        size *= comp.size
    if size > MAX_CARRIER:
        raise BoundExceeded(f"product has {size} elements (cap {MAX_CARRIER})")
    first = components[0]
    names = [(lbl,) for lbl in first.labels]
    table = first.table
    zero, unit = first.zero, first.unit
    concat = ichain.from_iterable
    for comp in components[1:]:
        m = comp.size
        undefined = (None,) * m
        # shifted[c][q]: row q of comp, each defined entry x moved to c * m + x
        shifted = [
            [
                tuple([None if x is None else base + x for x in row])
                for row in comp.table
            ]
            for base in range(0, len(table) * m, m)
        ]
        table = [
            tuple(concat([undefined if c is None else shifted[c][q] for c in row]))
            for row in table
            for q in range(m)
        ]
        names = [name + (lbl,) for name in names for lbl in comp.labels]
        zero, unit = zero * m + comp.zero, unit * m + comp.unit
    labels = tuple(["(" + ",".join(name) + ")" for name in names])
    return from_table(labels, zero, unit, table)


# ---------------------------------------------------------------------------
# Spec strings for the CLI: e.g. "chain(3)", "product(chain(2),chain(2))"

# name -> (constructor, the type every argument must have, the number of
# arguments or None for any number)
_CONSTRUCTORS = {
    "boolean_powerset": (boolean_powerset, int, 1),
    "chain": (chain, int, 1),
    "mo": (mo, int, 1),
    "wright_triangle": (wright_triangle, int, 0),
    "horizontal_sum": (horizontal_sum, FiniteEffectAlgebra, None),
    "product": (product, FiniteEffectAlgebra, None),
}


def build_spec(text: str) -> FiniteEffectAlgebra:
    """Build a catalog algebra from a spec string like "mo(2)"."""
    expr, rest = _parse(text.strip())
    if rest.strip():
        raise BoundExceeded(f"trailing input in catalog spec: {rest!r}")
    return expr


def _parse(text: str, depth: int = 1):
    if depth > MAX_SPEC_DEPTH:
        raise BoundExceeded(f"catalog spec nests deeper than {MAX_SPEC_DEPTH} levels")
    text = text.lstrip()
    if not text:
        raise BoundExceeded("catalog spec ended early")
    name_end = 0
    while name_end < len(text) and (text[name_end].isalnum() or text[name_end] == "_"):
        name_end += 1
    name = text[:name_end]
    if not name:
        raise BoundExceeded(f"cannot read catalog spec at {text!r}")
    if name not in _CONSTRUCTORS:
        raise BoundExceeded(f"unknown catalog constructor {name!r}")
    rest = text[name_end:].lstrip()
    args = []
    if rest.startswith("("):
        rest = rest[1:].lstrip()
        more = not rest.startswith(")")
        if not more:
            rest = rest[1:]
        while more:
            rest = rest.lstrip()
            if rest[:1].isdecimal():
                num_end = 0
                while num_end < len(rest) and rest[num_end].isdecimal():
                    num_end += 1
                try:
                    args.append(int(rest[:num_end]))
                except ValueError:  # past Python's integer digit limit
                    raise BoundExceeded(
                        f"catalog argument with {num_end} digits is out of range"
                    ) from None
                rest = rest[num_end:]
            else:
                sub, rest = _parse(rest, depth + 1)
                args.append(sub)
            rest = rest.lstrip()
            if not rest:
                raise BoundExceeded("catalog spec ended early")
            if rest[0] not in ",)":
                raise BoundExceeded(f"expected ',' or ')' in catalog spec at {rest!r}")
            more, rest = rest[0] == ",", rest[1:]
    build, kind, arity = _CONSTRUCTORS[name]
    if not all(isinstance(arg, kind) for arg in args):
        expected = "integers" if kind is int else "algebras"
        raise BoundExceeded(f"{name} takes {expected} as arguments")
    if arity is not None and len(args) != arity:
        raise BoundExceeded(f"{name} takes {arity} argument(s), got {len(args)}")
    return build(*args), rest
