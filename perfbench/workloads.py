"""Inputs, op lists and output checks of the three workloads.

Every input reaches qlogic as a generated JSON file; the seed only decides
the op order, the corrupted cell of each invalid table and the fuzz tables,
so the same seed gives the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from qlogic import catalog, fuzz

GOLDEN = Path(__file__).resolve().parent / "golden.json"

SWEEP_COUNT = 2000
SWEEP_MAX_SIZE = 10


@dataclass(frozen=True)
class Algebra:
    """A catalog algebra with the properties known from its construction.

    `vertices` is the closed-form vertex count (k for boolean_powerset(k),
    2**n for mo(n), 1 for a chain); None where the bench relies on the
    golden copy alone.
    """

    spec: str
    boolean: bool
    ortho: bool
    vertices: int | None = None


# n <= 32: every command reaches vertex enumeration. boolean_powerset(5)
# stays out of this list: clone-search on it took 286 s.
STATE_ALGEBRAS = (
    Algebra("boolean_powerset(2)", True, True, 2),
    Algebra("boolean_powerset(3)", True, True, 3),
    Algebra("boolean_powerset(4)", True, True, 4),
    Algebra("mo(2)", False, True, 4),
    Algebra("mo(3)", False, True, 8),
    Algebra("mo(4)", False, True, 16),
    Algebra("mo(5)", False, True, 32),
    Algebra("mo(6)", False, True, 64),
    Algebra("wright_triangle()", False, True),
    Algebra("chain(4)", False, False, 1),
    Algebra("chain(8)", False, False, 1),
    Algebra("product(chain(2),chain(2))", False, False),
    Algebra("product(boolean_powerset(2),chain(3))", False, False),
    Algebra("horizontal_sum(boolean_powerset(2),mo(1))", False, True),
    Algebra("horizontal_sum(boolean_powerset(3),boolean_powerset(3))", False, True),
)

# 33 <= n <= 64: clone-search skips vertex enumeration above
# states.MAX_STATE_CARRIER, and validate/analyze never call it.
STRUCTURE_ALGEBRAS = (
    Algebra("horizontal_sum(boolean_powerset(5),boolean_powerset(5))", False, True),
    Algebra("product(boolean_powerset(3),chain(5))", False, False),
    Algebra(
        "product(boolean_powerset(2),boolean_powerset(2),boolean_powerset(2))",
        True,
        True,
    ),
    Algebra("product(mo(2),mo(2))", False, True),
    Algebra("horizontal_sum(mo(6),boolean_powerset(5),wright_triangle())", False, True),
)
BOOLEAN_5 = Algebra("boolean_powerset(5)", True, True, 5)

# Corruptions of boolean_powerset(5): (name, expected exit, expected error class)
INVALID = (
    ("associativity", 1, "AssociativityViolation"),
    ("supplement", 1, "SupplementMissing"),
    ("label", 2, "MalformedTable"),
)


@dataclass(frozen=True)
class Op:
    """One `qlogic <command>` process on one input file."""

    id: str
    command: str
    path: str
    flags: tuple[str, ...]
    algebra: Algebra | None  # None for an invalid table
    invalid: tuple[str, int, str] | None = None

    def argv(self) -> list[str]:
        return [self.command, self.path, *self.flags, "--format", "json"]

    @property
    def golden_key(self) -> str:
        return f"{self.command} {self.algebra.spec}"


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def corrupt(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a boolean_powerset(5) document with one seeded defect.

    associativity: drop a+b for disjoint nonempty a, b whose union is not
    the unit; a + (b + r) stays defined for r outside a | b.
    supplement: drop x + x' = 1 for one x other than 0 and 1.
    label: rename one element of one sum entry to a label not in the carrier.
    """
    sums = [list(t) for t in doc["sums"]]
    zero, unit = doc["zero"], doc["unit"]
    if kind == "associativity":
        pool = [i for i, (a, b, c) in enumerate(sums) if zero not in (a, b) and c != unit]
        del sums[rng.choice(pool)]
    elif kind == "supplement":
        pool = [i for i, (a, b, c) in enumerate(sums) if zero not in (a, b) and c == unit]
        del sums[rng.choice(pool)]
    else:
        entry = rng.choice(sums)
        entry[rng.randrange(3)] = "{unknown}"
    return {**doc, "sums": sums}


def cli_ops(workload: str, seed: int, workdir: Path, tracer=None) -> list[Op]:
    """Write the workload's input files and return its op list.

    `tracer`, when given, records `catalog.build` spans around the catalog
    constructors.
    """
    rng = random.Random(seed)
    ops: list[Op] = []

    def build(alg: Algebra) -> str:
        with _span(tracer, "catalog.build"):
            doc = catalog.build_spec(alg.spec).to_json_dict()
        path = workdir / f"a{len(ops):02d}.json"
        write_json(path, doc)
        return str(path)

    def add(command: str, path: str, alg, flags=(), invalid=None) -> None:
        name = alg.spec if alg else f"invalid-{invalid[0]}"
        ops.append(Op(f"{command} {name}", command, path, flags, alg, invalid))

    if workload == "cli_states":
        for alg in STATE_ALGEBRAS:
            path = build(alg)
            add("states", path, alg)
            add("clone-search", path, alg, ("--all",))
            add("hidden", path, alg)
    elif workload == "cli_structure":
        for alg in STRUCTURE_ALGEBRAS:
            path = build(alg)
            add("validate", path, alg)
            add("analyze", path, alg)
            add("clone-search", path, alg, ("--all",))
        path = build(BOOLEAN_5)
        add("validate", path, BOOLEAN_5)
        add("analyze", path, BOOLEAN_5)
        base = json.loads(Path(path).read_text(encoding="utf-8"))
        for invalid in INVALID:
            bad = workdir / f"invalid-{invalid[0]}.json"
            write_json(bad, corrupt(base, invalid[0], rng))
            add("validate", str(bad), None, invalid=invalid)
            add("analyze", str(bad), None, invalid=invalid)
    else:
        raise ValueError(f"unknown CLI workload {workload!r}")
    rng.shuffle(ops)
    return ops


def write_sweep_tables(seed: int, path: Path, tracer=None) -> None:
    """The lib_sweep input: fuzz.random_algebras(seed, ...) as JSON lines."""
    with _span(tracer, "fuzz.generate"):
        algs = fuzz.random_algebras(seed, SWEEP_COUNT, SWEEP_MAX_SIZE)
    path.write_text(
        "".join(json.dumps(a.to_json_dict()) + "\n" for a in algs), encoding="utf-8"
    )


def results_digest(results: dict) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check_cli(op: Op, code: int, stdout: str, golden: dict) -> str | None:
    """Why the op's output is wrong, or None when it is right."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, KeyError, TypeError):
        return f"exit {code}, no JSON report on stdout"
    if op.invalid is not None:
        _, want_code, error_class = op.invalid
        detail = results.get("violation") or results.get("error", "")
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        if error_class == "MalformedTable":
            return None if "unknown label" in detail else f"unexpected error {detail!r}"
        return None if detail.startswith(error_class) else f"unexpected error {detail!r}"
    want = golden["cli"].get(op.golden_key)
    if want is None:
        return "no golden copy"
    if code != want["exit"] or results_digest(results) != want["results_sha256"]:
        return f"exit {code} / results differ from the golden copy"
    return invariant_failure(op, code, results)


def invariant_failure(op: Op, code: int, results: dict) -> str | None:
    """Checks that follow from the theory of the catalog families."""
    alg = op.algebra
    if op.command == "validate" and not (code == 0 and results.get("valid")):
        return "valid algebra rejected"
    if op.command == "analyze":
        if results["is_boolean"] != alg.boolean or results["is_orthoalgebra"] != alg.ortho:
            return "analyze disagrees with the construction"
    if op.command == "clone-search" and alg.ortho:
        if (results["status"] == "witness-found") != alg.boolean:
            return "on an orthoalgebra a witness exists iff it is Boolean"
    if op.command == "states" and alg.vertices is not None:
        if results["vertex_count"] != alg.vertices:
            return f"{results['vertex_count']} vertex states, expected {alg.vertices}"
    if op.command == "hidden" and alg.boolean:
        if not (code == 0 and results["verification"]["passed"]):
            return "hidden-variable model fails on a Boolean algebra"
    return None
