"""One lib_sweep pass, run in a fresh interpreter.

    python perfbench/sweep.py TABLES OUT_JSON [SPANS_JSON]

TABLES holds one algebra document per line. Each algebra is loaded and goes
through structure_report, find_cloning_bimorphism(enumerate_all=True) with
the witness lemmas, and enumerate_vertex_states with is_separating; algebras
with a witness also get the hidden-variable decomposition, construction and
verification. Invariants are checked per algebra. OUT_JSON receives the
count, the algebras that fail an invariant, a digest of the outcomes and
the wall time of each algebra's checks, and the times of the speed
reference (speed.py) run before every CHUNK algebras and after the last.
With SPANS_JSON the layer calls are traced and the spans written there.
"""

import hashlib
import json
import sys
import time

import speed

CHUNK = 10


def check_algebra(text, algebra, cloning, mv, states):
    """(outcome row, list of invariant failures) for one algebra document."""
    alg = algebra.from_json(text)
    report = algebra.structure_report(alg)
    outcome = cloning.find_cloning_bimorphism(alg, enumerate_all=True)
    found = outcome.status == "witness-found"
    problems = []
    if outcome.status == "aborted":
        problems.append("cloning search aborted")
    if report.is_orthoalgebra:
        if found != report.is_boolean:
            problems.append(f"witness found: {found}, but is_boolean: {report.is_boolean}")
        for witness in outcome.witnesses:
            if not cloning.check_witness_lemmas(alg, witness).passed:
                problems.append("witness lemma fails")
    poly = states.enumerate_vertex_states(alg)
    separating, _ = states.is_separating(alg, poly)
    if report.is_boolean and (len(poly.vertices) != len(report.atoms) or not separating):
        problems.append(
            f"Boolean algebra with {len(report.atoms)} atoms has "
            f"{len(poly.vertices)} vertex states, separating: {separating}"
        )
    hidden = None
    if found:
        decomps = mv.find_chain_decomposition(alg)
        if not decomps:
            problems.append("witness found but no chain decomposition of the unit")
        else:
            model = mv.hidden_variable_construct(alg, outcome.witnesses[0], decomps[0])
            hidden = mv.verify_hidden_variable(model, poly).passed
            if not hidden:
                problems.append("hidden-variable verification fails")
    row = [
        alg.size,
        report.is_orthoalgebra,
        report.is_boolean,
        outcome.status,
        outcome.nodes_explored,
        len(outcome.witnesses),
        len(poly.vertices),
        separating,
        hidden,
    ]
    return row, problems


def main() -> int:
    tables, out_path = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer("sweep")
        tracer.install()
    from qlogic import algebra, cloning, mv, states

    with open(tables, encoding="utf-8") as handle:
        texts = handle.read().splitlines()
    rows, failures, times, refs = [], [], [], []
    for i, text in enumerate(texts):
        if i % CHUNK == 0:
            refs.append(speed.reference())
        start = time.perf_counter()
        try:
            row, problems = check_algebra(text, algebra, cloning, mv, states)
        except algebra.AlgebraError as exc:
            row, problems = None, [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - start)
        rows.append(row)
        if problems:
            failures.append(f"algebra {i}: " + "; ".join(problems))
    refs.append(speed.reference())
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    report = {
        "algebras": len(texts),
        "failures": failures,
        "digest": digest,
        "times": times,
        "refs": refs,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
