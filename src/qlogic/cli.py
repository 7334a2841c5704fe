"""Batch command-line interface.

Commands: validate, analyze, clone-search, states, hidden, catalog.
Exit codes: 0 success / property holds, 1 property fails or no witness,
2 invalid input, 3 resource abort.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import algebra, catalog, cloning, mv, reports, states

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_ABORTED = 3


def _read(path: str) -> tuple[str, str]:
    """The input file's digest and UTF-8 text; MalformedTable if unreadable."""
    try:
        digest = reports.digest_file(path)
        with open(path, "r", encoding="utf-8") as handle:
            return digest, handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise algebra.MalformedTable(f"cannot read {path}: {exc}") from exc


def _write(text: str) -> None:
    """Print to stdout; if the reader has gone, drop the output and go on."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout stays broken: point it at devnull so that the flush at
        # interpreter exit cannot raise again, and keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print(doc: dict, fmt: str) -> None:
    _write(reports.emit(doc, fmt))


def _split_parts(text: str) -> list[str]:
    """Split on the commas outside (), {} and [], which labels may contain."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def cmd_validate(args) -> int:
    results: dict = {}
    try:
        digest, text = _read(args.file)
        algebra.from_json(text)
    except algebra.ValidationError as exc:
        results = {
            "valid": False,
            "violation": type(exc).__name__,
            "detail": str(exc),
            "witnesses": list(exc.witnesses),
        }
        _print(reports.make_report("validate", digest, None, results), args.format)
        return EXIT_FAIL
    except algebra.MalformedTable as exc:
        _print(
            reports.make_report(
                "validate", None, None, {"valid": False, "error": str(exc)}
            ),
            args.format,
        )
        return EXIT_BAD_INPUT
    results = {"valid": True}
    _print(reports.make_report("validate", digest, None, results), args.format)
    return EXIT_OK


def _load_or_report(args, command):
    try:
        digest, text = _read(args.file)
        return algebra.from_json(text), digest, None
    except algebra.ValidationError as exc:
        doc = reports.make_report(
            command, None, None, {"error": f"{type(exc).__name__}: {exc}"}
        )
        _print(doc, args.format)
        return None, None, EXIT_FAIL
    except algebra.MalformedTable as exc:
        doc = reports.make_report(command, None, None, {"error": str(exc)})
        _print(doc, args.format)
        return None, None, EXIT_BAD_INPUT


def cmd_analyze(args) -> int:
    alg, digest, err = _load_or_report(args, "analyze")
    if alg is None:
        return err
    report = algebra.structure_report(alg)
    doc = reports.make_report("analyze", digest, None, report.to_json_dict(alg))
    _print(doc, args.format)
    return EXIT_OK


def cmd_clone_search(args) -> int:
    alg, digest, err = _load_or_report(args, "clone-search")
    if alg is None:
        return err
    outcome = cloning.find_cloning_bimorphism(
        alg, enumerate_all=args.all, node_budget=args.budget
    )
    results = outcome.to_json_dict()
    results["witness_symmetric"] = [w.is_symmetric() for w in outcome.witnesses]
    ortho, _ = algebra.is_orthoalgebra(alg)
    if outcome.witnesses and ortho:
        results["lemma_checks"] = [
            cloning.check_witness_lemmas(alg, w).to_json_dict()
            for w in outcome.witnesses
        ]
    if alg.size <= states.MAX_STATE_CARRIER:
        try:
            poly = states.enumerate_vertex_states(alg)
            separating, _ = states.is_separating(alg, poly)
        except states.EmptyStateSpace:
            separating = False
        results["state_space_separating"] = separating
        if not separating:
            # without a separating state space the bimorphism criterion is
            # still decided, but its cloning-map reading is not asserted
            results["interpretation"] = (
                "state space is not separating; witness existence is reported "
                "at the bimorphism level only"
            )
    doc = reports.make_report("clone-search", digest, None, results)
    _print(doc, args.format)
    if outcome.status == "aborted":
        return EXIT_ABORTED
    return EXIT_OK if outcome.status == "witness-found" else EXIT_FAIL


def cmd_states(args) -> int:
    alg, digest, err = _load_or_report(args, "states")
    if alg is None:
        return err
    try:
        poly = states.enumerate_vertex_states(alg)
    except states.EmptyStateSpace as exc:
        doc = reports.make_report(
            "states",
            digest,
            None,
            {"empty_state_space": True, "detail": str(exc)},
        )
        _print(doc, args.format)
        return EXIT_FAIL
    separating, merged = states.is_separating(alg, poly)
    results = {
        "vertex_count": len(poly.vertices),
        "affine_dimension": poly.affine_dimension,
        "vertices": poly.to_json_list(alg),
        "separating": separating,
        "merged_pairs": [[alg.labels[p], alg.labels[q]] for p, q in merged],
    }
    doc = reports.make_report("states", digest, None, results)
    _print(doc, args.format)
    return EXIT_OK


def cmd_hidden(args) -> int:
    alg, digest, err = _load_or_report(args, "hidden")
    if alg is None:
        return err

    def unmet(reason: str) -> int:
        doc = reports.make_report(
            "hidden",
            digest,
            args.seed,
            {"hypothesis_met": False, "reason": reason},
        )
        _print(doc, args.format)
        return EXIT_FAIL

    outcome = cloning.find_cloning_bimorphism(alg, node_budget=args.budget)
    if outcome.status == "aborted":
        doc = reports.make_report(
            "hidden", digest, args.seed, {"error": "cloning search aborted"}
        )
        _print(doc, args.format)
        return EXIT_ABORTED
    if outcome.status == "no-witness":
        return unmet("no cloning witness exists")
    witness = outcome.witnesses[0]

    if args.parts:
        try:
            parts = tuple(alg.index(lbl) for lbl in _split_parts(args.parts))
        except algebra.MalformedTable as exc:
            doc = reports.make_report("hidden", digest, args.seed, {"error": str(exc)})
            _print(doc, args.format)
            return EXIT_BAD_INPUT
    else:
        decomps = mv.find_chain_decomposition(alg)
        if not decomps:
            return unmet("no chain decomposition of the unit exists")
        parts = decomps[0]

    try:
        model = mv.hidden_variable_construct(alg, witness, parts)
    except mv.ConstructionFailed as exc:
        return unmet(str(exc))
    try:
        poly = states.enumerate_vertex_states(alg)
    except states.EmptyStateSpace:
        return unmet("the algebra has no states")
    verification = mv.verify_hidden_variable(model, poly, seed=args.seed)
    results = {
        "hypothesis_met": True,
        "model": model.to_json_dict(),
        "verification": verification.to_json_dict(),
    }
    doc = reports.make_report("hidden", digest, args.seed, results)
    _print(doc, args.format)
    return EXIT_OK if verification.passed else EXIT_FAIL


def cmd_catalog(args) -> int:
    try:
        alg = catalog.build_spec(args.spec)
    except (catalog.BoundExceeded, algebra.AlgebraError, TypeError) as exc:
        doc = reports.make_report("catalog", None, None, {"error": str(exc)})
        _print(doc, args.format)
        return EXIT_BAD_INPUT
    text = alg.to_json()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            doc = reports.make_report(
                "catalog", None, None, {"error": f"cannot write {args.output}: {exc}"}
            )
            _print(doc, args.format)
            return EXIT_BAD_INPUT
        doc = reports.make_report(
            "catalog",
            None,
            None,
            {"spec": args.spec, "size": alg.size, "written": args.output},
        )
        _print(doc, args.format)
    else:
        _write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlogic",
        description="Finite quantum-logic workbench: effect algebras, cloning "
        "bimorphism search, exact state spaces, hidden-variable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="algebra JSON file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("validate", help="check the effect-algebra axioms")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full structure report")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("clone-search", help="search for cloning bimorphisms")
    common(p)
    p.add_argument("--all", action="store_true", help="enumerate all witnesses")
    p.add_argument(
        "--budget",
        type=int,
        default=cloning.DEFAULT_NODE_BUDGET,
        help="search node budget",
    )
    p.set_defaults(func=cmd_clone_search)

    p = sub.add_parser("states", help="enumerate vertex states")
    common(p)
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("hidden", help="hidden-variable model construction")
    common(p)
    p.add_argument(
        "--parts",
        help="comma-separated part labels for the decomposition; commas "
        "inside (), {} or [] belong to a label",
    )
    p.add_argument("--seed", type=int, default=mv.DEFAULT_SEED)
    p.add_argument(
        "--budget",
        type=int,
        default=cloning.DEFAULT_NODE_BUDGET,
        help="cloning search node budget",
    )
    p.set_defaults(func=cmd_hidden)

    p = sub.add_parser("catalog", help="emit a catalog algebra as JSON")
    p.add_argument("spec", help='constructor spec, e.g. "mo(2)" or "chain(3)"')
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
