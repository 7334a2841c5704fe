"""Batch command-line interface.

Commands: validate, analyze, clone-search, states, hidden, catalog.
Exit codes: 0 success / property holds, 1 property fails or no witness,
2 invalid input, 3 resource abort (search node budget, `states` above the
state-enumeration carrier cap).

`main` reads and loads the input file, maps load errors to exit codes and
prints the one report; each file command is a function from the loaded
algebra and the parsed arguments to its results and exit code.  Start-up
imports only `algebra` and `reports`; each command imports the modules it
runs when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from . import algebra, reports

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_ABORTED = 3

# The largest carrier whose state polytope `states` and `clone-search`
# enumerate: above it `states` exits 3 and `clone-search` leaves out its
# state keys.
MAX_STATE_CARRIER = 32


def _read(path: str) -> tuple[str, str]:
    """The input file's digest and UTF-8 text; MalformedTable if unreadable.

    A file larger than reports.MAX_INPUT_BYTES is unreadable too.  The file
    is read once, so a pipe works and the digest is of the bytes parsed;
    they are decoded as text mode would, universal newlines included.
    """
    try:
        digest, data = reports.digest_file(path)
        return digest, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except (OSError, ValueError) as exc:  # UnicodeDecodeError, or past the cap
        raise algebra.MalformedTable(f"cannot read {path}: {exc}") from exc


@contextlib.contextmanager
def _stdout():
    """sys.stdout, flushed at the end; if the reader has gone, the rest of
    the output is dropped and the command goes on to its exit code."""
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout stays broken: point it at devnull so that the flush at
        # interpreter exit cannot raise again, and keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


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


def cmd_validate(alg, args) -> tuple[dict, int]:
    return {"valid": True}, EXIT_OK


def cmd_analyze(alg, args) -> tuple[dict, int]:
    return algebra.structure_report(alg).to_json_dict(alg), EXIT_OK


def cmd_clone_search(alg, args) -> tuple[dict, int]:
    from . import cloning

    if args.budget is None:
        args.budget = cloning.DEFAULT_NODE_BUDGET
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
    if alg.size <= MAX_STATE_CARRIER:  # above the cap the state keys are left out
        from . import states

        try:
            poly = states.enumerate_vertex_states(alg)
            results["state_space_separating"] = states.is_separating(alg, poly)[0]
        except states.EmptyStateSpace:
            results["state_space_separating"] = False
    if results.get("state_space_separating") is False:
        # without a separating state space the bimorphism criterion is
        # still decided, but its cloning-map reading is not asserted
        results["interpretation"] = (
            "state space is not separating; witness existence is reported "
            "at the bimorphism level only"
        )
    if outcome.status == "aborted":
        return results, EXIT_ABORTED
    return results, EXIT_OK if outcome.status == "witness-found" else EXIT_FAIL


def cmd_states(alg, args) -> tuple[dict, int]:
    from . import states

    if alg.size > MAX_STATE_CARRIER:
        cap = f"vertex enumeration supports carriers up to {MAX_STATE_CARRIER} elements"
        return {"error": f"{cap}, got {alg.size}"}, EXIT_ABORTED
    try:
        poly = states.enumerate_vertex_states(alg)
    except states.EmptyStateSpace as exc:
        return {"empty_state_space": True, "detail": str(exc)}, EXIT_FAIL
    separating, merged = states.is_separating(alg, poly)
    return {
        "vertex_count": len(poly.vertices),
        "affine_dimension": poly.affine_dimension,
        "vertices": poly.to_json_list(alg),
        "separating": separating,
        "merged_pairs": [[alg.labels[p], alg.labels[q]] for p, q in merged],
    }, EXIT_OK


def _unmet(reason: str) -> tuple[dict, int]:
    return {"hypothesis_met": False, "reason": reason}, EXIT_FAIL


def cmd_hidden(alg, args) -> tuple[dict, int]:
    from . import cloning

    if args.budget is None:
        args.budget = cloning.DEFAULT_NODE_BUDGET
    args.seed = algebra.DEFAULT_SEED  # main stamps it on the report
    outcome = cloning.find_cloning_bimorphism(alg, node_budget=args.budget)
    if outcome.status == "aborted":
        return {"error": "cloning search aborted"}, EXIT_ABORTED
    if outcome.status == "no-witness":
        return _unmet("no cloning witness exists")
    from . import mv, states

    if args.parts is not None:
        try:
            parts = tuple(alg.index(lbl) for lbl in _split_parts(args.parts))
        except algebra.MalformedTable as exc:
            return {"error": str(exc)}, EXIT_BAD_INPUT
    else:
        decomps = mv.find_chain_decomposition(alg)
        if not decomps:
            return _unmet("no chain decomposition of the unit exists")
        parts = decomps[0]
    # a witness exists only on Boolean algebras, whose vertex states are
    # their atoms: never empty, and at most 6 within the carrier cap
    poly = states.enumerate_vertex_states(alg)
    try:
        model = mv.hidden_variable_construct(alg, outcome.witnesses[0], parts)
    except mv.ConstructionFailed as exc:
        return _unmet(str(exc))
    verification = mv.verify_hidden_variable(model, poly)
    results = {
        "hypothesis_met": True,
        "model": model.to_json_dict(),
        "verification": verification.to_json_dict(),
    }
    return results, EXIT_OK if verification.passed else EXIT_FAIL


def cmd_catalog(args) -> int:
    """No input file; without -o the algebra's JSON is the whole output."""
    from . import catalog

    try:
        alg = catalog.build_spec(args.spec)
    except algebra.AlgebraError as exc:
        results, code = {"error": str(exc)}, EXIT_BAD_INPUT
    else:
        if not args.output:
            with _stdout() as out:
                print(alg.to_json(), file=out)
            return EXIT_OK
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(alg.to_json() + "\n")
        except OSError as exc:
            results = {"error": f"cannot write {args.output}: {exc}"}
            code = EXIT_BAD_INPUT
        else:
            results = {"spec": args.spec, "size": alg.size, "written": args.output}
            code = EXIT_OK
    with _stdout() as out:
        reports.emit(reports.make_report("catalog", results=results), args.format, out)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlogic",
        description="Finite quantum-logic workbench: effect algebras, cloning "
        "bimorphism search, exact state spaces, hidden-variable models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget(text: str) -> int:
        # argparse turns the ValueError into "invalid budget value" and exit 2
        value = int(text)
        if value < 0:
            raise ValueError(text)
        return value

    def file_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="algebra JSON file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )
        p.set_defaults(func=func)
        return p

    file_command("validate", cmd_validate, "check the effect-algebra axioms")
    file_command("analyze", cmd_analyze, "full structure report")
    p = file_command("clone-search", cmd_clone_search, "search for cloning bimorphisms")
    p.add_argument("--all", action="store_true", help="enumerate all witnesses")
    # --budget defaults to None: the command fills it in from cloning,
    # which building the parser does not import
    p.add_argument("--budget", type=budget, help="search node budget")
    file_command("states", cmd_states, "enumerate vertex states")
    p = file_command("hidden", cmd_hidden, "hidden-variable model construction")
    p.add_argument(
        "--parts",
        help="comma-separated part labels for the decomposition; commas "
        "inside (), {} or [] belong to a label",
    )
    p.add_argument("--budget", type=budget, help="cloning search node budget")

    p = sub.add_parser("catalog", help="emit a catalog algebra as JSON")
    p.add_argument("spec", help='constructor spec, e.g. "mo(2)" or "chain(3)"')
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "catalog":
        return cmd_catalog(args)
    digest, seed = None, None
    try:
        digest, text = _read(args.file)
        alg = algebra.from_json(text)
    except algebra.MalformedTable as exc:
        digest, code = None, EXIT_BAD_INPUT
        results = {"error": str(exc)}
        if args.command == "validate":
            results = {"valid": False, "error": str(exc)}
    except algebra.ValidationError as exc:
        code = EXIT_FAIL
        if args.command == "validate":
            results = {
                "valid": False,
                "violation": type(exc).__name__,
                "detail": str(exc),
                "witnesses": list(exc.witnesses),
            }
        else:
            digest, results = None, {"error": f"{type(exc).__name__}: {exc}"}
    else:
        results, code = args.func(alg, args)
        seed = getattr(args, "seed", None)  # read after hidden fills it in
    doc = reports.make_report(args.command, digest, seed, results)
    with _stdout() as out:
        reports.emit(doc, args.format, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
