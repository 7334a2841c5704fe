"""Traced stand-in for `python -m qlogic.cli`.

    python perfbench/launch.py SPANS_JSON OP_ID CLI_ARGS...

Imports qlogic.cli under a `cli.import` span, wraps the layer functions the
CLI calls (see tracing.LAYERS), runs `qlogic.cli.main(CLI_ARGS)` and writes
the spans to SPANS_JSON before exiting with the CLI's exit code.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, op = sys.argv[1], sys.argv[2]
    tracer = Tracer(op)
    with tracer.span("cli.import"):
        import qlogic.cli
    tracer.install()
    try:
        return qlogic.cli.main(sys.argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
