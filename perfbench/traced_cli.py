"""Run one groverlab command with spans around every cross-module call.

    python3 perfbench/traced_cli.py SPANS.npz trace --qubits 30

Behaves like ``python3 -m groverlab.cli`` (same stdout, stderr and exit
code) and writes the spans to SPANS.npz when the command ends.
"""

import sys

import groverlab.cli
from tracer import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.instrument()
    code = 0
    try:
        with tracer.span("cli"):
            groverlab.cli.cli.main(args=args, prog_name="groverlab")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
