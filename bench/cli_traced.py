"""Traced stand-in for one ``posbounds`` process.

Usage: ``PYTHONPATH=src python3 bench/cli_traced.py <posbounds args>``.

Imports ``posbounds.core``, ``posbounds.lelong`` (which carries numpy) and
``posbounds.cli`` in that order, each in its own span, builds the parser once
in a span, then calls ``cli.main(argv)`` with stdout captured and the module
functions wrapped.  Prints one JSON line ``{"code", "stdout", "spans"}`` and
exits with the CLI's exit code.
"""

import contextlib
import io
import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import_core"):
        import posbounds.core  # noqa: F401
    with tracer.span("cli.import_lelong"):
        import posbounds.lelong  # noqa: F401
    with tracer.span("cli.import_cli"):
        import posbounds.cli
    tracer.install([m for name, m in sys.modules.items() if name == "posbounds" or name.startswith("posbounds.")])
    with tracer.span("cli.build_parser"):
        posbounds.cli.build_parser()
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = posbounds.cli.main(argv)
    tracer.uninstall()
    print(json.dumps({"code": code, "stdout": captured.getvalue(), "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
