"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Used only by traced ``serve_mixed`` runs; untraced runs start the
program's own ``python -m repro.cli serve``. Usage::

    python3 perfbench/serve_boot.py SPANS_OUT serve --port 0 --workers 1

The spans recorded in the server process are written to ``SPANS_OUT``
when the server returns (after its SIGTERM drain).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as spanlib  # noqa: E402


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    from repro import cli
    from repro.serve import app  # noqa: F401  (loaded so install can wrap it)

    tracer = spanlib.Spans()
    spanlib.install(tracer, serve=True)
    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_out, "server")


if __name__ == "__main__":
    sys.exit(main())
