"""Run one ``force`` command with layer spans (traced cli-cold operations).

Usage::

    python -X importtime perfbench/cli_child.py SPANFILE ARG...

behaves like ``python -m repro.pipeline.cli ARG...`` and also writes the
spans of the command to SPANFILE: ``imports`` around the CLI's import,
``pipeline.cli`` around ``main``, and the layer spans of
:mod:`perfbench.spans` inside it.  Nothing is imported before ``repro``,
so the command's import profile is the one a user gets.
"""

import os
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)


def main() -> int:
    spanfile, argv = sys.argv[1], sys.argv[2:]
    sys.path[0] = os.path.join(_ROOT, "src")
    started = perf_counter()
    import repro.pipeline.cli as cli
    imported = perf_counter()
    sys.path.insert(0, _ROOT)
    from perfbench.spans import Span, Tracer, install

    tracer = Tracer()
    imports = Span("imports", started, None, 0)
    imports.end = imported
    tracer.spans.append(imports)
    install(tracer, import_all=False)
    span = tracer.open("pipeline.cli", op=0)
    try:
        return cli.main(argv)
    finally:
        tracer.close(span)
        tracer.dump(spanfile)


if __name__ == "__main__":
    sys.exit(main())
