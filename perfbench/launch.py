"""Run the mipdetect CLI with its layers traced.

    python3 perfbench/launch.py SPANS_JSON CLI_ARGS...

Wraps the module attributes listed in layers.TARGETS, calls
``mipdetect.cli.main(CLI_ARGS)`` inside a ``cli.main`` span, then times the
subset-draw probe of the first sweep, writes every span to SPANS_JSON and
exits with the CLI's exit code. ``src`` must be on PYTHONPATH.
"""

import json
import sys

from layers import SweepProbe
from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    probe = SweepProbe()
    tracer.install(probe.targets())
    import mipdetect.cli

    try:
        with tracer.span("cli.main"):
            code = mipdetect.cli.main(argv)
    finally:
        tracer.uninstall()
    probe.run(tracer)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
