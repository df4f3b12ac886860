"""Traced CLI child: install the span wrappers, run ``qmeasure.cli.main``
on the given arguments, and write the spans as JSON.

Usage: python perfbench/cli_child.py SPANS_OUT ARG...
"""

import json
import sys

import qmeasure.cli

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = qmeasure.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
