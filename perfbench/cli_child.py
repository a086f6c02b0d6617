"""A traced CLI process for cli-jobs: installs the span wrappers, runs the
CLI's own entry point and writes the spans it recorded.

    python3 perfbench/cli_child.py SPANS_FILE <specpreserve.cli arguments>
"""

from __future__ import annotations

import json
import sys

import tracing


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import specpreserve.cli

    try:
        return specpreserve.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
