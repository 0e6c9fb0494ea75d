"""Run one sqst command with the layer tracer on, then save its spans.

Usage: python3 perfbench/cli_child.py SPANS_JSON <sqst arguments>...

The benchmark's traced cli_pipeline pass starts this in place of
``python -m sqst.cli``; the exit code is the command's.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from sqst import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.on = True
    _, code = tracer.call("cli.main", cli.main, argv)
    tracer.on = False
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
