"""Run one hyperprop CLI command in-process with the span recorders on.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Calls ``hyperprop.cli.main(CLI_ARG...)`` under `tracer.tracing`, writes
the recorded spans to SPANS_JSON when the command ends, and exits with
the command's exit code.
"""

from __future__ import annotations

import sys

from tracer import Recorder, tracing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import hyperprop.cli

    recorder = Recorder()
    with tracing(recorder):
        code = hyperprop.cli.main(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
