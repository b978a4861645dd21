"""Run one ``aag.cli`` command with tracing on, then write its spans.

    python3 bench/traced_cli.py SPANS_JSON report generate ...

The traced counterpart of ``python -m aag.cli`` for the ``cli_cold``
workload; exits with the CLI's own code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_file, args = sys.argv[1], sys.argv[2:]
    from aag import cli

    tracer = Tracer()
    tracer.install()
    try:
        tracer.call_report(lambda: cli.main(args, standalone_mode=False))
    except SystemExit as e:
        return e.code
    finally:
        with open(spans_file, "w") as fh:
            json.dump(tracer.dump(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
