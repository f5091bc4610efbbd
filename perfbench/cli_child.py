"""One traced CLI call: ``python cli_child.py TRACE_FILE <wildcycle args>``.

Times ``import wildcycle.cli`` as the ``cli.import`` span, wraps the engine
with the tracer, runs ``wildcycle.cli.main`` on the remaining arguments and
writes the counts and spans to TRACE_FILE.  The report goes to stdout exactly
as ``python -m wildcycle.cli`` would print it; the exit code is the CLI's.
"""

import json
import sys
import time


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wildcycle.cli as cli
    t1 = time.perf_counter()
    from tracer import Tracer
    tracer = Tracer()
    tracer.add_span("cli.import", t0, t1)
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
