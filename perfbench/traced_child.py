"""Traced entry point: `python3 traced_child.py SPANS_PATH ARGS...` runs
`fractaloid ARGS` like the console script does, with the tracer installed,
and writes the spans to SPANS_PATH when the CLI returns or raises."""

import sys

from tracing import Tracer


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import fractaloid.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", fractaloid.cli.main, (argv,), {})
    finally:
        tracer.dump(spans_path)
    sys.exit(code)


if __name__ == "__main__":
    main()
