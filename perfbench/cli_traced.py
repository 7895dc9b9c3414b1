"""Run `phisoft.cli` with spans around its calls into the other layers.

Usage: python cli_traced.py SPANS_OUT <phisoft cli arguments...>

The CLI module's references to the io parsers/writer and to `decide` are
swapped for timed wrappers (decide becomes combine -> decide_single, as in
layers.py); the package itself is untouched.  Whatever the process spends
outside these spans -- interpreter start, imports, file reads and writes,
the stdout table -- is the CLI layer's own time.  Spans are written to
SPANS_OUT after `main` returns.
"""

import sys
from pathlib import Path

from phisoft import cli

import layers
from tracing import Tracer


def _timed(tracer, name, fn, counter):
    def wrapper(arg):
        with tracer.span(name):
            out = fn(arg)
        tracer.count(*counter(arg, out))
        return out
    return wrapper


def main(spans_out: str, argv: list[str]) -> int:
    tracer = Tracer("cli")
    cli.parse_csv = _timed(tracer, "io.parse_csv", cli.parse_csv,
                           lambda data, _: ("io.bytes_in", len(data)))
    cli.parse_json = _timed(tracer, "io.parse_json", cli.parse_json,
                            lambda data, _: ("io.bytes_in", len(data)))
    cli.emit_json = _timed(tracer, "io.emit_json", cli.emit_json,
                           lambda _, out: ("io.bytes_out", len(out)))
    cli.decide = lambda a, b, cfg: layers.traced_decide(tracer, a, b, cfg)
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(Path(spans_out))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
