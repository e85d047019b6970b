"""Run the thermoait CLI in this process with the tracer installed.

    python3 perfbench/launch.py SPANS_OUT [CLI ARGS...]

Behaves like ``python -m thermoait.cli CLI ARGS...`` (same output, same
exit code) and writes the recorded spans to SPANS_OUT.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402  (needs the path set above)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tracer.install()
    from thermoait import cli
    code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out, {"weight_chain_entries": tr.weight_chain_entries()})
    return code


if __name__ == "__main__":
    sys.exit(main())
