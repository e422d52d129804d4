"""Bench-owned CLI entry point: `rangegov.cli.main` with the tracer installed.

    python3 bench/traced_cli.py SPANS_JSON -- <rangegov argv...>

Runs the same argv as `python -m rangegov`, writes the recorder summary plus
the wall time of `main()` to SPANS_JSON, and exits with main's exit code.
"""
import json
import sys
import time

import rangegov.cli

from tracer import Recorder, install


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        print("usage: traced_cli.py SPANS_JSON -- ARGV...", file=sys.stderr)
        return 2
    rec = Recorder()
    install(rec)
    start = time.perf_counter()
    try:
        rc = rangegov.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s, **rec.summary()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
