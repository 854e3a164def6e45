"""Run `hf2.cli.main` under the layer tracer, as a traced stand-in for
`python -m hf2.cli`.

    python3 perfbench/cli_shim.py TALLY_PATH -- verify --n 3 --box ...

Writes the spans and the span tally of this one process to TALLY_PATH and
exits with the CLI's own exit code.
"""

from __future__ import annotations

import json
import sys

import tracing


def main() -> int:
    tally_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_shim.py TALLY_PATH -- CLI ARGS...")
    from hf2 import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.root(" ".join(argv), cli.main, argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(tally_path, "w", encoding="utf-8") as fh:
            json.dump({"tally": tracer.tally(), "trace": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
