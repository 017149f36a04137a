"""Run one traced `ldptune` CLI command in this process.

    python3 perfbench/child.py SPANS_PATH RUN_ID -- <ldptune arguments>

Imports `ldptune` inside a `setup` span, installs the layer wrappers, runs
`ldptune.cli.main` and writes the spans to SPANS_PATH.  The exit code is
the CLI's.  Untraced runs use `python3 -m ldptune.cli` directly instead.
"""

import sys

from tracer import Recorder


def main() -> int:
    spans_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SPANS_PATH RUN_ID -- ARGS...")
    rec = Recorder(run_id)
    span = rec.open("setup.import", "setup")
    import ldptune
    import ldptune.cli
    rec.close(span)
    rec.install(ldptune)
    code = ldptune.cli.main(argv)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
