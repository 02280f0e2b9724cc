"""Traced CLI process: ``python3 clichild.py TRACE_JSON <tunneltimes args>``.

Runs ``tunneltimes.cli.main`` with the span tracer installed and writes the
per-function totals and the spans to TRACE_JSON, then exits with main's
status.
"""

import json
import sys

from spans import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    from tunneltimes import cli

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"totals": tracer.totals, "spans": tracer.spans}, out)


if __name__ == "__main__":
    sys.exit(main())
