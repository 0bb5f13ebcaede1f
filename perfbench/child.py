"""One scbench CLI process, as the benchmark launches it.

    python3 perfbench/child.py --stamp STAMP.json [--spans SPANS.jsonl] -- <cli args>

Imports `scbench.cli` (found through PYTHONPATH), writes the monotonic time at
which `cli_main` is entered, and the CPU time the process had used by then, to
STAMP.json, runs `cli_main` and exits with its code. With --spans it runs
`cli_main` under a root span with every module boundary instrumented and
writes the spans, one JSON object a line, at exit.
"""
from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    opts = dict(zip(own[::2], own[1::2]))

    from scbench.cli import cli_main

    stamp = {"entered": time.monotonic(), "cpu": time.process_time()}
    with open(opts["--stamp"], "w") as fh:
        json.dump(stamp, fh)
    if "--spans" not in opts:
        return cli_main(cli_args)

    from spans import Tracer, instrument

    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("cli_main", "cli"):
            code = cli_main(cli_args)
    with open(opts["--spans"], "w") as fh:
        for record in sorted(tracer.spans, key=lambda s: s["start"]):
            fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
