"""Start ``repro.serve`` with every layer entry point wrapped by a timer.

Usage: ``python perfbench/traced_server.py TRACE.jsonl [repro.serve args]``

The server runs exactly as ``python -m repro.serve`` would; the spans are
written to ``TRACE.jsonl`` once it has shut down (on SIGINT).
"""

import runpy
import sys

from tracing import SpanRecorder, install


def main() -> None:
    out = sys.argv[1]
    recorder = SpanRecorder()
    install(recorder)
    sys.argv = ["repro.serve"] + sys.argv[2:]
    try:
        runpy.run_module("repro.serve", run_name="__main__", alter_sys=True)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    main()
