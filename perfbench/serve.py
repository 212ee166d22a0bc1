"""Run the fleet server (``cbtc serve``) in this process.

    python3 perfbench/serve.py [--trace-out FILE] serve --inline --port 0 ...

With ``--trace-out``, every layer of ``layers.SPANS`` is wrapped before the
server starts.  SIGUSR1 opens the measured window (the spans so far are
discarded) and SIGUSR2 closes it; on clean shutdown the window's spans and
the CPU seconds the server spent in it are written to FILE as JSON.  The
benchmark sends both signals while the server is idle, around the timed
requests of a round.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    window = {"opened": 0.0, "payload": None}

    def open_window(signum, frame) -> None:
        tracer.reset()
        window["opened"] = time.process_time()

    def close_window(signum, frame) -> None:
        payload = tracer.snapshot()
        payload["cpu_s"] = time.process_time() - window["opened"]
        window["payload"] = payload

    signal.signal(signal.SIGUSR1, open_window)
    signal.signal(signal.SIGUSR2, close_window)
    code = cli_main(argv)
    if window["payload"] is None:
        print("serve.py: the measured window was never closed", file=sys.stderr)
        return 1
    with open(trace_out, "w") as handle:
        json.dump(window["payload"], handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
