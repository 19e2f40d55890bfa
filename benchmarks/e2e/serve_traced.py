"""``repro serve`` with the benchmark's timing wrappers installed.

The runner starts this in place of ``python -m repro serve`` for the layer
pass of the HTTP workloads: the same CLI entry point, the same flags, with
:func:`layerspans.traced` around it.  ``SIGUSR1`` forgets the warm-up (and
prints ``RESET``); ``SIGTERM`` stops the server the way Ctrl-C would, after
which the span totals are written to the path given first on the command
line.

    python serve_traced.py SPANS.json serve --index IMAGE --port 0 ...
"""

from __future__ import annotations

import json
import signal
import sys


def main(out_path: str, argv: list[str]) -> int:
    from layerspans import SpanRecorder, traced
    from repro.cli import main as repro_main

    recorder = SpanRecorder()

    def forget_warmup(*_signal) -> None:
        recorder.reset()
        print("RESET", flush=True)

    def stop(*_signal) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGUSR1, forget_warmup)
    signal.signal(signal.SIGTERM, stop)
    with traced(recorder):
        try:
            return repro_main(argv)
        finally:
            with open(out_path, "w") as handle:
                json.dump(recorder.summary(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
