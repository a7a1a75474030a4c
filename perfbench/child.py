"""Run one ``bsderisk`` command line in this process, with timing probes.

    python3 perfbench/child.py PROBE_FILE [--trace TRACE_FILE] -- <bsderisk arguments>

This is the package's console entry point (``bsderisk.cli.main``) plus two
probes installed from outside the package:

- always: the monotonic clock reading when the first ``simulate_paths``
  call returns, i.e. when the path bundle exists. It is written to
  PROBE_FILE as JSON. ``time.monotonic`` reads CLOCK_MONOTONIC, which the
  parent process shares, so the parent can subtract its own spawn time.
- with ``--trace``: every function in ``tracing.TARGETS`` is wrapped where
  its callers look it up, and the spans are written to TRACE_FILE as JSON
  when the command ends.

The exit code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    probe_file = opts[0]
    trace_file = opts[opts.index("--trace") + 1] if "--trace" in opts else None

    import bsderisk.cli

    import tracing

    probe = {"setup_end": None}

    def on_simulate_end():
        if probe["setup_end"] is None:
            probe["setup_end"] = time.monotonic()

    tracing.hook_after("bsderisk.market", "simulate_paths", on_simulate_end)
    recorder = tracing.Recorder()
    if trace_file is not None:
        recorder.install()
    try:
        return bsderisk.cli.main(cli_args)
    finally:
        with open(probe_file, "w", encoding="utf-8") as fh:
            json.dump(probe, fh)
        if trace_file is not None:
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
