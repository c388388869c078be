"""One measured process: run a ubimap CLI command through ``cli.main``.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec names the source
directory, the CLI arguments, the hook whose calls stamp the clock, and
whether to trace or to stop at the hook's first call (a set-up probe,
which times set-up alone). The process writes its timings to the spec's result
path and exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's peak resident set (Linux ``VmHWM``). Not ``ru_maxrss``:
    after a fork and exec that also counts the parent's resident set."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import tracer
    import ubimap.cli as cli

    traced = tracer.Tracer() if spec["trace"] else None
    if traced is not None:
        traced.install()
    mod_name, attr = spec["hook"].split(".")
    clock = tracer.FrameClock(getattr(sys.modules["ubimap"], mod_name), attr, stop=spec["setup_only"])

    main_start = time.monotonic()
    try:
        code = cli.main(spec["argv"])
    except tracer.SetupReached:
        code = 0
    main_end = time.monotonic()
    result = {
        "exit": code,
        "main_start": main_start,
        "main_end": main_end,
        "hook_times": clock.times,
        "peak_rss_kb": peak_rss_kb(),
        "trace": traced.report() if traced is not None else None,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
