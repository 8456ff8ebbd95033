"""Run one ``pstwalk`` command in this fresh interpreter and report on it.

    python3 child.py RECORD.json run|trace -- PSTWALK-ARGS...

Writes RECORD.json with the monotonic time at which ``pstwalk.cli`` finished
importing, the exit code, this process's peak resident set, and the file
every loaded pstwalk module came from.  ``trace`` installs the outside-in
tracer before ``pstwalk.cli.main`` runs; its counters go into the record and
its spans into ``spans.bin`` beside it.
"""

import json
import os
import sys
import time


def peak_rss_kb() -> int | None:
    """VmHWM: the peak resident set of this process image since exec.

    ``wait4`` reports the larger of this and the spawning parent's own peak,
    which Linux carries across fork and exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> int:
    record_path, mode, sep, *argv = sys.argv[1:]
    if mode not in ("run", "trace") or sep != "--":
        raise SystemExit("usage: child.py RECORD.json run|trace -- PSTWALK-ARGS...")
    import pstwalk.cli

    imported = time.monotonic()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = pstwalk.cli.main(argv)
    record = {
        "imported": imported,
        "code": code,
        "peak_rss_kb": peak_rss_kb(),
        "modules": {
            name: module.__file__
            for name, module in sorted(sys.modules.items())
            if name == "pstwalk" or name.startswith("pstwalk.")
        },
    }
    if tracer is not None:
        record["trace"] = tracer.record()
        tracer.write_spans(os.path.join(os.path.dirname(record_path), "spans.bin"))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
