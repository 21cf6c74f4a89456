"""Run one covkit CLI invocation in this fresh process and time it.

Usage: python3 bench/worker.py JOB_JSON SPAWN_TIME

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time covers interpreter start and the import of
``covkit.cli``.  The time to import numpy, which involves no covkit code, is
recorded apart for the parent's calibration.  The job names the CLI
arguments, where stdout goes, the address-space cap, whether to trace, and
where to write the result.
"""

import json
import os
import resource
import sys
import time


def main():
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    spawn = float(sys.argv[2])
    cap = int(job["cap_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import numpy  # noqa: F401  (timed apart: it does not depend on covkit)

    numpy_s = time.monotonic() - spawn
    import covkit.cli

    import_s = time.monotonic() - spawn
    recorder = None
    if job["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    outcome = "ok"
    with open(job["stdout"], "w", encoding="utf-8") as out:
        sys.stdout = out
        start = time.perf_counter()
        try:
            code = covkit.cli.main(job["argv"])
        except MemoryError:
            code, outcome = None, "memory"
        elapsed = time.perf_counter() - start
        sys.stdout = sys.__stdout__
    result = {
        "code": code,
        "outcome": outcome,
        "main_s": elapsed,
        "import_s": import_s,
        "numpy_s": numpy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.spans if recorder else None,
    }
    # written whole or not at all, so the parent never reads a partial result
    partial = job["result"] + ".part"
    with open(partial, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(partial, job["result"])


if __name__ == "__main__":
    main()
