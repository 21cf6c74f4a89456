"""covkit benchmark: run one workload of CLI documents and report its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload extremal --seed 1 --seconds 42 --trace 0

Load model: a closed loop with one client.  Documents run one at a time,
each in a fresh worker process that imports ``covkit.cli`` from ``src/`` and
times ``covkit.cli.main(argv)``, which is what a CLI user pays; no document's
caches help the next.  Workers run with BLAS threads pinned to 1 and an
address-space cap.  The corpus is run in whole passes until ``--seconds``
would be exceeded (at least one pass).  A document's time is its median over
the run, scaled to a reference machine speed (``REFERENCE_NUMPY_IMPORT_S``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` one
untraced pass is followed by traced passes, and the per-layer metrics come
from the spans of ``spans.py``.  Every output is checked with independent
numpy code (``check.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import gen
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_run"
CAP_BYTES = 3 << 30  # well under 8 GB of RAM; an uncapped S_4 instrument reached 7.6 GB
DOC_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0  # a run must end within 180 s even when documents hang
# Timings are reported at a reference machine speed: each is multiplied by
# REFERENCE_NUMPY_IMPORT_S over the run's median time for a worker to import
# numpy.  That import does not involve covkit, and on a two-core virtual
# machine sharing its host it slows by the same factor as covkit does during
# the minutes-long phases when the host is busy (up to +60%), which medians
# within a run cannot remove.
REFERENCE_NUMPY_IMPORT_S = 0.11
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {  # name -> unit
    "pass_s": "s",
    "top_doc_s": "s",
    "small_docs_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# span name -> the statistics reported for it; see README.md for what each
# should move.  Metric names are "<span>.<statistic>".
LAYER_STATS = {
    "numlin.null_space": ("self_s", "calls", "cells"),
    "numlin.constrained_commutant": ("self_s", "calls"),
    "numlin.psd_factor": ("self_s", "calls"),
    "numlin.lstsq_define": ("self_s", "calls"),
    "numlin.rank": ("self_s", "calls"),
    "numlin.psd_check": ("self_s", "calls"),
    "cstar.coefficients": ("self_s", "calls"),
    "cstar.element": ("self_s", "calls"),
    "cpmaps.ksgns": ("self_s",),
    "cpmaps.cp_validate": ("self_s",),
    "cpmaps.kraus_extract": ("self_s",),
    "cpmaps.cp_extremal": ("self_s",),
    "kernels.validate_kernel": ("self_s",),
    "kernels.kolmogorov_decompose": ("self_s",),
    "kernels.kernel_extremal": ("self_s",),
    "instruments.naimark": ("self_s",),
    "instruments.lambda_from_observable": ("self_s",),
    "instruments.observable_extremal": ("self_s",),
    "instruments.instrument_extremal": ("self_s",),
    "instruments.B_from_instrument": ("self_s",),
    "instruments.instrument_from_B": ("self_s",),
    "instruments.validate_instrument": ("self_s",),
    "instruments.validate_observable": ("self_s",),
    "instruments.phase_space": ("self_s",),
    "instruments.sample_stream": ("self_s",),
    "fingroup.irrep_decompose": ("self_s", "calls"),
    "fingroup.build": ("self_s",),
    "fingroup.validate": ("self_s",),
    "specfile.load": ("self_s",),
    "specfile.matrix_out": ("self_s", "calls"),
    "cli.main": ("self_s",),
}
STAT_UNITS = {"self_s": "s", "calls": "count", "cells": "count"}
EXTRA_LAYER = {"cli.import_s": "s", "trace.pass_s": "s", "trace.overhead_frac": "ratio"}


def worker_env():
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def write_corpus(docs, work):
    """Write each document's files; returns per-document argv lists."""
    argvs = []
    for i, doc in enumerate(docs):
        paths = {}
        for key, text in doc.files.items():
            paths[key] = os.path.join(work, f"doc{i:02d}_{key}.json")
            with open(paths[key], "w", encoding="utf-8") as handle:
                handle.write(text)
        argvs.append([paths.get(a, a) for a in doc.argv])
    return argvs


def run_doc(i, doc, argv, work, traced, deadline, verified):
    """One document in a fresh worker; returns a result dict.  ``verified``
    maps (document, exit code, stdout hash) to the check's verdict, so
    byte-identical output of a later run is not checked again."""
    job = {
        "argv": argv,
        "stdout": os.path.join(work, f"out{i:02d}.txt"),
        "result": os.path.join(work, f"res{i:02d}.json"),
        "cap_bytes": CAP_BYTES,
        "trace": traced,
    }
    for path in (job["stdout"], job["result"]):
        if os.path.exists(path):
            os.remove(path)
    job_path = os.path.join(work, f"job{i:02d}.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    timeout = min(DOC_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        return {"outcome": "not run: deadline"}
    with open(os.path.join(work, f"err{i:02d}.txt"), "w", encoding="utf-8") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path, repr(spawn)],
            stdout=err,
            stderr=err,
            env=worker_env(),
        )
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"outcome": "timeout"}
    wall_s = time.monotonic() - spawn
    if not os.path.exists(job["result"]):
        return {"outcome": f"worker died with status {proc.returncode}"}
    with open(job["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    result["wall_s"] = wall_s
    if result["outcome"] != "ok":
        return result
    with open(job["stdout"], encoding="utf-8") as handle:
        stdout = handle.read()
    result["stdout_sha"] = hashlib.sha256(stdout.encode()).hexdigest()
    key = (i, result["code"], result["stdout_sha"])
    if key not in verified:
        verified[key] = check.check(doc, result["code"], stdout)
    result["problems"], result["facts"] = verified[key]
    if result["problems"]:
        result["outcome"] = "; ".join(result["problems"])
    return result


def pass_order(docs, traced):
    """Document indices of one pass: each once, in order, plus the extra
    repeats of untraced passes spread evenly over the pass."""
    order = list(range(len(docs)))
    if traced:
        return order
    for i, doc in enumerate(docs):
        for r in range(1, doc.repeats):
            order.insert(round(r * len(order) / doc.repeats), i)
    return order


def run_pass(docs, argvs, work, traced, deadline, verified):
    """One pass: a list of (document index, result)."""
    return [
        (i, run_doc(i, docs[i], argvs[i], work, traced, deadline, verified))
        for i in pass_order(docs, traced)
    ]


def corpus_times(docs, passes):
    """(pass_s, top_doc_s, small_docs_s) from each document's median time
    over every run of it in ``passes``."""
    samples = [[] for _ in docs]
    for results in passes:
        for i, r in results:
            samples[i].append(r["main_s"])
    times = [statistics.median(s) for s in samples]
    top = next(t for doc, t in zip(docs, times) if doc.top)
    return sum(times), top, sum(times) - top


def layer_totals(results):
    """Per span name: summed self time, call count and null-space cells."""
    totals = {}
    for _, r in results:
        recorded = r.get("spans") or []
        for span, self_s in zip(recorded, spans.self_times(recorded)):
            t = totals.setdefault(span[0], {"self_s": 0.0, "calls": 0, "cells": 0})
            t["self_s"] += self_s
            t["calls"] += 1
            t["cells"] += span[4]
    return totals


def environment():
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas_info = config["Build Dependencies"]["blas"]
        blas = f'{blas_info.get("name")} {blas_info.get("version")}'
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "cap_bytes": CAP_BYTES,
        "doc_timeout_s": DOC_TIMEOUT_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "covkit", "cli.py")):
        print("bench: src/covkit not found; run from the repository root", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    docs = gen.corpus(args.workload, args.seed)
    work = os.path.join(WORK_DIR, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argvs = write_corpus(docs, work)

    passes = []  # (traced, whole, results); a pass that is not whole ran only the documents that fit
    verified = {}
    budget_end = started + args.seconds
    if args.trace:
        passes.append((False, True, run_pass(docs, argvs, work, False, deadline, verified)))
    while True:
        t0 = time.monotonic()
        passes.append((bool(args.trace), True, run_pass(docs, argvs, work, bool(args.trace), deadline, verified)))
        if 2 * time.monotonic() - t0 > budget_end:
            break
    if not args.trace:
        # spend the rest of the budget on the documents that still fit, so
        # small documents get more samples when a long one would overrun
        wall = {i: r.get("wall_s", float("inf")) for i, r in passes[-1][2]}
        while True:
            fill = [
                (i, run_doc(i, docs[i], argvs[i], work, False, deadline, verified))
                for i in pass_order(docs, False)
                if time.monotonic() + wall[i] <= budget_end
            ]
            if not fill:
                break
            passes.append((False, False, fill))

    attempted = sum(len(results) for _, _, results in passes)
    failures = [(docs[i].id, r["outcome"]) for _, _, results in passes for i, r in results if r["outcome"] != "ok"]
    first = dict(passes[0][2][::-1])  # each document's first run
    facts = [f"{doc.id}: {first[i].get('facts', first[i]['outcome'])}" for i, doc in enumerate(docs)]
    for line in facts:
        print(f"digest {line}")
    print(f"digest-sha256 {args.workload}: {hashlib.sha256(chr(10).join(facts).encode()).hexdigest()}")
    for doc_id, outcome in failures:
        print(f"FAILED {doc_id}: {outcome}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(f"passes={len(passes)} documents={len(docs)} attempted={attempted} failed={len(failures)} fail_frac={len(failures) / attempted}")

    metrics = {}
    if not failures:
        for k, (traced, whole, results) in enumerate(passes):
            if not whole:
                print(f"pass {k}: {len(results)} documents that fit the remaining time")
                continue
            total, top, _ = corpus_times(docs, [results])
            print(f"pass {k} traced={int(traced)}: raw pass_s={total:.4f} top_doc_s={top:.4f}")
        measured = [results for traced, _, results in passes if traced == bool(args.trace)]
        workers = [r for _, _, results in passes for _, r in results]
        setup = statistics.median(r["import_s"] for r in workers)
        numpy_s = statistics.median(r["numpy_s"] for r in workers)
        scale = REFERENCE_NUMPY_IMPORT_S / numpy_s
        print(f"calibration: median numpy import {numpy_s!r} s, time scale {scale!r}")
        if args.trace:
            totals = [layer_totals(results) for results in measured]
            for span_name, stats in LAYER_STATS.items():
                for stat in stats:
                    value = statistics.median(t.get(span_name, {}).get(stat, 0) for t in totals)
                    metrics[f"{span_name}.{stat}"] = {"value": value, "unit": STAT_UNITS[stat]}
            traced_s = corpus_times(docs, measured)[0]
            untraced_s = corpus_times(docs, [passes[0][2]])[0]
            metrics["cli.import_s"] = {"value": setup, "unit": "s"}
            metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.overhead_frac"] = {"value": traced_s / untraced_s - 1.0, "unit": "ratio"}
        else:
            total, top, small = corpus_times(docs, measured)
            peak = max(r["peak_rss_mb"] for results in measured for _, r in results)
            for name, value in zip(END_TO_END, (total, top, small, peak, setup)):
                metrics[name] = {"value": value, "unit": END_TO_END[name]}
        for name, m in metrics.items():
            if m["unit"] == "s":
                print(f"raw {name} = {m['value']!r} s")
                m["value"] *= scale
            print(f"metric {name} = {m['value']!r} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
