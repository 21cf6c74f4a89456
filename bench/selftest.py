"""Self-test of the benchmark harness (about three minutes on two cores).

Usage (from the repository root): python3 bench/selftest.py

Checks, printing one line each and exiting 1 on the first failure:

1. the generator imports no covkit and writes byte-identical documents with
   and without ``src/`` on the path;
2. BENCHMARK.json names exactly the metrics run.py reports;
3. ``numlin.null_space.calls`` and ``.cells`` are identical across two traced
   runs and two seeds of ``extremal``, and ``calls`` is 0 on ``dilate`` and
   ``validate-sample``;
4. spans nest inside their parents and self times sum to the root span;
5. traced and untraced workers print byte-identical stdout per document;
6. the harness exits non-zero, printing no result, without ``src/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import gen
import run
import spans

GEN_PROBE = (
    "import hashlib, sys; sys.path.insert(0, 'bench'); import gen; h = hashlib.sha256()\n"
    "for w in gen.WORKLOADS:\n"
    "    for doc in gen.corpus(w, 7):\n"
    "        for key in sorted(doc.files): h.update(doc.files[key].encode())\n"
    "print(h.hexdigest(), any(m.split('.')[0] == 'covkit' for m in sys.modules))\n"
)


def ok(cond, message):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        sys.exit(1)


def generator_is_independent():
    outs = []
    for path in ("src", ""):
        env = dict(os.environ, PYTHONPATH=path)
        outs.append(subprocess.run([sys.executable, "-c", GEN_PROBE], env=env, capture_output=True, text=True, check=True).stdout)
    ok(outs[0] == outs[1], "documents are byte-identical with and without src/ on the path")
    ok(outs[0].split()[1] == "False", "the generator imports no covkit")


def metric_names_match():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    ok({m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END), "end-to-end metric names match BENCHMARK.json")
    layer = {f"{span}.{stat}" for span, stats in run.LAYER_STATS.items() for stat in stats} | set(run.EXTRA_LAYER)
    ok({m["name"] for m in spec["per_layer"]} == layer, "per-layer metric names match BENCHMARK.json")


def passes(workload, seed, n_traced):
    """One untraced pass and ``n_traced`` traced passes of a workload."""
    docs = gen.corpus(workload, seed)
    work = os.path.join(run.WORK_DIR, "selftest", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    argvs = run.write_corpus(docs, work)
    deadline = time.monotonic() + 600
    verified = {}
    plain = run.run_pass(docs, argvs, work, False, deadline, verified)
    traced = [run.run_pass(docs, argvs, work, True, deadline, verified) for _ in range(n_traced)]
    for results in [plain] + traced:
        bad = [(docs[i].id, r["outcome"]) for i, r in results if r["outcome"] != "ok"]
        ok(not bad, f"{workload} seed {seed}: every document passes its checks {bad or ''}")
    return docs, plain, traced


def null_space(results):
    totals = run.layer_totals(results).get("numlin.null_space", {})
    return totals.get("calls", 0), totals.get("cells", 0)


def spans_are_consistent(docs, results):
    for i, r in results:
        doc, recorded = docs[i], r["spans"]
        roots = [s for s in recorded if s[3] == -1]
        if len(roots) != 1 or roots[0][0] != "cli.main":
            ok(False, f"{doc.id}: one root span, cli.main")
        stray = [s[0] for s in recorded if s[3] >= 0 and not recorded[s[3]][1] <= s[1] <= s[2] <= recorded[s[3]][2]]
        if stray:
            ok(False, f"{doc.id}: spans {stray} do not nest in their parents")
        total = sum(spans.self_times(recorded))
        root = roots[0][2] - roots[0][1]
        if abs(total - root) > 1e-9 * max(1.0, root) * len(recorded):
            ok(False, f"{doc.id}: self times sum to {total}, root is {root}")
    ok(True, f"{docs[0].id.split('/')[0]}…: spans nest and self times sum to the root")


def stdout_is_stable(docs, plain, traced):
    first = dict(plain)
    same = all(first[i]["stdout_sha"] == r["stdout_sha"] for i, r in traced)
    ok(same, f"{len(docs)} documents: traced and untraced stdout byte-identical")


def refuses_without_src():
    bare = os.path.join(run.WORK_DIR, "selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("bench", os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dilate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    ok(proc.returncode != 0 and '"correct"' not in proc.stdout, "without src/ the harness exits non-zero and prints no result")


def main():
    generator_is_independent()
    metric_names_match()
    counts = []
    for seed in (3, 4):
        docs, plain, traced = passes("extremal", seed, 2)
        counts += [null_space(r) for r in traced]
        if seed == 3:
            spans_are_consistent(docs, traced[0])
            stdout_is_stable(docs, plain, traced[0])
    ok(len(set(counts)) == 1 and counts[0][0] > 0, f"extremal null_space (calls, cells) repeat exactly: {counts}")
    for workload in ("dilate", "validate-sample"):
        docs, plain, traced = passes(workload, 5, 1)
        ok(null_space(traced[0])[0] == 0, f"{workload}: numlin.null_space.calls is 0")
        spans_are_consistent(docs, traced[0])
        stdout_is_stable(docs, plain, traced[0])
    refuses_without_src()


if __name__ == "__main__":
    main()
