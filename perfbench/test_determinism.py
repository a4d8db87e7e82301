#!/usr/bin/env python3
"""The benchmark's own test.

Runs each model workload (redbelly, certify_audit, naive) twice, traced, and
checks that:
  * both runs pass their correctness gates;
  * every deterministic work counter (DETERMINISTIC) reads the same in both;
  * certify mode learns nothing (its learning counters read 0);
  * the trace file is Chrome trace-event JSON with events for the layers the
    workload calls.

Run from the repository root (takes a few minutes; certify_audit dominates):

    python3 perfbench/test_determinism.py [workload ...]
"""

import json
import os
import subprocess
import sys

# Per-layer metrics that are counts of work, fixed by the inputs: they must
# repeat exactly from run to run, so a change may claim a gain on them as a
# count (not as a speed-up).
DETERMINISTIC = [
    "checker.schemas_solved",
    "checker.schemas_pruned",
    "checker.schemas_cut",
    "checker.cut_ratio",
    "checker.lemma_hits",
    "checker.lemmas_learned",
    "checker.prefix_reuse_ratio",
    "checker.avg_schema_length",
    "smt.pivots",
    "smt.pivots_per_solved",
    "smt.rational_fast_ops",
    "smt.rational_big_ops",
    "smt.fast_ratio",
    "cert.bytes",
    "cert.farkas_leaves",
    "cert.schemas_covered",
    "cert.cone_replays",
]

LEARNING = ["checker.schemas_cut", "checker.lemma_hits", "checker.lemmas_learned"]

TRACED_LAYERS = {
    "redbelly": {"ta", "spec", "pipeline", "checker", "smt"},
    "certify_audit": {"ta", "spec", "pipeline", "checker", "smt", "cert"},
    "naive": {"ta", "spec", "checker", "smt"},
}


def run(workload, seed):
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=False)
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise AssertionError("%s seed %d failed (%d):\n%s%s" % (
            workload, seed, process.returncode, process.stdout, process.stderr))
    return json.loads(lines[-1])


def check_trace(workload, seed):
    path = os.path.join(".bench_build", "traces", "%s-seed%d.json" % (workload, seed))
    with open(path) as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    for event in events:
        assert event["ph"] in ("X", "C"), event
        assert isinstance(event["ts"], (int, float)), event
    layers = {event["cat"] for event in events}
    missing = TRACED_LAYERS[workload] - layers
    assert not missing, "%s trace has no events for %s" % (workload, sorted(missing))


def main():
    workloads = sys.argv[1:] or list(TRACED_LAYERS)
    failures = []
    for workload in workloads:
        before = len(failures)
        first, second = run(workload, 1), run(workload, 2)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                failures.append("%s: correctness gate failed" % workload)
        for name in DETERMINISTIC:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                failures.append("%s: %s differs between runs: %r vs %r" % (workload, name, a, b))
        if workload == "certify_audit":
            for name in LEARNING:
                if first["metrics"][name]["value"] != 0:
                    failures.append("certify_audit: %s is not 0 under certify" % name)
        try:
            check_trace(workload, 1)
        except (AssertionError, KeyError, ValueError, OSError) as error:
            failures.append("%s: trace: %s" % (workload, error))
        print("%s: %s" % (workload, "ok" if len(failures) == before else "FAILED"), flush=True)
    for failure in failures:
        print("FAIL " + failure)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
