#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload at tiny size (run.py --smoke) — those of
BENCHMARK.json plus serve-open, which is runnable but not part of it —
untraced and traced, and asserts that the last line carries exactly
the declared metrics, each once and with its declared unit, that every
end-to-end value is a positive finite number, that the correctness
checks ran and passed, and that a traced run wrote its trace file.
Takes well under a minute.
"""

import json
import math
import os
import subprocess
import sys


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dup = {k for k in keys if keys.count(k) > 1}
    if dup:
        raise AssertionError("metric or key printed more than once: %s" % sorted(dup))
    return dict(pairs)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    workloads = [w["name"] for w in spec["workloads"]] + ["serve-open"]
    for workload in workloads:
        for trace in (0, 1):
            name = "%s trace=%d" % (workload, trace)
            cmd = spec["command"] + ["--workload", workload, "--seed", "5", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            try:
                assert proc.returncode == 0, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
                record = json.loads(lines[-2])["run_record"]
                assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
                assert result["correct"] is True and result["failed"] == 0, result
                assert isinstance(result["attempted"], int) and result["attempted"] >= 1
                metrics = result["metrics"]
                want = {m["name"]: m["unit"] for m in declared[trace]}
                assert sorted(metrics) == sorted(want), set(metrics) ^ set(want)
                for m, v in metrics.items():
                    assert sorted(v) == ["unit", "value"] and v["unit"] == want[m], (m, v)
                    assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (m, v)
                    if trace == 0:
                        assert v["value"] > 0, "end-to-end metric %s is %r" % (m, v["value"])
                assert record["checks_run"] > 0 and record["check_failures"] == 0, record
                if trace == 1:
                    path = os.path.join("perfbench", "out", "trace-%s-5.json" % workload)
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    assert len(events) == metrics["trace.spans"]["value"] > 0
                    assert metrics["trace.job_coverage_min_ratio"]["value"] >= 0.9
                print("ok   " + name)
            except AssertionError as e:
                failures.append(name)
                print("FAIL %s: %s" % (name, e))
    if failures:
        sys.exit("smoke test failed: " + ", ".join(failures))


if __name__ == "__main__":
    main()
