#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1 [--smoke]

Run from the repository root. Builds perfbench/bench.exe with dune,
then:

- with --trace 0, measures the cold set-up in SETUP_PROCESSES fresh
  processes and runs the workload once more untraced; the last line is
  every end-to-end metric, setup_s being the median of the set-up
  samples (the main run's own set-up is one of them);
- with --trace 1, runs the workload traced; the last line is every
  per-layer metric, and the spans are written to
  perfbench/out/trace-<workload>-<seed>.json (Chrome trace-event JSON).

The line before the last is the run record (revision, core count,
OCaml version, pool size, workload sizes, checks run). The exit code
is 0 only if every answer matched its reference.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["dnn-infer", "serve-open", "serve-burst", "compile-nets"]
SETUP_PROCESSES = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # The shared dune cache lives outside the checkout; keep every
    # build artefact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not os.path.exists("dune-project"):
        fail("no dune-project here: run from the repository root")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def bench(args, timeout):
    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("bench.exe %s printed nothing (exit %d)" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1]), proc.returncode


def revision():
    """git revision when run in a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "source-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    a = p.parse_args()

    build()
    common = ["--workload", a.workload, "--seed", str(a.seed)] + (["--smoke"] if a.smoke else [])
    setups = []
    if a.trace == 0:
        for _ in range(1 if a.smoke else SETUP_PROCESSES - 1):
            r, code = bench(["setup"] + common, 120)
            if code != 0:
                fail("set-up failed")
            setups.append(r["setup_s"])
    run_args = ["run"] + common + ["--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace == 1:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        run_args += ["--trace-out", os.path.join(out_dir, "trace-%s-%d.json" % (a.workload, a.seed))]
    r, code = bench(run_args, RUN_TIMEOUT_S)

    if a.trace == 0:
        setups.append(r["setup_s"])
        metrics = dict(r["e2e"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    else:
        metrics = r["layers"]
    record = dict(r["record"], revision=revision(), setup_samples_s=setups)
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": bool(r["correct"]) and code == 0, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    sys.exit(0 if r["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
