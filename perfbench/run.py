#!/usr/bin/env python3
"""Runs one workload of the RelGraph benchmark and prints its result.

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run builds the session program and the
library from src/ into .bench_build/perfbench (CMake, Release). The
workload's constants come from perfbench/workloads.json; every input is
generated from --seed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it
is the host and build stamp. The full report (gates, self-check figures,
ladder probes, sample sizes) is written to
.bench_build/perfbench/results/.

Exit codes: 0 a correct, valid run; 1 a correctness gate failed (the
result line says correct=false); 2 no checkout or no build; 3 the run
failed a workload self-check and is not reported.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SESSION_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_workloads():
    with open(os.path.join(HERE, "workloads.json")) as f:
        return json.load(f)


def workload_config(spec, name):
    """The session program's flags for one workload: common constants overlaid by
    the workload's own."""
    if name not in spec["workloads"]:
        raise KeyError(name)
    cfg = dict(spec["common"])
    cfg.update(spec["workloads"][name])
    return cfg


def session_flags(cfg):
    flags = []
    for key, value in sorted(cfg.items()):
        if key in ("checks", "pool_threads"):
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        flags += ["--" + key, str(value)]
    return flags


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ tree next to perfbench/; run from a full checkout")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_session",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return False
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            return False
    return True


def source_digest():
    """sha256 over src/ (paths and contents): identifies the measured code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "none"


def self_check(report, checks):
    """Reasons the run does not measure what its workload claims; empty
    when valid."""
    c = report["checks"]
    bad = []
    if c["generator_threads"] + c["pool_threads"] > c["nproc"]:
        bad.append("generator threads %d + pool threads %d exceed nproc %d" %
                   (c["generator_threads"], c["pool_threads"], c["nproc"]))
    if "max_embedding_hit_rate" in checks and \
            c["embedding_hit_rate"] > checks["max_embedding_hit_rate"]:
        bad.append("embedding hit rate %.3f above %.3f" %
                   (c["embedding_hit_rate"], checks["max_embedding_hit_rate"]))
    if "min_embedding_hit_rate" in checks and \
            c["embedding_hit_rate"] < checks["min_embedding_hit_rate"]:
        bad.append("embedding hit rate %.3f below %.3f" %
                   (c["embedding_hit_rate"], checks["min_embedding_hit_rate"]))
    if "max_dedup_frac" in checks and c["dedup_frac"] > checks["max_dedup_frac"]:
        bad.append("dedup fraction %.3f above %.3f" %
                   (c["dedup_frac"], checks["max_dedup_frac"]))
    if c["gen_lag_p99_ms"] > checks["max_gen_lag_p99_ms"]:
        bad.append("generator lag p99 %.3f ms above %.3f ms" %
                   (c["gen_lag_p99_ms"], checks["max_gen_lag_p99_ms"]))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_workloads()
    try:
        cfg = workload_config(spec, args.workload)
    except KeyError:
        log("perfbench: unknown workload %r (have: %s)" %
            (args.workload, ", ".join(sorted(spec["workloads"]))))
        return 2
    if not build():
        return 2

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    cmd = [os.path.join(BUILD, "perfbench_session"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out, "--scratch", results] + session_flags(cfg)
    env = dict(os.environ)
    env["RELGRAPH_NUM_THREADS"] = str(cfg["pool_threads"])
    env.pop("RELGRAPH_METRICS", None)
    env.pop("RELGRAPH_PRECISION", None)
    env.pop("RELGRAPH_FAULTS", None)
    if os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: session exceeded %d s" % SESSION_TIMEOUT_S)
        return 2
    if proc.returncode != 0 or not os.path.exists(out):
        log("perfbench: session exited with %d" % proc.returncode)
        return 2
    with open(out) as f:
        report = json.load(f)

    report["stamp"]["git_revision"] = git_revision()
    report["stamp"]["src_sha256"] = source_digest()
    report["stamp"]["workload"] = args.workload
    invalid = self_check(report, cfg["checks"])
    report["invalid"] = invalid
    with open(out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    if invalid:
        for reason in invalid:
            log("perfbench: run invalid: " + reason)
        return 3
    print("stamp: " + json.dumps(report["stamp"], sort_keys=True))
    result = {key: report[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
