#!/usr/bin/env python3
"""Repository benchmark: build the OCaml benchmark from source, run one
workload in a fresh process, and pass its report through.

    python3 perfbench/run.py --workload echo-64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a source checkout. The build goes to
.bench_build/ and traced runs write their spans to .bench_out/. The last
line of stdout is the JSON report; build chatter goes to stderr. The
exit code is 0 only when the workload ran and passed its correctness
gate. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "dkbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    # The benchmark measures the repository's own libraries; without
    # them there is nothing to build.
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a source checkout: %s is missing under %s" % (need, ROOT))


def dune_env():
    env = dict(os.environ)
    # Keep every build artefact inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env


def run_dune(targets):
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "-j", "2"] + targets
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=dune_env(), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed (%s)" % " ".join(targets))


def bench_args(workload, seed, seconds, trace, tiny=False):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--nproc", str(os.cpu_count() or 0),
            "--out", os.path.join(ROOT, OUT_DIR)]
    return args + (["--tiny"] if tiny else [])


def run_workload(args):
    try:
        return subprocess.run(bench_args(args.workload, args.seed, args.seconds,
                                         args.trace),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 3)


def selftest():
    """Every workload at tiny scale, traced and not, each in a fresh
    process: it must pass its gate and print exactly the metrics
    BENCHMARK.json names, with their units; the layer replays must run;
    and dk-lint/dk-verify must pass the benchmark sources with no
    allowlist entries."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    lint = os.path.join(ROOT, BUILD_DIR, "default", "tools", "lint", "dk_lint.exe")
    verify = os.path.join(ROOT, BUILD_DIR, "default", "tools", "verify", "dk_verify.exe")
    run_dune(["./tools/lint/dk_lint.exe", "./tools/verify/dk_verify.exe"])
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    empty = os.path.join(ROOT, OUT_DIR, "empty-allowlist.txt")
    open(empty, "w").close()
    for tool in (lint, verify):
        rc = subprocess.run([tool, "--allowlist", empty, "perfbench"], cwd=ROOT,
                            timeout=RUN_TIMEOUT_S).returncode
        if rc != 0:
            problems.append("%s reports findings in perfbench/" % os.path.basename(tool))
    replay_names = {
        "echo-64": ["net.framing.ns_per_msg"],
        "stream-16k": ["net.framing.ns_per_msg"],
        "kv-open-loop": ["net.framing.ns_per_msg", "setup.world_s"],
        "kv-offload": ["device.prog.ns_per_frame", "setup.world_s"],
    }
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(bench_args(name, 7, 0, trace, tiny=True), cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            tag = "%s --trace %d" % (name, trace)
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (tag, proc.returncode))
                continue
            report = json.loads(lines[-1])
            if not report["correct"]:
                problems.append("%s: correctness gate failed" % tag)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in report["metrics"].items()}
            if want != got:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (tag, sorted(set(want.items()) ^ set(got.items()))))
            if trace == 1:
                for n in replay_names.get(name, []):
                    if not report["metrics"].get(n, {}).get("value", 0) > 0:
                        problems.append("%s: replay metric %s did not run" % (tag, n))
            print("selftest %-26s ok=%s attempted=%d" % (tag, report["correct"],
                                                       report["attempted"]))
    for p in problems:
        print("SELFTEST FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    check_checkout()
    run_dune(["./perfbench/dkbench.exe"])
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        fail("--workload is required")
    sys.exit(run_workload(args))


if __name__ == "__main__":
    main()
