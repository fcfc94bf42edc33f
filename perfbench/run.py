#!/usr/bin/env python3
"""Build and run the perfbench harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
perfbench binary (CMake, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only re-check the build.
Build output goes to stderr. The binary's report is passed through, and
its last line, the JSON result, is checked against BENCHMARK.json (the
metric names a run must report) before it is printed.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, env=env) != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def run(binary, argv, trace):
    out_dir = os.path.join(ROOT, ".bench_out")
    env = dict(os.environ)
    env["TMPDIR"] = out_dir
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.Popen([binary] + argv + ["--out", out_dir], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    differ = expected_metrics(trace) ^ set(result["metrics"])
    if differ:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(differ))
    print(lines[-1], flush=True)


def main():
    argv = sys.argv[1:]
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    trace = argv[argv.index("--trace") + 1]
    binary = build()
    run(binary, argv, trace)


if __name__ == "__main__":
    main()
