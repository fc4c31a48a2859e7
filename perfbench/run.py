#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The driver (perfbench/driver.cpp) is built with CMake into the directory
named by CARGO_TARGET_DIR (default `.bench_build`) under the checkout root,
together with the ldlb library from `src/`. Certificate logs and the span
file of a traced run go to `<build dir>/perfbench-work/<workload>/`.

The last line of standard output is the result object: `correct`,
`attempted`, `failed` and `metrics` — the end-to-end metrics named in
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Any failure to build, run or match BENCHMARK.json exits non-zero without a
result line.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A benchmark run must end within 180 s, build aside.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_checked(cmd, timeout):
    # Build chatter goes to stderr so that stdout ends with the result.
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "ldlb").is_dir():
        fail(f"no ldlb sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                BUILD_TIMEOUT_S)
    return out / target


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing")
    return json.loads(path.read_text())


def check_result(result, bench, trace):
    """Problems with a driver result against BENCHMARK.json; [] when none."""
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result must have exactly correct, attempted, failed and metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("no chain was attempted")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"missing metrics: {', '.join(missing)}")
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {', '.join(extra)}")
    for name, m in metrics.items():
        if name not in expected:
            continue
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"{name}: needs exactly value and unit")
        elif m["unit"] != expected[name]:
            problems.append(f"{name}: unit {m['unit']!r}, BENCHMARK.json says {expected[name]!r}")
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append(f"{name}: value is not a number")
    return problems


def run_driver(binary, args):
    work = build_dir() / "perfbench-work" / args.workload
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    # Own session, so a timeout can stop the driver and its fleet workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"driver timed out after {RUN_TIMEOUT_S} s")
    finally:
        # Certificate logs are large; the span file stays for inspection.
        for log in work.glob("*.log"):
            log.unlink()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"driver exited with {proc.returncode}")
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.selftest:
        binary = build("perfbench_selftest")
        run_checked([str(binary), str(ROOT / "BENCHMARK.json"),
                     str(build_dir() / "perfbench-work" / "selftest")], RUN_TIMEOUT_S)
        run_checked([sys.executable, str(HERE / "test_run.py")], RUN_TIMEOUT_S)
        return
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    binary = build("perfbench_driver")
    lines = run_driver(binary, args)
    if not lines:
        fail("driver printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    problems = check_result(result, bench, args.trace)
    if problems:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("; ".join(problems))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
