#!/usr/bin/env python3
"""Build and run bgqhf's end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <train_ce|train_wide|serve_open>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src) into
the directory named by CARGO_TARGET_DIR, or .bench_build by default. Every
call runs the benchmark's self-tests, then the workload. The workload's
human-readable report goes to stdout; its last line is the JSON result.
See perfbench/NOTES.md for what is measured and why.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, timeout, **kw):
    """Run cmd to completion; kill it (and wait) if it overruns."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def knobs_set():
    return sorted(k for k in os.environ if k.startswith("BGQHF_"))


def build(build_dir):
    """Configure once, then build incrementally. Returns True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").exists():
        code, _ = run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release", *generator],
                      BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            log("cmake configure failed")
            # Let the next call configure afresh instead of building from a
            # half-written cache.
            (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(build_dir), "-j", jobs],
                  BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        log("build failed")
    return code == 0


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """The result line must hold exactly the keys BENCHMARK.json promises."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    knobs = knobs_set()
    for k in knobs:
        log(f"environment knob set: {k}={os.environ[k]}")
    if knobs:
        log("refusing to measure with BGQHF_* variables set; unset them")
        return 3

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        if not build(build_dir):
            return 1
        code, out = run([str(build_dir / "perfbench_selftest")],
                        SELFTEST_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
        sys.stderr.write(out)
        if code != 0:
            log("self-tests failed")
            return 1
        if args.selftest:
            return 0
        code, out = run([str(build_dir / "perfbench"),
                         "--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", f"{args.seconds:g}",
                         "--trace", str(args.trace)],
                        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e.cmd[0]}")
        return 1

    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if code != 0:
        log(f"workload exited with code {code}")
        if lines and lines[-1].startswith("{"):
            print(lines[-1])
        return code or 1
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        log(f"bad result line: {e}")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
