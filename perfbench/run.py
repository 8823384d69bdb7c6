#!/usr/bin/env python3
"""Build and run the ConfNet admission benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary from source into .bench_build/perfbench
(Release); later calls rebuild only what changed. Build output goes to
stderr. The binary's stdout is passed through; its last line is the result
JSON object. Exits non-zero when the build fails, the correctness gate
fails, or the result line is malformed.
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
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no ConfNet sources under {ROOT / 'src'}")
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        # A cache configured from another source tree cannot be reused.
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "confnet_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "confnet_perfbench"


def check_result(line: str, trace: int) -> bool:
    """The result line reports every metric BENCHMARK.json declares for
    this mode, with the declared unit, and a passing correctness gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    reported = {k: v.get("unit") for k, v in result["metrics"].items()}
    return (reported == declared and result["correct"] is True
            and result["attempted"] >= 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = ROOT / ".bench_build" / "perfbench"
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(out / f"spans_{args.workload}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return proc.returncode
    if not lines or not check_result(lines[-1], args.trace):
        print("perfbench: malformed or failing result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
