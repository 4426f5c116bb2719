#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <study-batch|collector-live|list-match> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the repository crates; it builds offline into
$CARGO_TARGET_DIR (default perfbench/target). The program's tuning
environment variables are removed first, so every workload runs on the
default knobs.

BENCHMARK.json is the one list of metric names and units: the result
line the binary prints is checked against it, and with --trace 1 its
per-layer metrics are put in BENCHMARK.json order, with 0 for the layers
the workload does not exercise. The last line of standard output is the
result JSON.
"""

import json
import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
KNOBS = ("HBBTV_POOL_WORKERS", "HBBTV_FRAME_BUDGET_BYTES", "HBBTV_PREBUILT_DIR")
# Time a run may take beyond --seconds: set-up, oracles and the warm-up.
SETUP_MARGIN_S = 130


def flag(args, name):
    if name in args[:-1]:
        return args[args.index(name) + 1]
    return None


def order_metrics(result, trace):
    """Checks the result's metrics against BENCHMARK.json and orders
    them as listed there. Returns an error message or None."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    for name, metric in got.items():
        if units.get(name) != metric["unit"]:
            return f"metric {name} [{metric['unit']}] is not listed in BENCHMARK.json"
    if not trace and set(got) != set(units):
        return f"end-to-end metrics missing: {sorted(set(units) - set(got))}"
    result["metrics"] = {
        m["name"]: got.get(m["name"], {"value": 0.0, "unit": m["unit"]}) for m in listed
    }
    return None


def main():
    args = sys.argv[1:]
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = env.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    exe = os.path.join(target, "release", "hbbtv-perfbench")
    try:
        limit = float(flag(args, "--seconds") or 0) + SETUP_MARGIN_S
    except ValueError:
        limit = SETUP_MARGIN_S
    try:
        run = subprocess.run([exe] + args, env=env, timeout=limit, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit:.0f} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return run.returncode or 1
    result = json.loads(lines[-1])
    error = order_metrics(result, flag(args, "--trace") == "1")
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
