#!/usr/bin/env python3
"""Runs each workload's traced run twice, with different seeds, and checks
that every deterministic per-layer metric repeats exactly.

    python3 e2e_bench/check_determinism.py [--seconds S] [workload ...]

Run from the repository root. Exits 1 on any difference. Timings are
printed for reference but not compared.
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "e2e_bench/Cargo.toml", "--"]
DETERMINISTIC_PREFIXES = (
    "workloads.ir_klines_in", "core.enums_created",
    "core.translations", "core.rte_trims", "interp.decode.", "interp.exec.insts.",
    "interp.session.quanta.", "collections.", "interp.enum.", "modeled_speedup",
    "ade_peak_mb",
)


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run reported incorrect output:\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("workloads", nargs="*", default=["suite", "sliced"])
    args = parser.parse_args()
    bad = 0
    for workload in args.workloads:
        first, second = (traced_run(workload, seed, args.seconds) for seed in (1, 2))
        for name in sorted(first):
            if not name.startswith(DETERMINISTIC_PREFIXES):
                continue
            same = first[name] == second.get(name)
            bad += not same
            print(f"{workload:8} {name:45} {first[name]!r:>14} "
                  f"{second.get(name)!r:>14} {'ok' if same else 'DIFFERS'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
