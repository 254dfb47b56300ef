"""Record a baseline: every workload at the default seed, untraced and traced.

Usage, from the repository root:  python3 perfbench/baseline.py [--seconds S]

Writes perfbench/baseline.json with the git commit, Python version, core
count, seed and run length beside each workload's end-to-end and per-layer
metrics, all taken from the JSON line that `run.py` prints last.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH))
    from run import DEFAULT_SEED

    result = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": DEFAULT_SEED,
        "run_seconds": args.seconds,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"why": workload["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(DEFAULT_SEED),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                sys.exit(f"{name} --trace {trace} failed its checks:\n{proc.stdout}")
            entry[key] = {m: v["value"] for m, v in last["metrics"].items()}
            entry[f"{key}_jobs"] = last["attempted"]
            if trace == 0:
                shown = ", ".join(f"{m} {v['value']:.4g} {v['unit']}" for m, v in last["metrics"].items())
                print(f"{name}: {shown}, fail_ratio {last['failed'] / last['attempted']:.4g} "
                      f"({last['failed']} of {last['attempted']} jobs)", flush=True)
        result["workloads"][name] = entry
    (BENCH / "baseline.json").write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
