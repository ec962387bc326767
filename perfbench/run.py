#!/usr/bin/env python3
"""Builds the protoquot benchmark and runs it.

One run of one workload:

    python3 perfbench/run.py --workload wire-steady --seed 7 --seconds 20 --trace 0

prints a table and, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`. It exits non-zero, without a
result, when the benchmark cannot be built, and non-zero with
`"correct": false` when any reply or verdict differs from its oracle.

Without `--workload` it runs every workload `--runs` times (seeds 1, 2,
...) and prints, per workload, a row with the commit, CPU count and
model, the seeds, each run's values and their median and quartiles; the
rows are also appended to `perfbench-results.jsonl` in the build
directory.

Run it from the repository root. It builds with `cargo build --release`
into `$CARGO_TARGET_DIR` (default `perfbench/target`).
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["derive", "wire-steady", "wire-churn"]
# A run measures for --seconds; set-up, input generation and the
# capacity ladder come on top. Past this the run is stopped.
RUN_TIMEOUT_S = 175


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")


def build():
    """Builds the benchmark; returns the executable, or exits non-zero."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, env=env, check=False)
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        sys.exit(2)
    if done.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return target_dir() / "release" / "perfbench"


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True,
            check=False, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def run_once(exe, workload, seed, seconds, trace, sha, echo):
    """Runs one workload once; returns (exit code, stdout lines)."""
    workdir = target_dir() / "perfbench-work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--commit", sha,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {workload} seed {seed} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, out.splitlines()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def aggregate(exe, workloads, runs, seconds, trace, sha):
    ok = True
    rows = []
    for w in workloads:
        values = {}
        units = {}
        for seed in range(1, runs + 1):
            code, lines = run_once(exe, w, seed, seconds, trace, sha, echo=False)
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if code != 0 or result is None or not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: FAILED (exit {code})")
                print("\n".join(lines[-30:]))
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        row = {
            "workload": w, "commit": sha, "nproc": os.cpu_count(), "cpu": cpu_model(),
            "seeds": list(range(1, runs + 1)), "seconds": seconds, "trace": trace,
            "metrics": {},
        }
        print(f"{w}  (commit {sha}, nproc {os.cpu_count()}, {runs} runs of {seconds} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            row["metrics"][name] = {
                "unit": units[name], "values": vals, "median": med, "q1": q1, "q3": q3,
            }
            print(f"  {name:<34} median {med:>16.4f} {units[name]:<6} "
                  f"q1 {q1:.4f} q3 {q3:.4f} spread {spread:.3f}")
        rows.append(row)
    results = target_dir() / "perfbench-results.jsonl"
    results.parent.mkdir(parents=True, exist_ok=True)
    with open(results, "a") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")
    for row in rows:
        print(json.dumps(row))
    return ok


def main():
    p = argparse.ArgumentParser(description="Build and run the protoquot benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload when no --workload is given")
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    exe = build()
    sha = commit()
    if args.workload:
        code, _ = run_once(exe, args.workload, args.seed, args.seconds, args.trace, sha, echo=True)
        sys.exit(code)
    sys.exit(0 if aggregate(exe, WORKLOADS, args.runs, args.seconds, args.trace, sha) else 1)


if __name__ == "__main__":
    main()
