#!/usr/bin/env python3
"""Builds `edge-cli` and the benchmark binary from source, then runs one
workload and passes its report through. The last line of standard output
is the result JSON; see perfbench/README.md.

    python3 perfbench/run.py --workload serve-stream --seed 1 --seconds 10 \
        --trace 0 --serve-epochs 4

Builds go to $CARGO_TARGET_DIR (default .bench_build); scratch files and
kept results go to .bench_work. Both sit at the repository root.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve-stream", "train")
# Whole-run limit for the benchmark binary, seconds (builds excluded).
RUN_TIMEOUT = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"{' '.join(cmd)} failed with code {done.returncode}")


def source_fingerprint():
    """SHA-256 over every source file the benchmark builds from."""
    skip = {"target", ".bench_build", ".bench_work", "__pycache__"}
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("crates", "shims", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    digest = hashlib.sha256()
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "none"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--serve-epochs", type=int, required=True)
    a = p.parse_args()

    for needed in ("Cargo.toml", "crates", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found at {ROOT}: run from a full checkout of the repository")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    cargo_build(["-p", "edge-cli"], env)
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--serve-epochs", str(a.serve_epochs),
        "--edge-cli", os.path.join(target, "release", "edge-cli"),
        "--work", os.path.join(ROOT, ".bench_work"),
        "--rustc", rustc or "unknown",
        "--source", f"commit {commit()}, sources sha256 {source_fingerprint()}",
    ]
    # A session of its own, so a timeout can stop the server child too.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the benchmark did not finish within {RUN_TIMEOUT} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"the benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    want = declared_metrics(a.trace == 1)
    if sorted(result["metrics"]) != sorted(want):
        fail(f"reported metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(want)}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
