#!/usr/bin/env python3
"""End-to-end ABV benchmark.

Run from the repository root:

    python3 abvbench/run.py --workload des56_at_live --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn, each in its own processes.

Builds abvbench/abv_e2e.cc and the libraries under src/ (CMake, Release) into
$CARGO_TARGET_DIR/abvbench (default .bench_build/abvbench), records the
workload's stream and its reference report in one process, then times
models::run_simulation in a second process. Prints a provenance line, then as
the last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A human-readable table goes to stderr. See abvbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e2e  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170  # a run must end within 180 s


def host_cpus():
    return len(os.sched_getaffinity(0))


def local_env(build_dir):
    """Environment that keeps compiler and driver temporaries in build_dir."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(build_dir):
    """Configures (once) and builds abv_e2e; build output goes to stderr."""
    env = local_env(build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, env=env,
        )
    jobs = str(min(4, host_cpus()))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "abv_e2e", "-j", jobs],
        stdout=sys.stderr, check=True, env=env,
    )
    return os.path.join(build_dir, "abv_e2e")


def run_step(exe, step, workload, args, workdir, deadline):
    cmd = [
        exe, step,
        "--design", workload.design, "--level", workload.level,
        "--size", str(workload.size), "--checkers", str(workload.checkers),
        "--jobs", "1", "--shard-jobs", str(workload.shard_jobs),
        "--seed", str(args.seed),
        "--replay", "1" if workload.replay else "0", "--workdir", workdir,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    out = subprocess.run(
        cmd, stdout=subprocess.PIPE, check=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        env=local_env(os.path.dirname(workdir)),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def source_id(root):
    """git commit when root is a clone's top level, else a digest of the
    sources."""
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(root):
            return {"commit": commit}
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"source_sha256": h.hexdigest()}


def run_workload(workload, args, root, exe, build_dir):
    """Runs one workload (prep and measure processes) and prints its lines."""
    deadline = time.monotonic() + DEADLINE_S  # the first run's build is exempt
    workdir = os.path.join(build_dir, f"work-{os.getpid()}")
    try:
        prep = run_step(exe, "prep", workload, args, workdir, deadline)
        measure = run_step(exe, "measure", workload, args, workdir, deadline)
    except (OSError, subprocess.SubprocessError, ValueError) as err:
        print(f"abvbench: {workload.name} failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result, problems = e2e.summarize(workload, prep, measure, args.trace == 1)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": e2e.HELD_OUT_SEED,
        "nproc": measure["nproc"],
        "jobs": measure["jobs"],
        "shard_jobs": measure["shard_jobs"],
        "compiler": measure["compiler"],
        "build_type": measure["build_type"],
        **source_id(root),
        "size": workload.size,
        "samples": len(measure["reps"]),
        "traced_samples": len(measure.get("traced_reps", [])),
        "sharded_samples": len(measure.get("shard_reps", [])),
        "failed_frac": result["failed"] / result["attempted"],
    }
    for p in problems:
        print(f"abvbench: CHECK FAILED: {p}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} samples={provenance['samples']} "
          f"failed_frac={provenance['failed_frac']:.4f}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(e2e.WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "abvbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"abvbench: build failed: {err}", file=sys.stderr)
        return 1
    names = sorted(e2e.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status |= run_workload(e2e.WORKLOADS[name], args, root, exe, build_dir)
    return status


if __name__ == "__main__":
    sys.exit(main())
