#!/usr/bin/env python3
"""Builds the Loom benchmark from source and runs one workload.

    python3 perfbench/run.py --workload capture|investigate|live \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`.bench_build/perfbench`; later runs only rebuild what changed. Engine
directories live under `.bench_data/` and are removed when the run ends.
Each run also writes its result, the host fingerprint and the binary's
sample counts to `.bench_results/<workload>-seed<N>-trace<T>.json`; a traced
run writes its spans to `.bench_results/<workload>-spans.csv`.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
fingerprint and sample counts. The exit status is 0 when every correctness
check passed, 1 when one failed, and 2 or 3 when the benchmark could not run.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_ROOT = os.path.join(ROOT, ".bench_data")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def fixed_layout():
    """Turns address-space randomisation off in the child before it execs.

    Where the heap and the engine's buffers land changes cache and aliasing
    behaviour enough to move a process's timings by a quarter; with one
    layout for every run, runs differ by their inputs and the machine only.
    """
    try:
        ctypes.CDLL(None, use_errno=True).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def filesystem_of(path):
    """Type of the filesystem holding `path`, from the longest matching mount."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """The git commit when there is one, and a digest of the sources always."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(f for f in filenames if not f.endswith(".pyc")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def fingerprint(args):
    sha, digest = source_revision()
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "data_dir_fs": filesystem_of(DATA_ROOT),
        "git_sha": sha,
        "source_digest": digest,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_metrics(metrics, expected):
    """Problems with `metrics` against the BENCHMARK.json entries `expected`."""
    problems = []
    want = {m["name"]: m["unit"] for m in expected}
    for name, unit in want.items():
        if name not in metrics:
            problems.append("missing metric " + name)
        elif metrics[name].get("unit") != unit:
            problems.append("metric %s has unit %r, expected %r"
                            % (name, metrics[name].get("unit"), unit))
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name in metrics:
        if name not in want:
            problems.append("unexpected metric " + name)
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "core", "loom.h")):
        log("the Loom sources (src/) are not beside perfbench/; nothing to build")
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    os.makedirs(RESULTS_DIR, exist_ok=True)
    data_dir = os.path.join(DATA_ROOT, "%s-%d" % (args.workload, os.getpid()))
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--data-dir", data_dir]
    if args.trace:
        # One spans file per workload, replaced by each traced run.
        cmd += ["--spans", os.path.join(RESULTS_DIR, args.workload + "-spans.csv")]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        log("workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log("workload exited with status %d" % proc.returncode)
        return 3
    info = json.loads(lines[-2]).get("info", {})
    result = json.loads(lines[-1])

    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(result["metrics"], expected)
    for p in problems:
        log(p)
    if problems:
        result["correct"] = False

    attempted = max(result["attempted"], 1)
    info["failed_fraction"] = result["failed"] / attempted
    info["wall_s"] = round(time.monotonic() - started, 3)
    header = {"fingerprint": fingerprint(args), "info": info}
    with open(os.path.join(RESULTS_DIR, stem + ".json"), "w") as f:
        json.dump(dict(header, result=result), f, indent=1, sort_keys=True)
    print(json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
