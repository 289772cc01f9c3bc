#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of rdfalign.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload cli_chain --seed 1 --seconds 10 --trace 0

It builds the rdfalign library, the rdfalignd daemon and the driver
(e2e_bench.cc) from the checkout's own sources with CMake, in
$CARGO_TARGET_DIR (default .bench_build), in a directory keyed by a hash
of the checkout's path, then runs one workload:
set-up, a closed loop of requests for --seconds, and a check of every
response against a reference. The last line of stdout is one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
METRICS.md describes the workloads and every metric.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_chain", "daemon_hot", "stream_push")


def build_dir_of():
    """The build directory of this checkout.

    It is keyed by the checkout's path, so checkouts that share one
    $CARGO_TARGET_DIR never build each other's sources.
    """
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        f"e2ebench-{key}")


def build(build_dir):
    """Configures and builds the benchmark package; output goes to stderr.

    Configuring every time pins the build to this checkout's sources.
    """
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   check=True, stdout=sys.stderr)


def source_digest():
    """SHA-256 over the sources the benchmark compiles, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def filesystem_of(path):
    """Filesystem type of the mount that holds `path`, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the self-test only: smaller inputs and a deliberately wrong
    # reference.
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()

    build_dir = build_dir_of()
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    print(f"provenance: commit {git_commit()}, sources {source_digest()}, "
          f"build Release, work dir {os.path.relpath(work, ROOT)} on "
          f"{filesystem_of(work)}", flush=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work={work}", f"--daemon={os.path.join(build_dir, 'rdfalignd')}",
           f"--scale={args.scale}"]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        return subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
