#!/usr/bin/env python3
"""Build and run the cell benchmark.

    python3 perfbench/run.py --workload cold_cells --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The first run configures and builds the
system from source (Release) under .bench_build/perfbench; later runs only
check that the build is current. Every file a run writes stays under
.bench_build/. The last line of stdout is the run's result as one JSON
object; build logs go to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
WORKLOADS = ("cold_cells", "sim_replay", "served_grid")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def refuse_sanitizers():
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            fail(f"refusing to measure a sanitizer build ({var} has "
                 "-fsanitize)", 2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ is missing: run from the root of a full checkout", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = open(WORK / "perfbench-build.log", "w")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(
                ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release", *generator],
                check=True, stdout=log, stderr=subprocess.STDOUT)
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
             "--target", "perfbench", "perfbench_selftest"],
            check=True, stdout=log, stderr=subprocess.STDOUT)
    except subprocess.CalledProcessError:
        log.close()
        tail = (WORK / "perfbench-build.log").read_text().splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail("build failed")
    log.close()
    cache = (BUILD / "CMakeCache.txt").read_text()
    for line in cache.splitlines():
        if line.startswith("CMAKE_CXX_FLAGS") and "-fsanitize" in line:
            fail("refusing to measure a sanitizer build (" + line + ")", 2)
    selftest = subprocess.run(
        [str(BUILD / "perfbench_selftest"), "--gtest_brief=1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout, file=sys.stderr)
        fail("self-tests failed")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def binary_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    refuse_sanitizers()
    build()
    binary = BUILD / "perfbench"
    out = WORK / "perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    # Relative paths keep the service's Unix socket path short.
    tmp = Path(".bench_build") / f"perfbench-tmp-{os.getpid()}"
    store = out / f"cells-{binary_digest(binary)}.txt"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(tmp), "--out", str(out), "--store", str(store),
           "--commit", commit_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(ROOT / tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    # The result line must carry exactly the metrics BENCHMARK.json names.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"] for m in spec[kind]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result["metrics"]) != wanted:
        fail("result metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ wanted)}")


if __name__ == "__main__":
    main()
