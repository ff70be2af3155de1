#!/usr/bin/env python3
"""Build and run the serving-simulator benchmark (see README.md here).

Run one workload from the root of a source checkout:

    python3 perfbench/run.py --workload fleet_day --seed 3 --seconds 30 --trace 0

The first call configures and builds the driver under
.bench_build/perfbench (Release); later calls rebuild only what
changed. The driver's stdout is passed through; its last line is the
JSON result.

Re-pin the expected simulated-output digests after a change that moves
simulated output on purpose:

    python3 perfbench/run.py --pin
"""

import argparse
import concurrent.futures
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
PINS = BENCH_DIR / "digests.txt"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ["fleet_day", "wide_pool", "chaos_traced"]
# Pinned input variants per workload; a run uses variant `seed mod VARIANTS`.
VARIANTS = 32


def build():
    """Configure (once) and build the driver; build output goes to stderr."""
    if not (ROOT / "src" / "serve" / "serving_sim.hh").is_file():
        sys.exit("perfbench: no simulator sources (src/) next to the benchmark")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def source_identity():
    """The git commit when there is one, else a hash of src/."""
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return "git:" + res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def pin():
    """Recompute every workload's digest for every variant in parallel."""
    def digests(workload):
        res = subprocess.run(
            [str(BINARY), "--workload", workload, "--pin-variants",
             str(VARIANTS), "--out", str(OUT_DIR / workload)],
            capture_output=True, text=True)
        if res.returncode != 0:
            raise RuntimeError(f"{workload}: {res.stderr.strip()}")
        return res.stdout

    with concurrent.futures.ThreadPoolExecutor(len(WORKLOADS)) as pool:
        outputs = list(pool.map(digests, WORKLOADS))
    with open(PINS, "w") as out:
        out.write("# Expected simulated-output digests: workload, input "
                  "variant (seed mod count), FNV-1a of the report digest.\n"
                  "# Regenerate with: python3 perfbench/run.py --pin\n")
        for text in outputs:
            out.write(text)
    print(f"wrote {PINS.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--pin", action="store_true")
    args, rest = parser.parse_known_args()
    build()
    if args.pin:
        pin()
        return 0
    cmd = [str(BINARY), *rest, "--pins", str(PINS), "--out", str(OUT_DIR),
           "--commit", source_identity()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
