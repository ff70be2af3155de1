#!/usr/bin/env python3
"""Same-runner performance gate: this checkout against its merge-base.

Usage:
    perf_ratio_gate.py BASE_REF

Run from anywhere inside a git checkout. The script

  * checks out `git merge-base BASE_REF HEAD` into a temporary
    `git worktree`;
  * runs the benchmark declared in BENCHMARK.json (`command`, by
    default `python3 perfbench/run.py`) from each tree's own root, so
    each side builds and measures its own sources with its own driver;
  * for every workload, runs PAIRS alternating pairs (base first in
    even pairs, candidate first in odd ones) with
    `--workload W --seed SEED --seconds SECONDS --trace 0`;
  * compares every end-to-end metric over the pairs.

Normalising to a reference run taken on the same machine, in the same
session, is what makes the comparison about the code and not about
the runner (the SPEC CPU idea of reporting ratios to a reference
machine, with the reference being the merge-base).

Each metric gets one verdict from the base's median and quartiles:
  * FAIL: the candidate's median is worse than the base's by more
    than the metric's `bound` in BENCHMARK.json (cand/base > 1 + bound
    for a lower-is-better metric, base/cand > 1 + bound for a
    higher-is-better one), and the medians differ by more than the
    distance between the base's quartiles;
  * unresolved: the ratio is past the bound but the gap is within the
    base's own spread, or that spread is wider than the bound, so the
    runs cannot tell a regression of the bound's size from noise;
  * ok: otherwise, and always when every candidate run is better than
    every base run.

It exits 1 on any FAIL, or when a run is not `"correct"`, or when the
candidate fails a larger share of its operations than the base.
Unresolved metrics are listed but do not fail the gate.

BENCHMARK.json and perfbench/ are only read, never written. Build
output lands in each tree's .bench_build/; the worktree is removed on
exit.
"""

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 3
SECONDS = 4
SEED = 5


def git(*args, cwd):
    res = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                         text=True)
    if res.returncode != 0:
        sys.exit(f"perf_ratio_gate: git {' '.join(args)}: "
                 f"{res.stderr.strip()}")
    return res.stdout.strip()


def run_once(tree, command, workload):
    """One benchmark run from `tree`; returns its parsed result line."""
    cmd = [*command, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    res = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr)
        sys.exit(f"perf_ratio_gate: {' '.join(cmd)} failed in {tree} "
                 f"(exit {res.returncode})")
    return json.loads(lines[-1])


def worse_ratio(metric, base, cand):
    """How much worse cand is than base (1.0 = equal, > 1 = worse)."""
    if metric["better"] == "lower":
        return cand / base if base > 0 else (1.0 if cand <= 0 else
                                             float("inf"))
    return base / cand if cand > 0 else (1.0 if base <= 0 else
                                         float("inf"))


def verdict(metric, base_runs, cand_runs):
    """(worse ratio, base spread / base median, 'ok'|'unresolved'|'FAIL')."""
    q1, base, q3 = statistics.quantiles(base_runs, n=4, method="inclusive")
    cand = statistics.median(cand_runs)
    ratio = worse_ratio(metric, base, cand)
    spread = q3 - q1
    rel_spread = spread / abs(base) if base else 0.0
    if metric["better"] == "lower":
        all_better = max(cand_runs) < min(base_runs)
    else:
        all_better = min(cand_runs) > max(base_runs)
    past_bound = ratio > 1.0 + metric["bound"]
    if all_better:
        return ratio, rel_spread, "ok"
    if past_bound and abs(cand - base) > spread:
        return ratio, rel_spread, "FAIL"
    if past_bound or rel_spread > metric["bound"]:
        return ratio, rel_spread, "unresolved"
    return ratio, rel_spread, "ok"


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    base_ref = sys.argv[1]

    root = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    command = bench["command"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    base_sha = git("merge-base", base_ref, "HEAD", cwd=root)
    head_sha = git("rev-parse", "HEAD", cwd=root)
    print(f"base {base_sha[:12]} (merge-base of {base_ref}), "
          f"candidate {head_sha[:12]}")

    scratch = Path(tempfile.mkdtemp(prefix="perf-ratio-gate-"))
    base_tree = scratch / "base"
    git("worktree", "add", "--detach", str(base_tree), base_sha, cwd=root)
    failures = []
    unresolved = []
    try:
        trees = {"base": base_tree, "cand": root}
        for workload in workloads:
            runs = {"base": [], "cand": []}
            for pair in range(PAIRS):
                order = ("base", "cand") if pair % 2 == 0 else \
                    ("cand", "base")
                for side in order:
                    runs[side].append(run_once(trees[side], command,
                                               workload))
            for side, results in runs.items():
                for r in results:
                    if not r.get("correct", False):
                        failures.append(f"{workload}: a {side} run is "
                                        f"not correct")

            def fail_share(results):
                attempted = sum(r["attempted"] for r in results)
                return (sum(r["failed"] for r in results) / attempted
                        if attempted else 1.0)

            if fail_share(runs["cand"]) > fail_share(runs["base"]):
                failures.append(f"{workload}: the candidate fails a "
                                f"larger share of operations")

            print(f"\n{workload} ({PAIRS} pairs, {SECONDS} s runs, "
                  f"seed {SEED})")
            print(f"  {'metric':<18} {'base':>12} {'cand':>12} "
                  f"{'worse x':>8} {'bound':>6} {'spread':>7}  verdict")
            for m in metrics:
                name = m["name"]
                base_runs = [r["metrics"][name]["value"]
                             for r in runs["base"]]
                cand_runs = [r["metrics"][name]["value"]
                             for r in runs["cand"]]
                ratio, rel_spread, v = verdict(m, base_runs, cand_runs)
                print(f"  {name:<18} {statistics.median(base_runs):>12.6g} "
                      f"{statistics.median(cand_runs):>12.6g} "
                      f"{ratio:>8.3f} {m['bound']:>6g} {rel_spread:>7.3f}"
                      f"  {v}")
                note = (f"{workload}: {name} is {ratio:.3f}x worse "
                        f"(bound {1.0 + m['bound']:g}x, base spread "
                        f"{rel_spread:.3f})")
                if v == "FAIL":
                    failures.append(note)
                elif v == "unresolved":
                    unresolved.append(note)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force",
                        str(base_tree)], cwd=root, capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    if unresolved:
        print("\nunresolved (within the base's run-to-run spread):\n  " +
              "\n  ".join(unresolved))
    if failures:
        print("\nFAIL:\n  " + "\n  ".join(failures))
        return 1
    print("\nOK: no end-to-end metric resolved worse than its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
