#!/usr/bin/env python3
"""Compare a bench JSON run against its committed baseline.

Usage:
    bench_diff.py CURRENT BASELINE [--max-ratio R] [--metrics A,B,...]

Fails (exit 1) when:
  * either file is missing, empty, or not the expected shape;
  * the current run has no scales in common with the baseline;
  * the current run lacks a metric the baseline budgets (a silently
    absent metric must never read as a 0 ms "improvement");
  * no metric was actually compared (an all-zero baseline would
    otherwise vacuously pass);
  * any compared wall-time metric regresses by more than R (default
    2.0) at a scale present in both files.

The default metric set is the tab05/BENCH_tab04 sparse/parallel
hot path — the dense arms exist to document the gap, and CI machines
differ enough that absolute dense wall times are noise. Other bench
files (e.g. BENCH_fig15.json) pass their own lower-is-better metric
names via --metrics. Speedups going *up* never fail.

Both files' "host" fingerprints (nproc, CPU, compiler, build type) are
printed first, "unknown" when a file has none; differing hosts only
warn, since wall times from different machines compare loosely.
"""

import argparse
import json
import sys

COMPARED_METRICS = (
    "step_sparse_ms",
    "retune_sparse_ms",
    "serve_retune_wall_mean_ms",
)


UNITS = ("ms", "us", "s")


def unit_of(metric):
    """Printed unit from the metric name: the time suffix of the part
    before any "_per_", e.g. step_sparse_ms -> "ms",
    wall_us_per_request -> "us/request"; "" when there is none."""
    quantity, _, per = metric.partition("_per_")
    unit = quantity.rsplit("_", 1)[-1]
    if unit not in UNITS:
        return ""
    return f"{unit}/{per}" if per else unit


def describe_host(host):
    """One-line summary of a BENCH file's "host" object."""
    if not isinstance(host, dict):
        return "unknown"
    return (f"{host.get('cpu', '?')}, nproc {host.get('nproc', '?')}, "
            f"{host.get('compiler', '?')}, {host.get('build_type', '?')}")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_diff: cannot read {path}: {err}")
    if not isinstance(data, dict):
        sys.exit(f"bench_diff: {path}: top-level JSON is "
                 f"{type(data).__name__}, expected an object")
    scales = data.get("scales")
    if not isinstance(scales, list) or not scales:
        sys.exit(f"bench_diff: {path} has no scales")
    by_devices = {}
    for i, s in enumerate(scales):
        if not isinstance(s, dict) or "devices" not in s:
            sys.exit(f"bench_diff: {path}: scales[{i}] lacks "
                     f"a 'devices' key: {s!r}")
        try:
            by_devices[int(s["devices"])] = s
        except (TypeError, ValueError):
            sys.exit(f"bench_diff: {path}: scales[{i}] has "
                     f"non-integer devices: {s['devices']!r}")
    return by_devices, describe_host(data.get("host"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="fail when current > ratio * baseline")
    parser.add_argument("--metrics", default=None,
                        help="comma-separated lower-is-better metric "
                             "names (default: the tab05 hot path)")
    args = parser.parse_args()

    metrics = COMPARED_METRICS
    if args.metrics is not None:
        metrics = tuple(m for m in args.metrics.split(",") if m)
        if not metrics:
            sys.exit("bench_diff: --metrics names no metric")

    current, current_host = load(args.current)
    baseline, baseline_host = load(args.baseline)
    print(f"current host:  {current_host}")
    print(f"baseline host: {baseline_host}")
    if current_host != baseline_host:
        print("bench_diff: warning: the hosts differ; wall-time ratios "
              "mix machine and code", file=sys.stderr)
    common = sorted(set(current) & set(baseline))
    if not common:
        sys.exit("bench_diff: no device scales in common")

    failures = []
    compared = 0
    for devices in common:
        for metric in metrics:
            base = float(baseline[devices].get(metric, 0.0))
            if base <= 0.0:
                continue  # metric absent or unbudgeted in baseline
            if metric not in current[devices]:
                print(f"{devices:>5} devices  {metric:<26} "
                      f"{base:>10.3f} -> missing         FAIL",
                      file=sys.stderr)
                failures.append((devices, metric, "missing"))
                continue
            cur = float(current[devices][metric])
            compared += 1
            ratio = cur / base
            status = "FAIL" if ratio > args.max_ratio else "ok"
            print(f"{devices:>5} devices  {metric:<26} "
                  f"{base:>10.3f} -> {cur:>10.3f} {unit_of(metric)}  "
                  f"({ratio:.2f}x)  {status}")
            if ratio > args.max_ratio:
                failures.append((devices, metric, ratio))

    if failures:
        print(f"\nbench_diff: {len(failures)} metric(s) regressed "
              f"more than {args.max_ratio}x or went missing",
              file=sys.stderr)
        return 1
    if compared == 0:
        print("\nbench_diff: no metric was actually compared — the "
              "baseline budgets none of the tracked metrics",
              file=sys.stderr)
        return 1
    print(f"\nbench_diff: OK ({compared} metric(s) across "
          f"{len(common)} scale(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
