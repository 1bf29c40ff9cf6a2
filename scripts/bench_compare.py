#!/usr/bin/env python3
"""Compare a fresh fleet-bench JSON artifact against a committed baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--max-slowdown R]
                     [--gate-percentiles]
    bench_compare.py --validate FILE.json

Exits non-zero when any benchmark present in both files slowed down by more
than the threshold (relative: fresh_mean / baseline_mean > R). Benchmarks
present on only one side are reported but never fail the gate (they are new
or retired, not regressed). Stdlib only — this runs inside the CI container.

v2 artifacts (`"schema": "fleet-bench-v2"`) may extend entries with latency
percentile fields (`<metric>_p50_ns` / `_p99_ns` / `_p999_ns`); whenever both
sides carry the same percentile field it is diffed and printed under its
benchmark. Percentile ratios are informational unless --gate-percentiles is
passed — tail latencies on shared CI hosts are noisy, so the default gate
stays on the mean.

--validate checks a single artifact against the frozen fleet-bench-v2 shape
(schema tag, meta object, non-empty benchmarks with the mandatory
name/mean_ns/iterations triple and well-typed extended fields) without
comparing anything.

The threshold defaults to 1.5 (50% slowdown) and can be overridden with
--max-slowdown or the FLEET_BENCH_MAX_SLOWDOWN environment variable; bench
smokes run with short measurement windows on shared CI hosts, so tight
thresholds would flake.
"""

import argparse
import json
import os
import sys

PERCENTILE_SUFFIXES = ("_p50_ns", "_p99_ns", "_p999_ns")


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    benchmarks = {b["name"]: b for b in doc.get("benchmarks", [])}
    return doc, benchmarks


def validate(path):
    """Checks one artifact against the frozen fleet-bench-v2 shape."""
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench_compare: FAIL: {path}: unreadable: {exc}")
        return 1

    if doc.get("schema") != "fleet-bench-v2":
        errors.append(f"schema is {doc.get('schema')!r}, expected 'fleet-bench-v2'")
    if not isinstance(doc.get("meta"), dict):
        errors.append("meta object missing")
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        errors.append("benchmarks array missing or empty")
        benchmarks = []
    seen = set()
    for i, entry in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: missing name")
        elif name in seen:
            errors.append(f"{where}: duplicate name {name!r}")
        else:
            seen.add(name)
        if not isinstance(entry.get("mean_ns"), (int, float)) or isinstance(
            entry.get("mean_ns"), bool
        ):
            errors.append(f"{where}: mean_ns missing or non-numeric")
        if not isinstance(entry.get("iterations"), int):
            errors.append(f"{where}: iterations missing or non-integer")
        for key, value in entry.items():
            if key == "name":
                continue
            if key.endswith("_ns") and not isinstance(value, (int, float)):
                errors.append(f"{where}: {key} is not numeric")
            if (
                key.endswith(PERCENTILE_SUFFIXES)
                and isinstance(value, (int, float))
                and value < 0
            ):
                errors.append(f"{where}: {key} is negative")

    if errors:
        for error in errors:
            print(f"bench_compare: FAIL: {path}: {error}")
        return 1
    print(
        f"bench_compare: {path}: valid fleet-bench-v2 "
        f"({len(benchmarks)} benchmark(s))"
    )
    return 0


def shared_percentile_keys(base_entry, fresh_entry):
    """Percentile fields carried by both sides, in a stable order."""
    return sorted(
        key
        for key in base_entry
        if key.endswith(PERCENTILE_SUFFIXES)
        and isinstance(base_entry.get(key), (int, float))
        and isinstance(fresh_entry.get(key), (int, float))
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh", nargs="?")
    parser.add_argument(
        "--validate",
        action="store_true",
        help="validate a single artifact against the fleet-bench-v2 shape",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=float(os.environ.get("FLEET_BENCH_MAX_SLOWDOWN", "1.5")),
        help="maximum allowed fresh/baseline mean ratio (default 1.5)",
    )
    parser.add_argument(
        "--gate-percentiles",
        action="store_true",
        help="apply the slowdown threshold to percentile fields too",
    )
    args = parser.parse_args()

    if args.validate:
        if args.fresh is not None:
            parser.error("--validate takes exactly one file")
        return validate(args.baseline)
    if args.fresh is None:
        parser.error("comparison needs BASELINE.json and FRESH.json")

    base_doc, base = load(args.baseline)
    fresh_doc, fresh = load(args.fresh)

    meta = fresh_doc.get("meta", {})
    if meta.get("fan_out_inline", meta.get("available_parallelism") == 1):
        print(
            "bench_compare: NOTE: this host runs the shard/kernel fan-out "
            "inline (single effective core), so multi-shard and multi-thread "
            "numbers measure the serial path — absolute comparisons against "
            "multi-core baselines are meaningless (see the PR 2 caveat in "
            "ROADMAP.md)."
        )
    base_meta = base_doc.get("meta", {})
    for key in ("available_parallelism", "fleet_num_threads"):
        if base_meta.get(key) != meta.get(key):
            print(
                f"bench_compare: NOTE: meta '{key}' differs "
                f"(baseline={base_meta.get(key)!r}, fresh={meta.get(key)!r}); "
                "ratios may reflect configuration, not code."
            )

    failures = []
    for name in sorted(set(base) | set(fresh)):
        if name not in base:
            fresh_mean = float(fresh[name]["mean_ns"])
            print(f"bench_compare: new benchmark {name}: {fresh_mean:.1f} ns (no baseline)")
            continue
        if name not in fresh:
            base_mean = float(base[name]["mean_ns"])
            print(f"bench_compare: benchmark {name} retired (baseline {base_mean:.1f} ns)")
            continue
        base_mean = float(base[name]["mean_ns"])
        fresh_mean = float(fresh[name]["mean_ns"])
        if base_mean <= 0.0:
            print(f"bench_compare: skipping {name}: non-positive baseline mean")
            continue
        ratio = fresh_mean / base_mean
        marker = "OK"
        if ratio > args.max_slowdown:
            marker = "REGRESSION"
            failures.append((name, ratio))
        print(
            f"bench_compare: {marker:>10} {name}: {base_mean:.1f} -> "
            f"{fresh_mean:.1f} ns ({ratio:.2f}x)"
        )
        for key in shared_percentile_keys(base[name], fresh[name]):
            base_v = float(base[name][key])
            fresh_v = float(fresh[name][key])
            if base_v <= 0.0:
                continue
            p_ratio = fresh_v / base_v
            p_marker = "ok"
            if p_ratio > args.max_slowdown:
                if args.gate_percentiles:
                    p_marker = "REGRESSION"
                    failures.append((f"{name}:{key}", p_ratio))
                else:
                    p_marker = "slower"
            print(
                f"bench_compare:     {p_marker:>10} {key}: {base_v:.0f} -> "
                f"{fresh_v:.0f} ns ({p_ratio:.2f}x)"
            )

    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"bench_compare: FAIL: {len(failures)} benchmark(s) exceeded the "
            f"{args.max_slowdown:.2f}x slowdown threshold "
            f"(worst: {worst[0]} at {worst[1]:.2f}x)"
        )
        return 1
    print(f"bench_compare: all shared benchmarks within {args.max_slowdown:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
