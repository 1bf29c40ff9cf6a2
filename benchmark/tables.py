#!/usr/bin/env python3
"""Reads fleetbench's printed output and checks or tabulates it.

    tables.py check  BENCHMARK.json LOG
        A `run.sh --check` log: every end-to-end metric (trace 0) and every
        per-layer metric (trace 1) of BENCHMARK.json is printed, by that name
        and unit, for every workload, and nothing else; a workload's digest
        is the same at FLEET_NUM_THREADS=1 as at the default.

    tables.py repeat BENCHMARK.json A B C TRACE_A TRACE_B
        `repeat.sh`'s table: per workload x end-to-end metric the values of
        two runs of one seed (A, B), |A-B|/A against the bound, and the run
        on a second seed (C); then whether every count-type per-layer metric
        is identical between the two traced runs.
"""
import json
import sys


def blocks(path):
    """(workload, trace, threads=1?) -> metrics {name: (value, unit)}, digest, noisy."""
    out = {}
    current = None
    for line in open(path):
        words = line.split()
        if words[:1] == ["workload"]:
            pinned = words[1] == "threads=1"
            name = words[2] if pinned else words[1]
            current = {"metrics": {}, "digest": None, "noisy": False}
            out[(name, int(words[-1]), pinned)] = current
        elif current is None:
            continue
        elif words[:1] == ["metric"]:
            current["metrics"][words[1]] = (float(words[3]), words[4])
        elif words[:3] == ["note", "digest", "="]:
            current["digest"] = words[3]
        elif words[:3] == ["meta", "noisy", "="]:
            current["noisy"] = words[3] == "true"
    return out


def check(spec, log):
    seen = blocks(log)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            block = seen.get((workload, trace, False))
            if block is None:
                problems.append(f"{workload} trace {trace}: no output")
                continue
            printed = {name: unit for name, (_, unit) in block["metrics"].items()}
            if printed != wanted[trace]:
                odd = sorted(set(printed.items()) ^ set(wanted[trace].items()))
                problems.append(f"{workload} trace {trace}: differs from BENCHMARK.json in {odd}")
        default, pinned = seen.get((workload, 0, False)), seen.get((workload, 0, True))
        if not default or not pinned or not default["digest"] or default["digest"] != pinned["digest"]:
            problems.append(f"{workload}: digest differs between FLEET_NUM_THREADS=1 and the default")
    for problem in problems:
        print("check FAILED:", problem)
    if not problems:
        print("check ok: metric names and units match BENCHMARK.json; digests agree at 1 thread")
    return 1 if problems else 0


def repeat(spec, a, b, c, trace_a, trace_b):
    a, b, c = blocks(a), blocks(b), blocks(c)
    status = 0
    print("| workload | metric | unit | A | B | \\|A-B\\|/A | bound | second seed |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in [w["name"] for w in spec["workloads"]]:
        key = (workload, 0, False)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb, vc = (run[key]["metrics"][name][0] for run in (a, b, c))
            apart = abs(va - vb) / va
            within = apart <= metric["bound"]
            # setup_s: a quarter of the value or a quarter of a second,
            # whichever is larger.
            if name == "setup_s":
                within = within or abs(va - vb) <= 0.25
            status |= not within
            print(
                f"| {workload} | {name} | {metric['unit']} | {va:.6g} | {vb:.6g} | "
                f"{apart:.3f}{'' if within else ' OVER'} | {metric['bound']} | {vc:.6g} |"
            )
        for tag, run in (("A", a), ("B", b), ("second seed", c)):
            if run[key]["noisy"]:
                print(f"\n{workload}: run {tag} is flagged noisy; discard the set")
                status = 1
    ta, tb = blocks(trace_a), blocks(trace_b)
    differing = [
        (workload, name)
        for (workload, trace, _), block in ta.items()
        for name, (value, unit) in block["metrics"].items()
        if unit in ("count", "B") and tb[(workload, trace, False)]["metrics"][name][0] != value
    ]
    print("\ncount-type per-layer metrics identical between the two traced runs:",
          "yes" if not differing else f"NO: {differing}")
    return status or bool(differing)


if __name__ == "__main__":
    spec = json.load(open(sys.argv[2]))
    sys.exit({"check": check, "repeat": repeat}[sys.argv[1]](spec, *sys.argv[3:]))
