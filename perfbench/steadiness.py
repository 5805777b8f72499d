#!/usr/bin/env python3
"""Run the benchmark back to back and report how steady each metric is.

For every workload in BENCHMARK.json this runs the benchmark's command
`--runs` times and prints per metric the median, the first and third
quartile (Python's `statistics.quantiles(n=4)`), and the quartile distance
as a share of the median beside the metric's bound. By default each run
gets another seed (`--first-seed`, then the next ones);
`--fixed-seed N` runs every repeat on seed N instead, so
the spread is host noise alone.

`--save FILE` keeps the raw values as JSON; `--compare A B` compares the
medians of two saved sets against each metric's bound.

Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --save set1.json
    python3 perfbench/steadiness.py --runs 10 --fixed-seed 42
    python3 perfbench/steadiness.py --compare set1.json set2.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = next(
        (json.loads(l)["perfbench_record"] for l in lines if l.startswith('{"perfbench_record"')),
        {},
    )
    return result, record, elapsed


def measure(bench, workload, seeds):
    """Run the workload once per seed; return its raw values and run facts."""
    values, elapsed, attempted, failed, prov = {}, [], 0, 0, {}
    for seed in seeds:
        result, record, secs = run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: output checks failed")
        prov = prov or record.get("provenance", {})
        elapsed.append(secs)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: {secs:.1f} s", file=sys.stderr)
    return {
        "seeds": seeds,
        "values": values,
        "process_s": elapsed,
        "attempted": attempted,
        "failed": failed,
        "provenance": prov,
    }


def spread_table(bench, workload, data):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = data["seeds"]
    prov = data["provenance"]
    which = (
        f"seed {seeds[0]} every time" if len(set(seeds)) == 1
        else f"seeds {seeds[0]}..{seeds[-1]}"
    )
    out = [f"### {workload}\n"]
    out.append(
        f"{len(seeds)} runs, {which}, {bench['run_seconds']} s each (process time median "
        f"{statistics.median(data['process_s']):.1f} s); host_cores={prov.get('host_cores')} "
        f"pool_workers={prov.get('pool_workers')} profile={prov.get('profile')} "
        f"git_rev={prov.get('git_rev')} rustc=`{prov.get('rustc')}`; "
        f"runs checked {data['attempted']}, failed {data['failed']}.\n"
    )
    out.append("| metric | median | q1 | q3 | spread | bound | within bound | below bound/3 |")
    out.append("|---|---|---|---|---|---|---|---|")
    for name, vals in data["values"].items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        out.append(
            f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {bound} | "
            f"{'yes' if spread <= bound else 'NO'} | {'yes' if spread < bound / 3 else 'NO'} |"
        )
    out.append("")
    return out


def compare_table(bench, first, second):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    out = [
        "| workload | metric | first median | second median | change | worse by | bound | within bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, a in first.items():
        b = second[workload]
        for name, vals in a["values"].items():
            m1 = statistics.median(vals)
            m2 = statistics.median(b["values"][name])
            change = m2 / m1 - 1.0 if m1 else 0.0
            worse = max(0.0, change if metrics[name]["better"] == "lower" else -change)
            bound = metrics[name]["bound"]
            out.append(
                f"| {workload} | {name} | {m1:.6g} | {m2:.6g} | {change:+.4f} | {worse:.4f} "
                f"| {bound} | {'yes' if worse <= bound else 'NO'} |"
            )
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", type=int, help="run every repeat on this seed")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--save", help="write the raw values of this set to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare the medians of two saved sets; runs nothing")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    if opts.compare:
        sets = []
        for path in opts.compare:
            with open(path, encoding="utf-8") as f:
                sets.append(json.load(f))
        print("\n".join(compare_table(bench, *sets)))
        return

    if opts.fixed_seed is not None:
        seeds = [opts.fixed_seed] * opts.runs
    else:
        seeds = [opts.first_seed + i for i in range(opts.runs)]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    sets, out = {}, []
    for workload in workloads:
        sets[workload] = measure(bench, workload, seeds)
        out += spread_table(bench, workload, sets[workload])
    print("\n".join(out))
    if opts.save:
        with open(opts.save, "w", encoding="utf-8") as f:
            json.dump(sets, f, indent=1)


if __name__ == "__main__":
    main()
