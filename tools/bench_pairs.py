"""Alternating parent/change runs of the benchmark, summarized per metric.

    python3 tools/bench_pairs.py --parent PATH --change PATH --label NAME \
        [--workloads W,W] [--seeds 4-13] [--claim W:METRIC] [--description TEXT]

For each workload and seed it runs

    python3 bench/run.py --workload W --seed S --seconds SECONDS

with SECONDS the run_seconds of the change checkout's BENCHMARK.json, once
in each checkout (the working directory is the checkout, so each side
imports its own src/), the parent first on even seeds and the change first
on odd ones.  It reads the metrics from the last line of each run's stdout,
prints per workload and end-to-end metric the medians, quartiles and pair
wins, and writes BENCH_<label>.json to the repository holding this file.
The end-to-end metric names, and which way is better, also come from
BENCHMARK.json of the change checkout.

A pair is won by the side with the better value; ties count for neither.
Quartiles are numpy percentiles 25 and 75.  With --claim W:METRIC the file
also records whether the change wins at least nine tenths of the pairs on
that metric and its median is better than the parent's by more than the
parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """"4-13" or "4,5,9" as a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def order(seed: int) -> tuple[str, str]:
    """The sides in running order: the parent first on even seeds."""
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as numpy percentiles 25, 50 and 75."""
    q1, med, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(med), float(q3)


def wins(parent, change, better: str) -> int:
    """Pairs in which the change has the better value; ties win nothing."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))


def summarize(parent, change, better: str) -> dict:
    """Runs, medians, quartiles, interquartile ranges and pair wins of one metric."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    return {
        "better": better,
        "parent_runs": [float(x) for x in parent],
        "change_runs": [float(x) for x in change],
        "parent_median": pm,
        "change_median": cm,
        "parent_quartiles": [p1, p3],
        "change_quartiles": [c1, c3],
        "parent_iqr": p3 - p1,
        "change_iqr": c3 - c1,
        "ratio": cm / pm if pm else None,
        "pairs": len(parent),
        "change_wins": wins(parent, change, better),
        "parent_wins": wins(change, parent, better),
    }


def claim_met(summary: dict) -> bool:
    """The change wins at least 9 of 10 pairs (nine tenths, rounded up) and
    its median is better by more than the parent's interquartile range."""
    gain = summary["change_median"] - summary["parent_median"]
    if summary["better"] == "lower":
        gain = -gain
    return 10 * summary["change_wins"] >= 9 * summary["pairs"] and gain > summary["parent_iqr"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one benchmark run in a checkout."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return read_metrics(done.stdout)


def read_metrics(stdout: str) -> dict:
    """Metric name -> value, from the JSON object on the last line of a run's stdout."""
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def git_commit(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default=None, help="comma separated; default: every workload")
    parser.add_argument("--seeds", default="4-13")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": args.parent, "change": args.change}

    workloads = {}
    for name in names:
        runs = {"parent": [], "change": []}
        for seed in seeds:
            for side in order(seed):
                runs[side].append(run_once(checkouts[side], name, seed, seconds))
                print(f"{name} seed {seed} {side} done", file=sys.stderr, flush=True)
        workloads[name] = {
            metric: summarize([r[metric] for r in runs["parent"]], [r[metric] for r in runs["change"]], better)
            for metric, better in metrics.items()
        }
        for metric, s in workloads[name].items():
            print(f"{name:18s} {metric:16s} parent {s['parent_median']:.6g} "
                  f"[{s['parent_quartiles'][0]:.6g}, {s['parent_quartiles'][1]:.6g}]  "
                  f"change {s['change_median']:.6g} "
                  f"[{s['change_quartiles'][0]:.6g}, {s['change_quartiles'][1]:.6g}]  "
                  f"change wins {s['change_wins']}/{s['pairs']}")

    record = {
        "label": args.label,
        "description": args.description,
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g}",
        "protocol": (f"{len(seeds)} alternating pairs per workload, seeds {args.seeds}, parent first "
                     "on even seeds; each side runs bench/run.py of its own checkout; quartiles are "
                     "numpy percentiles 25 and 75; a pair is won by the side with the better value, "
                     "ties count for neither"),
        "parent": git_commit(args.parent),
        "change": git_commit(args.change),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "platform": platform.platform()},
        "workloads": workloads,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        summary = workloads[workload][metric]
        record["claim"] = {"workload": workload, "metric": metric, "met": claim_met(summary),
                           "median_difference": summary["change_median"] - summary["parent_median"],
                           "parent_iqr": summary["parent_iqr"], "change_wins": summary["change_wins"],
                           "pairs": summary["pairs"]}
        print(f"claim {args.claim}: {'met' if record['claim']['met'] else 'not met'}")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
