"""latticebands benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  It imports the package from
``src/`` of that checkout, generates the workload's CLI argument lists from
the seed and runs them in-process through ``latticebands.cli.main``, one
client in a closed loop, for about S seconds of whole passes over the
cases.  Every report is checked (bench/checks.py) and compared byte for
byte with the same case's earlier passes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones
(bench/spans.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; earlier lines record the
environment, the per-case timings and the workload premise.  Results and
spans are also written to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# The bench modules and the package import numpy, so they are imported
# inside functions, after main() has pinned the BLAS threads.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 8
SETUP_CASE = ("spectrum", "--q", "2,2", "--grid", "16,16", "--json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "case_p50_s": "s",
    "case_p90_s": "s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_share": "ratio",
    "certified_share": "ratio",
}

PER_LAYER = {
    "bandedges.sweep.count": "count",
    "bandedges.sweep.nodes": "count",
    "bandedges.sweep.busy_s": "s",
    "bandedges.sweep.eigensolve_s": "s",
    "bandedges.sweep.other_s": "s",
    "bandedges.sweep.matrices": "count",
    "bandedges.sweep.flops_computed": "flop",
    "bandedges.sweep.bytes_computed": "B",
    "bandedges.sweep.thread_util": "ratio",
    "bandedges.refine.busy_s": "s",
    "bandedges.refine.probes": "count",
    "bandedges.refine.improved_share": "ratio",
    "floquet.assemble.calls": "count",
    "floquet.assemble.busy_s": "s",
    "floquet.eigenvalues_sorted_desc.calls": "count",
    "floquet.eigenvalues_sorted_desc.busy_s": "s",
    "counterexample.verify_gap_at_zero.busy_s": "s",
    "freebands.interior_witness.self_s": "s",
    "degeneracy.calls": "count",
    "degeneracy.busy_s": "s",
    "cli.csv.busy_s": "s",
    "cli.csv.bytes": "B",
    "bandedges.iter_band_rows.busy_s": "s",
    "cli.serialize.busy_s": "s",
    "trace.case_p50_s": "s",
    "trace.overhead_s": "s",
    "trace.self_residual": "ratio",
    "premise_ok": "bool",
}

_SETUP_CODE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import latticebands.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = latticebands.cli.main(sys.argv[2:])
print(repr(time.perf_counter() - t0))
sys.exit(rc)
"""


@dataclass
class Result:
    """One execution of one case."""

    case: int
    seconds: float
    rc: int
    nodes: int
    traced: bool
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def percentile(values, p: int) -> float:
    """p-th percentile (p in 1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def run_case(main, case, reference, tracer=None) -> tuple[Result, str]:
    """Run one case through `main`, time it, check it against its invariants
    and against `reference` (label -> first report), returning the result
    and the report text.  Timing covers only the call into `main`; with a
    tracer, the same call is the case's root span."""
    from bench import checks

    buf = io.StringIO()
    exc_text = None
    root = tracer.open("case") if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(case.argv))
    except SystemExit as exc:  # argparse rejects arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash in the program counts as a failed case
        rc = 1
        exc_text = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    if root:
        tracer.close(root)
    text = buf.getvalue()
    failures = [exc_text] if exc_text else []
    digest = text
    if case.csv and not failures:
        try:
            digest += hashlib.sha256(Path(case.csv).read_bytes()).hexdigest()
        except OSError as err:
            failures.append(f"CSV not written: {err}")
    if not failures:
        known = reference.get(case.label)
        if known is None:
            failures = checks.check_case(case.argv, rc, text, case.csv)
            if not failures:
                reference[case.label] = digest
        elif known != digest:
            failures = ["report differs from the first pass"]
    nodes = 0
    if rc in (0, 3) and not failures:
        grid = json.loads(text.splitlines()[-1]).get("grid")
        nodes = math.prod(grid) if grid else 0
    return Result(-1, seconds, rc, nodes, False, failures), text


def measure_setup(placements) -> list[float]:
    """Cold starts in fresh processes, cycling through the CPU placements."""
    times = []
    for i in range(SETUP_REPEATS):
        os.sched_setaffinity(0, placements[i % len(placements)])
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), *SETUP_CASE],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up case exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def cpu_placements(cases) -> list[set]:
    """CPU sets that single-threaded cases alternate between.

    On a shared host the CPUs of one machine can run at different speeds
    for minutes at a time, and the scheduler tends to keep a busy thread on
    one of them, so a run's timings would depend on where it landed.
    Alternating cases over two CPUs gives every run the same mix.  Cases
    that sweep with worker threads keep every CPU.
    """
    from bench import checks

    cpus = sorted(os.sched_getaffinity(0))
    threaded = any(int(checks.option(c.argv, "--workers", "1")) > 1 for c in cases)
    if threaded or len(cpus) < 2:
        return [set(cpus)]
    return [{c} for c in cpus[:2]]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(original_thread_env) -> dict:
    import mpmath
    import numpy as np

    import latticebands

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, ValueError):
        blas_info = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "latticebands": latticebands.__version__,
        "git_commit": _git_commit(),
        "blas": blas_info,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "thread_env_before_pinning": original_thread_env,
    }


def run_passes(main, cases, seconds, trace, reference, placements):
    """Whole passes over the cases until the next pass would overrun.

    Case i of pass p runs on placements[(i + p) % len(placements)].  With
    trace, passes alternate untraced and traced (at least one of each).
    Returns the results and the tracer (or None).
    """
    from bench import spans

    tracer = spans.Tracer() if trace else None
    results: list[Result] = []
    last = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    n_pass = 0
    while True:
        traced = trace and n_pass % 2 == 1
        elapsed = time.perf_counter() - start
        if n_pass >= (2 if trace else 1) and elapsed + last[traced] > seconds:
            break
        t0 = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            for i, case in enumerate(cases):
                os.sched_setaffinity(0, placements[(i + n_pass) % len(placements)])
                if traced:
                    tracer.case = len(results)
                res, _ = run_case(main, case, reference, tracer if traced else None)
                res.case = i
                res.traced = traced
                results.append(res)
        last[traced] = time.perf_counter() - t0
        n_pass += 1
    return results, tracer


def single_worker(case):
    """The case with --workers 1."""
    argv = list(case.argv)
    argv[argv.index("--workers") + 1] = "1"
    return type(case)(case.label, tuple(argv), case.csv)


def end_to_end(results, setup_times) -> dict:
    timed = [r for r in results if not r.traced]
    times = [r.seconds for r in timed]
    total = sum(times)
    n = len(timed)
    return {
        "setup_s": statistics.median(setup_times),
        "case_p50_s": percentile(times, 50),
        "case_p90_s": percentile(times, 90),
        "nodes_per_s": sum(r.nodes for r in timed) / total,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_share": sum(1 for r in timed if not r.failed) / n,
        "certified_share": sum(1 for r in timed if r.rc == 0 and not r.failed) / n,
    }


PREMISES = {
    "sweep-large-cell": ("batched sweep >= 80% of case time", lambda m: m["share.sweep"] >= 0.80),
    "refine-small-cell": (
        "refinement is the largest layer",
        lambda m: m["share.refine"] >= max(m[f"share.{k}"] for k in ("sweep", "cli", "degeneracy", "freebands", "counterexample")),
    ),
    "gap-certify": ("bandedges.sweep.count is 2 per case", lambda m: m["bandedges.sweep.count"] == 2.0),
    "bands-export": ("row streaming plus CSV formatting > 50% of case time", lambda m: m["share.rows_csv"] > 0.5),
}


def per_layer(workload, results, tracer, cases) -> dict:
    """Per-layer metrics of the traced cases, plus each layer's share of the
    case time (share.*) and whether the workload's premise holds."""
    from bench import spans

    traced = [(idx, r) for idx, r in enumerate(results) if r.traced]
    case_ids = [idx for idx, _ in traced]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(spans.layer_metrics(tracer.spans, case_ids))
    csv_bytes = [Path(cases[r.case].csv).stat().st_size for _, r in traced if cases[r.case].csv]
    metrics["cli.csv.bytes"] = sum(csv_bytes) / len(case_ids)
    untraced_p50 = percentile([r.seconds for r in results if not r.traced], 50)
    metrics["trace.case_p50_s"] = percentile([r.seconds for _, r in traced], 50)
    metrics["trace.overhead_s"] = metrics["trace.case_p50_s"] - untraced_p50
    metrics["trace.self_residual"] = spans.self_time_residual(tracer.spans, case_ids)
    metrics["premise_ok"] = 1.0 if PREMISES[workload][1](metrics) else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin BLAS threads before numpy loads, so that sweep worker threads do
    # not oversubscribe the cores.
    original_thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update({k: "1" for k in THREAD_VARS})
    if not (SRC / "latticebands" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'latticebands'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from bench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    import latticebands
    from latticebands import cli

    if Path(latticebands.__file__).resolve().parent != (SRC / "latticebands").resolve():
        print(f"error: imported latticebands from {latticebands.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, cli.main, workloads, workdir, environment(original_thread_env))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli_main, workloads, workdir, env) -> int:
    from bench import checks

    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    cases = workloads.generate(args.workload, args.seed, str(workdir), workers)
    placements = cpu_placements(cases)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} cases/pass {len(cases)} trace {args.trace} "
          f"cpu placements {[sorted(p) for p in placements]}")
    for case in cases:
        print("case " + " ".join(case.argv))

    setup_times = [] if args.trace else measure_setup(placements)

    # Warm-up pass, untimed: fills lazy caches and checks each case once.
    # Cases that sweep with several workers warm up at --workers 1 instead;
    # those reports are the reference for the cross-worker comparison.
    reference: dict = {}
    single: dict = {}
    for i, case in enumerate(cases):
        os.sched_setaffinity(0, placements[i % len(placements)])
        threaded = int(checks.option(case.argv, "--workers", "1")) > 1
        res, text = run_case(cli_main, single_worker(case) if threaded else case, {} if threaded else reference)
        if res.failed:
            print(f"warm-up failure in {case.label}: {res.failures[0][:500]}")
        elif threaded:
            single[case.label] = checks.strip_workers(text.splitlines()[-1])

    results, tracer = run_passes(cli_main, cases, args.seconds, bool(args.trace), reference, placements)

    # Once per run, outside the timed region: each multi-worker report must
    # equal its --workers 1 report apart from the workers field.
    seen = set()
    for r in results:
        case = cases[r.case]
        if case.label in seen or r.failed or int(checks.option(case.argv, "--workers", "1")) == 1:
            continue
        seen.add(case.label)
        if checks.strip_workers(reference[case.label].splitlines()[-1]) != single.get(case.label):
            r.failures.append("report differs from its --workers 1 report")

    attempted = len(results)
    failed = sum(1 for r in results if r.failed)
    for i, case in enumerate(cases):
        mine = [r for r in results if r.case == i and not r.traced]
        if mine:
            times = [r.seconds for r in mine]
            print(f"timing {case.label}: n={len(times)} median={statistics.median(times):.6f}s rc={mine[0].rc}")
    for r in results:
        if r.failed:
            print(f"FAILED {cases[r.case].label}: {r.failures[0][:500]}")
    untraced = [r for r in results if not r.traced]
    n = len(untraced)
    beyond = n - math.ceil(0.9 * n)
    print(f"samples {n} untraced cases ({n // len(cases)} passes); {beyond} beyond p90; "
          f"failed_share {sum(r.failed for r in untraced) / n:.6f}")

    if args.trace:
        layers = per_layer(args.workload, results, tracer, cases)
        desc = PREMISES[args.workload][0]
        print(f"premise {args.workload}: {desc}: {'PASS' if layers['premise_ok'] else 'FAIL'}")
        for name in sorted(k for k in layers if k.startswith("share.")):
            print(f"{name} = {layers[name]:.4f} of case time")
        tracer.dump(OUT / f"spans-{args.workload}.jsonl")
        metrics = {k: layers[k] for k in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = end_to_end(results, setup_times)
        print(f"setup runs: {', '.join(f'{t:.4f}' for t in setup_times)}")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "cases": [list(c.argv) for c in cases],
              "samples": [[r.case, r.seconds, r.rc, r.traced] for r in results],
              "setup_samples": setup_times, **summary}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
