"""Command line interface.

Subcommands: bands, spectrum, witness, cq, degeneracy, counterexample.
Machine output is canonical JSON (sorted keys, floats at 17 significant
digits) so identical configurations produce byte-identical reports.
Exit codes: 0 success, 1 computation failure, 2 configuration error,
3 inconclusive certification.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__, bandedges
from .errors import ComputationError, ConfigurationError, DomainError
from .floquet import (
    Potential,
    load_potential,
    random_potential,
    zero_potential,
)
from .lattice import PeriodVector, period, phase

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_INCONCLUSIVE = 3


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Serialize with sorted keys and fixed float formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return json.dumps(str(x))
        return _fmt_float(x)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        body = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {what} {text!r}: {exc}") from None


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse {what} {text!r}: {exc}") from None


def _resolve_q(args) -> PeriodVector:
    return period(_parse_ints(args.q, "--q"))


def _resolve_grid(args, q: PeriodVector) -> bandedges.GridSpec:
    """The sweep flags: the one place a grid is chosen, --grid if given and
    else default_grid(q, --budget); --workers is checked here too."""
    bandedges.check_workers(args.workers)
    if args.grid:
        m = _parse_ints(args.grid, "--grid")
        if len(m) != q.d:
            raise ConfigurationError(f"--grid has {len(m)} entries, expected {q.d}")
        return bandedges.GridSpec(m, budget=args.budget)
    return bandedges.default_grid(q, budget=args.budget)


def _resolve_potential(args, q: PeriodVector) -> tuple[Potential, dict]:
    name = args.potential
    if args.seed is not None and name != "random":
        raise ConfigurationError(f"--seed applies only to --potential random, not {name}")
    info: dict = {"kind": name}
    if name in ("dimer", "vq", "random"):
        if args.delta is None:
            raise ConfigurationError(f"--potential {name} requires --delta")
        info["delta"] = args.delta
        if name == "random":
            info["seed"] = 0 if args.seed is None else args.seed
            return random_potential(q, args.delta, info["seed"]), info
        from . import counterexample

        if name == "dimer":
            return counterexample.build_dimer(q, args.delta), info
        spec = counterexample.CounterexampleSpec(q, args.delta)
        return counterexample.build_vq(spec), info
    if args.delta is not None:
        raise ConfigurationError(f"--delta does not apply to --potential {name}")
    if name == "zero":
        return zero_potential(q), info
    V = load_potential(name)
    if V.q != q:
        raise ConfigurationError(
            f"potential file periods {V.q.q} do not match --q {q.q}"
        )
    info["path"] = name
    return V, info


def _base_config(args, q: PeriodVector, grid: bandedges.GridSpec | None) -> dict:
    cfg = {"command": args.command, "q": list(q.q), "version": __version__}
    if grid is not None:
        cfg["grid"] = list(grid.m)
        cfg["refine_rounds"] = bandedges.REFINE_ROUNDS
        cfg["budget"] = grid.budget
        cfg["workers"] = args.workers
    return cfg


def _emit(args, report: dict, human_lines: list[str]) -> None:
    text = canonical_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        for line in human_lines:
            print(line)


def _interval_dicts(intervals) -> list[dict]:
    return [{"lo": iv.lo, "hi": iv.hi} for iv in intervals]


def _gap_dicts(gaps) -> list[dict]:
    return [{"lo": g.lo, "hi": g.hi, "width": g.width} for g in gaps]


def cmd_bands(args) -> int:
    q = _resolve_q(args)
    grid = _resolve_grid(args, q)
    V, pinfo = _resolve_potential(args, q)
    # Without --json no report needs the certified table: the CSV comes
    # from its own row pass and the summary line only needs the slack.
    # Taking the first row solves every representative, before --out is
    # opened, and keeps the band reductions on V for certified_edges.
    if args.out or not args.json:
        rows = bandedges.iter_band_rows(q, V, grid)
        rows = itertools.chain([next(rows)], rows)
    if args.json:
        table = bandedges.certified_edges(q, V, grid, workers=args.workers)
        report = _base_config(args, q, grid)
        report["potential"] = pinfo
        report["slack"] = table.slack
        report["bands"] = [
            {
                "band": k,
                "min": table.band_min(k),
                "max": table.band_max(k),
                "theta_min": list(table.theta_min(k).theta),
                "theta_max": list(table.theta_max(k).theta),
            }
            for k in range(1, table.Q + 1)
        ]
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh, q, grid, rows)
    elif not args.json:
        _write_csv(sys.stdout, q, grid, rows)
    if args.json:
        print(canonical_json(report))
    elif args.out:
        slack = bandedges.certified_slack(q, grid)
        print(f"bands: wrote {grid.n_nodes} rows to {args.out} (slack {slack:.6g})")
    return EXIT_OK


# Rows of CSV text gathered per write.
_CSV_ROWS_PER_WRITE = 4096


def _write_csv(fh, q: PeriodVector, grid: bandedges.GridSpec, rows) -> None:
    """Write the header and one "%.17g" row per grid node, row-major, from
    the value rows of iter_band_rows.

    Each piece of text is made once: the theta columns come from per-axis
    tables (node j_i sits at j_i h_i), and a row's eigenvalue text is kept
    until a later row with the same bits (the mirrored node, which
    iter_band_rows serves from the same solve) reuses it, so at most one
    entry per time-reversal representative is held.  "%.17g" % x is the
    same string as _fmt_float(x) for every float.
    """
    header = [f"theta_{i + 1}" for i in range(q.d)] + [f"E_{k}" for k in range(1, q.Q + 1)]
    axes = [
        ["%.17g," % x for x in (np.arange(mi) * h).tolist()]
        for mi, h in zip(grid.m, grid.steps(q))
    ]
    fmt = ",".join(["%.17g"] * q.Q) + "\n"
    pending: dict[bytes, str] = {}
    lines = [",".join(header) + "\n"]
    for prefix, vals in zip(map("".join, itertools.product(*axes)), rows):
        key = vals.tobytes()
        text = pending.pop(key, None)
        if text is None:
            text = pending[key] = fmt % tuple(vals.tolist())
        lines.append(prefix + text)
        if len(lines) == _CSV_ROWS_PER_WRITE:
            fh.write("".join(lines))
            lines.clear()
    fh.write("".join(lines))


def cmd_spectrum(args) -> int:
    q = _resolve_q(args)
    effective = sum(1 for qi in q.q if qi >= 2)
    if effective < 2:
        raise ConfigurationError(
            f"spectrum needs at least two directions with q_i >= 2, got {q.q}"
        )
    grid = _resolve_grid(args, q)
    V, pinfo = _resolve_potential(args, q)
    table = bandedges.certified_edges(q, V, grid, workers=args.workers)
    report_obj = bandedges.assemble_spectrum(table)
    report = _base_config(args, q, grid)
    report["potential"] = pinfo
    report["slack"] = report_obj.slack
    report["merge_tol"] = report_obj.merge_tol
    report["certified"] = report_obj.certified
    report["intervals"] = _interval_dicts(report_obj.intervals)
    report["gaps"] = _gap_dicts(report_obj.gaps)
    report["overlaps"] = list(report_obj.overlaps)
    lines = [
        f"spectrum: {len(report_obj.intervals)} interval(s), "
        f"certified={report_obj.certified}, slack={report_obj.slack:.6g}"
    ]
    lines += [f"  [{iv.lo:.9g}, {iv.hi:.9g}]" for iv in report_obj.intervals]
    _emit(args, report, lines)
    return EXIT_OK if report_obj.certified else EXIT_INCONCLUSIVE


def cmd_witness(args) -> int:
    from . import freebands

    q = _resolve_q(args)
    grid = _resolve_grid(args, q)
    result = freebands.interior_witness(q, args.energy, grid, workers=args.workers)
    report = _base_config(args, q, grid)
    report["energy"] = args.energy
    report["band_index"] = result.band_index
    report["margin"] = result.margin
    report["theta_witness"] = list(result.theta_witness.theta)
    report["touching_at_zero"] = result.touching_at_zero
    if result.touching_at_zero:
        outcome = "touching_at_zero"
    elif result.margin > 0:
        outcome = "interior"
    else:
        outcome = "uncertified"
    report["outcome"] = outcome
    _emit(
        args,
        report,
        [
            f"witness: E={args.energy} outcome={outcome} band={result.band_index} "
            f"margin={result.margin:.6g}"
        ],
    )
    return EXIT_OK if outcome != "uncertified" else EXIT_INCONCLUSIVE


def cmd_cq(args) -> int:
    q = _resolve_q(args)
    grid = _resolve_grid(args, q)
    est = bandedges.estimate_cq(q, grid, workers=args.workers)
    report = _base_config(args, q, grid)
    report["c_q"] = est.c_q
    report["touching_at_zero"] = est.touching_at_zero
    report["inconclusive"] = est.inconclusive
    report["min_overlap"] = est.min_overlap
    report["overlaps"] = list(est.overlaps)
    report["excluded_pairs"] = list(est.excluded_pairs)
    report["slack"] = est.slack
    _emit(
        args,
        report,
        [
            f"cq: c_q={est.c_q:.6g} touching_at_zero={est.touching_at_zero} "
            f"inconclusive={est.inconclusive}"
        ],
    )
    return EXIT_INCONCLUSIVE if est.inconclusive else EXIT_OK


def cmd_degeneracy(args) -> int:
    from . import degeneracy

    q = _resolve_q(args)
    theta = phase(q, _parse_floats(args.theta, "--theta"))
    target = _parse_ints(args.l, "--l")
    beta = np.asarray(_parse_floats(args.beta, "--beta"))
    norm = float(np.linalg.norm(beta))
    if not math.isfinite(norm) or norm == 0:
        raise ConfigurationError(f"--beta must be a finite nonzero vector, got {args.beta!r}")
    beta = beta / norm
    group = degeneracy.coincident_group(q, theta, target)
    cls = degeneracy.classify(q, group, beta)
    sign = 1 if args.t > 0 else -1
    predicted = degeneracy.predict_moves(q, group, beta, sign, cls)
    counted = degeneracy.count_moves(q, group, beta, args.t)
    report = _base_config(args, q, None)
    report["theta"] = list(theta.theta)
    report["target_l"] = list(target)
    report["beta"] = [float(b) for b in beta]
    report["t"] = args.t
    report["group"] = {
        "level": group.level,
        "r": group.r,
        "position_offset": group.position_offset,
        "members": [list(m.l) for m in group.members],
    }
    report["classification"] = {
        "j_zero": cls.j_zero,
        "j_plus": cls.j_plus,
        "j_orth": cls.j_orth,
        "j_minus": cls.j_minus,
        "labels": list(cls.labels),
    }
    report["predicted"] = {"n_up": predicted[0], "n_down": predicted[1]}
    report["counted"] = {
        "n_up": counted.n_up,
        "n_down": counted.n_down,
        "ambiguous": [list(m.l) for m in counted.ambiguous],
    }
    _emit(
        args,
        report,
        [
            f"degeneracy: r={group.r} level={group.level:.6g} "
            f"predicted up/down={predicted[0]}/{predicted[1]} "
            f"counted up/down={counted.n_up}/{counted.n_down}"
        ],
    )
    # A conclusive count that disagrees with the prediction certifies nothing.
    agrees = counted.conclusive and (counted.n_up, counted.n_down) == predicted
    return EXIT_OK if agrees else EXIT_INCONCLUSIVE


def cmd_counterexample(args) -> int:
    from . import counterexample

    q = _resolve_q(args)
    if args.delta is None:
        raise ConfigurationError("counterexample requires --delta")
    grid = _resolve_grid(args, q)
    spec = counterexample.CounterexampleSpec(q, args.delta, force=args.force)
    V = counterexample.build_vq(spec)
    check = counterexample.neighbor_sum_check(V, spec.delta)
    gap = counterexample.verify_gap_at_zero(spec, grid, workers=args.workers)
    table = bandedges.certified_edges(q, V, grid, workers=args.workers)
    spectrum = bandedges.assemble_spectrum(table)
    report = _base_config(args, q, grid)
    report["delta"] = spec.delta
    report["neighbor_check"] = {
        "ok": check.ok,
        "pure_dimer": check.pure_dimer,
        "expected": check.expected,
        "failures": len(check.failures),
    }
    report["gap_margin"] = gap.margin
    report["gap_certified_margin"] = gap.certified_margin
    report["gap_passes"] = gap.passes
    report["gap_inconclusive"] = gap.inconclusive
    report["slack"] = table.slack
    report["certified"] = spectrum.certified
    report["intervals"] = _interval_dicts(spectrum.intervals)
    report["gaps"] = _gap_dicts(spectrum.gaps)
    lines = [
        f"counterexample: delta={spec.delta} intervals={len(spectrum.intervals)} "
        f"gap_margin={gap.margin:.6g} (certified {gap.certified_margin:.6g})"
    ]
    _emit(args, report, lines)
    if gap.inconclusive or not spectrum.certified:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, sweep: bool = True, potential: bool = False) -> None:
    """--q, --out and --json, plus the sweep flags and the potential flags."""
    p.add_argument("--q", required=True, help="comma separated periods, e.g. 2,3")
    if sweep:
        p.add_argument("--grid", default=None, help="comma separated samples per direction")
        p.add_argument("--budget", type=int, default=1 << 16, help="max grid nodes")
        p.add_argument("--workers", type=int, default=1, help="worker threads for grid sweeps")
    p.add_argument("--out", default=None, help="write the report (or CSV for bands) here")
    p.add_argument("--json", action="store_true", help="print canonical JSON to stdout")
    if potential:
        p.add_argument(
            "--potential",
            default="zero",
            help="zero | dimer | vq | random | path to a JSON potential file",
        )
        p.add_argument("--delta", type=float, default=None, help="coupling for dimer, vq and random")
        p.add_argument("--seed", type=int, default=None, help="seed for --potential random (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticebands",
        description="Band structure and certified spectral gaps for periodic lattice operators",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="sample every band over a phase grid (CSV/JSON)")
    _add_common(p, potential=True)

    p = sub.add_parser("spectrum", help="certified spectrum intervals and gaps")
    _add_common(p, potential=True)

    p = sub.add_parser("witness", help="certify an energy strictly inside a free band")
    _add_common(p)
    p.add_argument("--energy", type=float, required=True)

    p = sub.add_parser("cq", help="certified coupling threshold from free overlaps")
    _add_common(p)

    p = sub.add_parser("degeneracy", help="classify and split a coincident level group")
    _add_common(p, sweep=False)
    p.add_argument("--theta", required=True, help="comma separated reduced phase")
    p.add_argument("--l", required=True, help="comma separated target frequency offset")
    p.add_argument("--beta", required=True, help="comma separated direction (normalized)")
    p.add_argument("--t", type=float, default=1e-3, help="finite step for counting")

    p = sub.add_parser("counterexample", help="build the gap-opening potential and verify it")
    _add_common(p)
    p.add_argument("--delta", type=float, default=None, help="coupling of the construction")
    p.add_argument("--force", action="store_true", help="allow couplings above the default cap")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up at call time, so a replaced cmd_<command> is the one run.
        return globals()[f"cmd_{args.command}"](args)
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
