"""Seeded workload generators.

Each workload is a fixed list of case shapes (command, periods, grid);
the seed draws only the inputs inside them: potential seeds and
couplings, witness energies, the coupling of the gap construction, and
degeneracy phases, offsets, directions and steps.  The program sees only
the generated CLI argument lists.

Every pass runs five (or fifteen) cases.  With that count the median and
the 90th percentile of the pooled case times fall in the middle of one
case's share of the samples rather than on the boundary between two case
sizes, which keeps both percentiles steady from run to run.

The input ranges are chosen so that no case fails and each case's outcome
(certified or inconclusive) is the same for every seed; see README.md.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep-large-cell", "refine-small-cell", "gap-certify", "bands-export")


@dataclass(frozen=True)
class Case:
    """One CLI invocation.  label is stable across seeds."""

    label: str
    argv: tuple[str, ...]
    csv: str | None = None


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _fmt(x: float) -> str:
    return format(x, ".6f")


def _case(command, q, grid=None, extra=(), csv=None, label=None):
    argv = [command, "--q", _csv(q)]
    if grid is not None:
        argv += ["--grid", _csv(grid)]
    for flag, value in zip(extra[::2], extra[1::2]):
        # "--flag=value" keeps argparse from reading "-0.3,1" as an option
        argv += [f"{flag}={value}"] if value.startswith("-") else [flag, value]
    if csv is not None:
        argv += ["--out", csv]
    argv.append("--json")
    if label is None:
        label = f"{command} {_csv(q)}" + (f" @{'x'.join(map(str, grid))}" if grid else "")
    return Case(label, tuple(argv), csv)


def _random_potential(rng, lo, hi):
    return ["--potential", "random", "--delta", _fmt(rng.uniform(lo, hi)), "--seed", str(rng.randrange(1 << 31))]


# Large cells at grids where the batched sweep dominates: refinement costs
# 40 d Q single-matrix solves per case whatever the grid, so the grids are
# sized to keep the sweep above 80% of the workload's case time.
SWEEP_LARGE_CELL = (
    ((3, 4), (160, 160)),
    ((2, 2, 3), (32, 32, 32)),
    ((3, 3), (256, 256)),
    ((4, 4), (192, 192)),
    ((6, 6), (96, 96)),
)


def sweep_large_cell(rng, workdir, workers):
    return [
        _case("spectrum", q, m, _random_potential(rng, 0.02, 0.2) + ["--workers", "1"])
        for q, m in SWEEP_LARGE_CELL
    ]


def _witness_energy(rng, d):
    # |E| in [0.3, 2d - 0.5]: away from zero, where all-even cells touch,
    # and from the spectrum edges, so the interior margin stays large.
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2 * d - 0.5)


def _degeneracy(rng, q):
    # Special phases theta_i in {0, 1/(2 q_i)} make levels coincide.  The
    # direction is a signed permutation of (1, r) with r in [0.2, 0.4]: no
    # gradient of a free level at these phases is orthogonal to it and no
    # zero-gradient member has zero curvature along it, so every member
    # moves at first or second order and the count is conclusive.
    theta = [rng.choice((0, 1)) / (2 * qi) for qi in q]
    target = [rng.randrange(qi) for qi in q]
    r = rng.uniform(0.2, 0.4)
    beta = [1.0, r] if rng.random() < 0.5 else [r, 1.0]
    beta = [b * rng.choice((-1.0, 1.0)) for b in beta]
    t = rng.choice((-1.0, 1.0)) * rng.uniform(5e-4, 2e-3)
    extra = [
        "--theta", _csv(repr(x) for x in theta),
        "--l", _csv(target),
        "--beta", _csv(_fmt(b) for b in beta),
        "--t", format(t, ".6e"),
    ]
    return _case("degeneracy", q, None, extra, label=f"degeneracy {_csv(q)}")


def refine_small_cell(rng, workdir, workers):
    # Fifteen cases; ordered by time they fill slots 1-4 (degeneracy),
    # 5 (witness 2,2), 6-10 (five witnesses on 2,3 and 3,2, which take the
    # same time, so p50 at slot 8 is their median), 11 (cq 2,3), 12-13
    # (witness 3,3), 14 (cq 3,3, p90) and 15 (witness 3,3,2).
    cells = ((2, 2), (2, 3), (2, 3), (2, 3), (3, 2), (3, 2), (3, 3), (3, 3), (3, 3, 2))
    cases = []
    for q in cells:
        grid = (64, 64) if len(q) == 2 else (16, 16, 16)
        cases.append(_case("witness", q, grid, ["--energy", repr(_witness_energy(rng, len(q)))]))
    cases.append(_case("cq", (2, 3), (64, 64)))
    cases.append(_case("cq", (3, 3), (64, 64)))
    for q in ((3, 2), (2, 3), (2, 4), (4, 3)):
        cases.append(_degeneracy(rng, q))
    return cases


# Couplings in [0.13, 0.21] keep every outcome fixed: at 256^2 the slack
# (0.049) leaves the certificate margin - slack > delta/2 intact, while at
# 64^2, 96^2 and 40^3 the slack swallows it.
GAP_CASES = (
    ((2, 2), (256, 256)),
    ((2, 4), (256, 256)),
    ((4, 4), (64, 64)),
    ((2, 2, 2), (40, 40, 40)),
    ((2, 6), (96, 96)),
)


def gap_certify(rng, workdir, workers):
    return [
        _case("counterexample", q, m, ["--delta", _fmt(rng.uniform(0.13, 0.21)), "--workers", str(workers)])
        for q, m in GAP_CASES
    ]


def bands_export(rng, workdir, workers):
    specs = (
        ((2, 3), (128, 128), []),
        ((4, 4), (64, 64), _random_potential(rng, 0.05, 0.3)),
        ((2, 2, 2), (24, 24, 24), []),
        ((3, 3), (64, 64), _random_potential(rng, 0.05, 0.3)),
        ((2, 2), (96, 96), ["--potential", "dimer", "--delta", _fmt(rng.uniform(0.05, 0.3))]),
    )
    cases = []
    for i, (q, m, extra) in enumerate(specs):
        csv = f"{workdir}/bands-{i}.csv"
        cases.append(_case("bands", q, m, extra + ["--workers", "1"], csv=csv))
    return cases


_GENERATORS = {
    "sweep-large-cell": sweep_large_cell,
    "refine-small-cell": refine_small_cell,
    "gap-certify": gap_certify,
    "bands-export": bands_export,
}


def generate(workload: str, seed: int, workdir: str, workers: int = 2) -> list[Case]:
    """The workload's cases for this seed; the same seed gives the same cases."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _GENERATORS[workload](rng, workdir, workers)
    seen: dict[str, int] = {}
    for i, case in enumerate(cases):
        seen[case.label] = seen.get(case.label, 0) + 1
        if seen[case.label] > 1:
            cases[i] = Case(f"{case.label} #{seen[case.label]}", case.argv, case.csv)
    return cases
