"""Per-case correctness checks on CLI reports.

Every check is an invariant that holds as a theorem for any correct
implementation, not a comparison with golden bytes, so a change that
tightens a slack or moves an edge by an ulp still passes:

* Weyl: adding a potential of sup norm delta moves every fiber eigenvalue
  by at most delta, so the spectrum lies in [-2d - delta, 2d + delta] and
  reaches below -2d + delta and above 2d - delta;
* sampled band extrema are attained values, so they lie inside the true
  bands, and the true edges lie within the reported slack of them;
* the zero-potential fiber eigenvalues are the closed-form levels
  sum_i 2 cos(2 pi (theta_i + l_i / q_i)).

check_case returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import itertools
import json
import math

import numpy as np

EXIT_OK, EXIT_INCONCLUSIVE = 0, 3
_ROUND = 1e-12  # allowance for floating-point rounding in eigenvalues
_CC_NODES = 1 << 14  # grid nodes of the closed-form cross-check table


def closed_form_levels(q, thetas) -> np.ndarray:
    """Free fiber eigenvalues at each reduced phase, sorted descending.

    thetas has shape (n, d); the result has shape (n, Q).
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    offsets = np.array(list(itertools.product(*[range(qi) for qi in q])), dtype=float)
    full = thetas[:, None, :] + offsets[None, :, :] / np.asarray(q, dtype=float)
    levels = (2.0 * np.cos(2.0 * math.pi * full)).sum(axis=2)
    return -np.sort(-levels, axis=1)


def grid_phases(q, m) -> np.ndarray:
    """Row-major grid nodes: coordinate i of node j is j_i / (q_i m_i)."""
    idx = np.indices(m).reshape(len(m), -1).T
    return idx / (np.asarray(q, dtype=float) * np.asarray(m, dtype=float))


def cross_check_table(q, extra_phases=()):
    """Closed-form free band extrema over a fine grid plus its slack.

    The values are attained, so they lie inside the true bands; the true
    edges lie within `slack` of them (each level is 4 pi Lipschitz per
    coordinate).
    """
    d = len(q)
    m = max(2, int(round(_CC_NODES ** (1.0 / d))))
    phases = grid_phases(q, (m,) * d)
    if len(extra_phases):
        phases = np.vstack([phases, np.asarray(extra_phases, dtype=float)])
    levels = closed_form_levels(q, phases)
    slack = sum(4.0 * math.pi / (qi * m) / 2.0 for qi in q)
    return levels.min(axis=0), levels.max(axis=0), slack


def option(argv, flag, default=None):
    """Value of a CLI flag given as "--flag value" or "--flag=value"."""
    argv = list(argv)
    for i, token in enumerate(argv):
        if token == flag:
            return argv[i + 1]
        if token.startswith(flag + "="):
            return token[len(flag) + 1:]
    return default


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def _potential_norm(argv) -> float:
    kind = option(argv, "--potential", "zero")
    return 0.0 if kind == "zero" else float(option(argv, "--delta"))


def _weyl_hull(fail, intervals, d, delta, slack):
    lo = min(iv["lo"] for iv in intervals)
    hi = max(iv["hi"] for iv in intervals)
    if not -2 * d - delta - _ROUND <= lo <= -2 * d + delta + slack + _ROUND:
        fail(f"spectrum bottom {lo!r} outside the Weyl window around {-2 * d}")
    if not 2 * d - delta - slack - _ROUND <= hi <= 2 * d + delta + _ROUND:
        fail(f"spectrum top {hi!r} outside the Weyl window around {2 * d}")


def _sorted_disjoint(fail, intervals):
    for a, b in zip(intervals, intervals[1:]):
        if not a["hi"] < b["lo"]:
            fail(f"intervals not sorted and disjoint: {a} then {b}")


def _check_spectrum(fail, argv, rc, rep):
    q = _ints(option(argv, "--q"))
    d = len(q)
    delta = _potential_norm(argv)
    intervals = rep["intervals"]
    if not intervals:
        fail("no spectrum intervals")
        return
    _sorted_disjoint(fail, intervals)
    _weyl_hull(fail, intervals, d, delta, rep["slack"])
    if len(rep["overlaps"]) != math.prod(q) - 1:
        fail("overlap table has the wrong length")
    if rep["merge_tol"] < 2 * rep["slack"]:
        fail("merge tolerance below twice the slack")
    if len(rep["gaps"]) != len(intervals) - 1:
        fail("gap count does not match the intervals")
    if (rc == EXIT_OK) != bool(rep["certified"]):
        fail(f"exit code {rc} disagrees with certified={rep['certified']}")
    if delta == 0.0 and len(intervals) == 1:
        iv = intervals[0]
        if abs(iv["lo"] + 2 * d) > rep["slack"] or abs(iv["hi"] - 2 * d) > rep["slack"]:
            fail(f"free spectrum {iv} is not [-{2 * d}, {2 * d}] within the slack")


def _check_counterexample(fail, argv, rc, rep):
    q = _ints(option(argv, "--q"))
    d = len(q)
    delta = float(option(argv, "--delta"))
    slack = rep["slack"]
    margin = rep["gap_margin"]
    if not rep["neighbor_check"]["ok"]:
        fail("neighbor-sum identity of the construction failed")
    if abs(rep["gap_certified_margin"] - (margin - slack)) > _ROUND:
        fail("gap_certified_margin is not gap_margin - slack")
    # The construction is the staggered potential (gap exactly [-delta, delta])
    # plus a defect of norm delta^3/d, so by Weyl the distance from zero to the
    # spectrum is within delta^3/d of delta; sampling can only overestimate it,
    # by at most the slack.
    defect = delta**3 / d
    if not delta - defect - _ROUND <= margin <= delta + defect + slack + _ROUND:
        fail(f"gap margin {margin!r} outside [delta - delta^3/d, delta + delta^3/d + slack]")
    inconclusive = rep["gap_inconclusive"] or not rep["certified"]
    if (rc == EXIT_INCONCLUSIVE) != inconclusive:
        fail(f"exit code {rc} disagrees with inconclusive={inconclusive}")
    if rc == EXIT_OK:
        if not margin - slack > delta / 2:
            fail(f"certified counterexample but gap_margin - slack = {margin - slack!r} <= delta/2")
        if any(iv["lo"] <= 0.0 <= iv["hi"] for iv in rep["intervals"]):
            fail("certified gap at zero but an interval contains zero")
    _sorted_disjoint(fail, rep["intervals"])
    _weyl_hull(fail, rep["intervals"], d, delta, slack)


def _check_witness(fail, argv, rc, rep):
    q = _ints(option(argv, "--q"))
    E = float(option(argv, "--energy"))
    outcome = rep["outcome"]
    all_even = all(qi % 2 == 0 for qi in q)
    if (rc == EXIT_OK) != (outcome != "uncertified"):
        fail(f"exit code {rc} disagrees with outcome {outcome}")
    if outcome == "touching_at_zero":
        if not (E == 0.0 and all_even):
            fail("touching_at_zero reported away from E = 0 with all periods even")
        return
    if outcome != "interior":
        return
    k = rep["band_index"]
    lo, hi, cc_slack = cross_check_table(q, [rep["theta_witness"]])
    if not lo[k - 1] < E < hi[k - 1]:
        fail(f"E = {E!r} not strictly inside band {k} of the cross-check table [{lo[k - 1]!r}, {hi[k - 1]!r}]")
    bound = min(hi[k - 1] + cc_slack - E, E - lo[k - 1] + cc_slack)
    if not 0 < rep["margin"] <= bound + _ROUND:
        fail(f"margin {rep['margin']!r} not in (0, {bound!r}]")


def _check_cq(fail, argv, rc, rep):
    q = _ints(option(argv, "--q"))
    if (rc == EXIT_INCONCLUSIVE) != bool(rep["inconclusive"]):
        fail(f"exit code {rc} disagrees with inconclusive={rep['inconclusive']}")
    if rep["c_q"] < 0:
        fail("negative c_q")
    lo, hi, cc_slack = cross_check_table(q)
    overlaps = rep["overlaps"]
    for k, ov in enumerate(overlaps):
        # sampled overlaps are inner bounds of the true overlaps
        upper = (hi[k + 1] + cc_slack) - (lo[k] - cc_slack)
        if ov > upper + _ROUND:
            fail(f"overlap {k + 1} = {ov!r} exceeds the closed-form bound {upper!r}")
    kept = [ov for k, ov in enumerate(overlaps, start=1) if k not in rep["excluded_pairs"]]
    if not rep["inconclusive"]:
        if rep["min_overlap"] != min(kept):
            fail("min_overlap is not the smallest kept overlap")
        expected = (rep["min_overlap"] - 2 * rep["slack"]) / 2
        if not rep["c_q"] > 0 or abs(rep["c_q"] - expected) > _ROUND:
            fail(f"c_q {rep['c_q']!r} is not (min_overlap - 2 slack)/2 = {expected!r}")


def _check_degeneracy(fail, argv, rc, rep):
    q = _ints(option(argv, "--q"))
    group = rep["group"]
    cls = rep["classification"]
    counted = rep["counted"]
    conclusive = not counted["ambiguous"]
    if (rc == EXIT_OK) != conclusive:
        fail(f"exit code {rc} disagrees with conclusive={conclusive}")
    if group["r"] != len(group["members"]):
        fail("group size does not match its members")
    if list(_ints(option(argv, "--l"))) not in group["members"]:
        fail("target offset missing from its own group")
    if cls["j_zero"] + cls["j_plus"] + cls["j_orth"] + cls["j_minus"] != group["r"]:
        fail("classification counts do not sum to the group size")
    theta = _floats(option(argv, "--theta"))
    for member in group["members"]:
        full = [t + l / qi for t, l, qi in zip(theta, member, q)]
        level = sum(2.0 * math.cos(2.0 * math.pi * x) for x in full)
        if abs(level - group["level"]) > 1e-9:
            fail(f"member {member} has level {level!r}, group level {group['level']!r}")
    if conclusive:
        predicted = rep["predicted"]
        if (predicted["n_up"], predicted["n_down"]) != (counted["n_up"], counted["n_down"]):
            fail(f"predicted {predicted} != counted up/down {counted['n_up']}/{counted['n_down']}")


def _check_bands(fail, argv, rc, rep, csv_path):
    q = _ints(option(argv, "--q"))
    m = tuple(rep["grid"])
    Q = math.prod(q)
    delta = _potential_norm(argv)
    if rc != EXIT_OK:
        fail(f"bands exited {rc}")
        return
    with open(csv_path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        want = [f"theta_{i + 1}" for i in range(len(q))] + [f"E_{k}" for k in range(1, Q + 1)]
        if header != want:
            fail(f"CSV header {header[:4]}... is not {want[:4]}...")
            return
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (math.prod(m), len(q) + Q):
        fail(f"CSV has shape {data.shape}, expected {(math.prod(m), len(q) + Q)}")
        return
    thetas, values = data[:, : len(q)], data[:, len(q):]
    if float(np.max(np.abs(thetas - grid_phases(q, m)))) > _ROUND:
        fail("CSV phases are not the row-major grid nodes")
    if np.any(np.diff(values, axis=1) > 0):
        fail("a CSV row is not in descending order")
    free = closed_form_levels(q, thetas)
    err = float(np.max(np.abs(values - free)))
    if err > delta + _ROUND:
        fail(f"CSV rows differ from the free levels by {err!r} > delta + {_ROUND}")
    bands = rep["bands"]
    col_min, col_max = values.min(axis=0), values.max(axis=0)
    for k, band in enumerate(bands):
        # refinement only moves sampled extrema outward
        if band["min"] > col_min[k] or band["max"] < col_max[k]:
            fail(f"band {k + 1} extrema [{band['min']!r}, {band['max']!r}] inside the CSV range")


_CHECKERS = {
    "spectrum": _check_spectrum,
    "counterexample": _check_counterexample,
    "witness": _check_witness,
    "cq": _check_cq,
    "degeneracy": _check_degeneracy,
}


def check_case(argv, rc, stdout, csv_path=None) -> list[str]:
    """Check one CLI invocation; returns failure messages (empty on success)."""
    failures: list[str] = []
    if rc not in (EXIT_OK, EXIT_INCONCLUSIVE):
        return [f"exit code {rc}"]
    try:
        rep = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        return [f"report is not JSON: {exc}"]
    command = argv[0]
    if rep.get("command") != command or rep.get("q") != list(_ints(option(argv, "--q"))):
        failures.append("report does not echo the command and periods")
    try:
        if command == "bands":
            _check_bands(failures.append, argv, rc, rep, csv_path)
        else:
            _CHECKERS[command](failures.append, argv, rc, rep)
    except (KeyError, TypeError, ValueError) as exc:
        failures.append(f"malformed report: {type(exc).__name__}: {exc}")
    return failures


def strip_workers(report_text: str) -> str:
    """The report with its `workers` field removed, for cross-worker comparison."""
    rep = json.loads(report_text)
    rep.pop("workers", None)
    return json.dumps(rep, sort_keys=True)
