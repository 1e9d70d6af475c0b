"""Tests of the benchmark's own accounting: checker, shares and spans."""
import contextlib
import io
import json
import math

import pytest

from bench import run, spans, workloads
from bench.workloads import Case
from latticebands import cli


def _real(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, json.loads(buf.getvalue())


def _faking(rc, report):
    def main(argv):
        print(json.dumps(report))
        return rc
    return main


def _lower_spectrum(rep):
    rep["intervals"][0]["lo"] -= 1.0  # below -2d - delta: breaks Weyl


def _overclaim_gap(rep):
    rep["gap_margin"] = rep["slack"] + 0.01  # certified, but margin - slack <= delta/2
    rep["gap_certified_margin"] = 0.01


def _miscount(rep):
    rep["counted"]["n_up"] += 1


def _widen_witness(rep):
    rep["band_index"] = 1  # top band of 2,3 lies above E = -1.5


TAMPERED = [
    (("spectrum", "--q", "2,3", "--grid", "16,16", "--potential", "random", "--delta", "0.1", "--json"), _lower_spectrum),
    (("counterexample", "--q", "2,2", "--grid", "256,256", "--delta", "0.15", "--json"), _overclaim_gap),
    (("degeneracy", "--q", "3,2", "--theta", "0.16666666666666666,0", "--l", "1,0", "--beta", "1,0", "--json"), _miscount),
    (("witness", "--q", "2,3", "--grid", "16,16", "--energy=-1.5", "--json"), _widen_witness),
]


@pytest.mark.parametrize("argv,tamper", TAMPERED, ids=[t[1].__name__ for t in TAMPERED])
def test_wrong_report_raises_failed_share(argv, tamper):
    rc, rep = _real(argv)
    good, _ = run.run_case(_faking(rc, rep), Case("x", argv), {})
    assert not good.failed, good.failures
    tamper(rep)
    bad, _ = run.run_case(_faking(rc, rep), Case("x", argv), {})
    assert bad.failed
    metrics = run.end_to_end([good, bad], [0.1])
    assert metrics["passed_share"] == 0.5


def test_wrong_csv_row_counts_as_failed(tmp_path):
    out = tmp_path / "bands.csv"
    argv = ("bands", "--q", "2,2", "--grid", "4,4", "--out", str(out), "--json")
    case = Case("bands", argv, str(out))
    good, _ = run.run_case(cli.main, case, {})
    assert not good.failed, good.failures

    def main(args):
        rc = cli.main(args)
        lines = out.read_text().splitlines()
        fields = lines[3].split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-9)  # off the closed form
        lines[3] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        return rc

    bad, _ = run.run_case(main, case, {})
    assert bad.failed


def test_report_that_changes_between_passes_fails():
    argv = ("spectrum", "--q", "2,2", "--grid", "8,8", "--json")
    rc, rep = _real(argv)
    reference = {}
    first, _ = run.run_case(_faking(rc, rep), Case("x", argv), reference)
    rep["slack"] = rep["slack"] * (1 - 1e-16) - 1e-18
    second, _ = run.run_case(_faking(rc, rep), Case("x", argv), reference)
    assert not first.failed and second.failed


def test_inconclusive_case_lowers_certified_share_without_failing():
    certified = run.run_case(cli.main, Case("a", ("counterexample", "--q", "2,2", "--grid", "256,256", "--delta", "0.15", "--json")), {})[0]
    inconclusive = run.run_case(cli.main, Case("b", ("counterexample", "--q", "2,2,2", "--grid", "8,8,8", "--delta", "0.15", "--json")), {})[0]
    assert (certified.rc, inconclusive.rc) == (0, 3)
    assert not certified.failed and not inconclusive.failed
    metrics = run.end_to_end([certified, inconclusive], [0.1])
    assert metrics["certified_share"] == 0.5
    assert metrics["passed_share"] == 1.0


def test_crash_and_bad_arguments_count_as_failed():
    def crash(argv):
        raise RuntimeError("boom")

    assert run.run_case(crash, Case("x", ("spectrum", "--q", "2,2")), {})[0].failed
    res, _ = run.run_case(cli.main, Case("y", ("spectrum", "--q", "2,2", "--grid", "1,1", "--json")), {})
    assert res.rc == 2 and res.failed


def test_span_self_times_sum_to_case_time(tmp_path):
    cases = [
        Case("s", ("spectrum", "--q", "2,3", "--grid", "16,16", "--json")),
        Case("c", ("counterexample", "--q", "2,2", "--grid", "48,48", "--delta", "0.15", "--workers", "2", "--json")),
        Case("b", ("bands", "--q", "2,2", "--grid", "8,8", "--out", str(tmp_path / "b.csv"), "--json"), str(tmp_path / "b.csv")),
        Case("w", ("witness", "--q", "2,2", "--grid", "8,8", "--energy", "1.1", "--json")),
        Case("d", ("degeneracy", "--q", "3,2", "--theta", "0.16666666666666666,0", "--l", "1,0", "--beta", "1,0", "--json")),
    ]
    tracer = spans.Tracer()
    with tracer:
        for i, case in enumerate(cases):
            tracer.case = i
            res, _ = run.run_case(cli.main, case, {}, tracer)
            assert not res.failed, res.failures
    ids = list(range(len(cases)))
    assert spans.self_time_residual(tracer.spans, ids) < 1e-9
    assert all(s.self_time > -1e-9 for s in tracer.spans)
    metrics = spans.layer_metrics(tracer.spans, ids)
    # spectrum and witness sweep once; counterexample and bands sweep twice
    assert metrics["bandedges.sweep.count"] == 6 / len(cases)
    assert metrics["degeneracy.calls"] == 4 / len(cases)
    assert metrics["bandedges.sweep.matrices"] >= metrics["bandedges.sweep.nodes"]
    assert math.isclose(metrics["bandedges.refine.probes"], metrics["floquet.assemble.calls"])
    # the wrappers are gone after the run
    assert cli.canonical_json.__module__ == "latticebands.cli" and not hasattr(cli.canonical_json, "__wrapped__")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_seeded(name, tmp_path):
    first = workloads.generate(name, 7, str(tmp_path))
    assert first == workloads.generate(name, 7, str(tmp_path))
    assert len(first) in (5, 15)
    assert len({c.label for c in first}) == len(first)
    other = workloads.generate(name, 8, str(tmp_path))
    assert [c.label for c in first] == [c.label for c in other]
    assert [c.argv for c in first] != [c.argv for c in other]
