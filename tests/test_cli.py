import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticebands
from latticebands import GridSpec, bandedges, cli, floquet, iter_band_rows, period, random_potential
from latticebands.cli import _fmt_float, canonical_json, main

from conftest import grid_thetas


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_spectrum_json_success(capsys):
    rc, out, err = run(capsys, "spectrum", "--q", "2,3", "--grid", "32,32", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["command"] == "spectrum"
    assert report["q"] == [2, 3]
    assert report["certified"] is True
    assert len(report["intervals"]) == 1
    assert report["intervals"][0]["lo"] == pytest.approx(-4.0, abs=1e-6)
    assert err == ""


def test_spectrum_output_is_byte_deterministic(capsys):
    args = ("spectrum", "--q", "2,3", "--grid", "16,16", "--json",
            "--potential", "random", "--delta", "0.2", "--seed", "7")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_spectrum_human_output(capsys):
    rc, out, _ = run(capsys, "spectrum", "--q", "2,2", "--grid", "16,16")
    assert rc == 0
    assert out.startswith("spectrum: 1 interval(s)")


def test_bands_csv(capsys):
    rc, out, _ = run(capsys, "bands", "--q", "2,2", "--grid", "4,4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta_1,theta_2,E_1,E_2,E_3,E_4"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(4.0, abs=1e-12)


def test_bands_out_file(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    rc, out, _ = run(
        capsys, "bands", "--q", "2,2", "--grid", "4,4", "--out", str(target)
    )
    assert rc == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("theta_1,")
    assert len(lines) == 17
    assert "wrote 16 rows" in out


def test_witness_interior(capsys):
    rc, out, _ = run(capsys, "witness", "--q", "2,3", "--energy", "3.9", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["outcome"] == "interior"
    assert report["band_index"] == 1
    assert report["margin"] == pytest.approx(0.1, abs=1e-4)


def test_witness_touching_at_zero(capsys):
    rc, out, _ = run(capsys, "witness", "--q", "2,2", "--energy", "0", "--json")
    assert rc == 0
    assert json.loads(out)["outcome"] == "touching_at_zero"


def test_witness_energy_out_of_domain(capsys):
    rc, _, err = run(capsys, "witness", "--q", "2,2", "--energy", "5.0")
    assert rc == 2
    assert "energy" in err


def test_cq_success_and_inconclusive(capsys):
    rc, out, _ = run(capsys, "cq", "--q", "2,3", "--grid", "64,64", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["c_q"] == pytest.approx(0.168, abs=2e-3)
    rc, out, _ = run(capsys, "cq", "--q", "2,3", "--grid", "4,4", "--json")
    assert rc == 3
    assert json.loads(out)["inconclusive"] is True
    # only the chiral pair 8 is excluded: pairs 5-11 overlap by about 2,
    # under 2 slack = 3.14 at 8^4, so they do not certify a threshold
    rc, out, _ = run(capsys, "cq", "--q", "2,2,2,2", "--grid", "8,8,8,8", "--json")
    assert rc == 3
    assert json.loads(out)["excluded_pairs"] == [8]


def test_degeneracy_report(capsys):
    rc, out, _ = run(
        capsys,
        "degeneracy", "--q", "3,2",
        "--theta", "0.16666666666666666,0",
        "--l", "1,0", "--beta", "1,0", "--t", "0.001", "--json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["group"]["r"] == 1
    assert report["group"]["position_offset"] == 2
    assert report["predicted"] == {"n_up": 1, "n_down": 0}
    assert report["counted"]["n_up"] == 1
    assert report["classification"]["labels"] == ["zero"]


def test_degeneracy_count_that_disagrees_with_the_prediction_exits_3(capsys):
    # 2e-11 from the top of the level, the first-order prediction says up,
    # but the step 1e-3 is far past the curvature's reach and the
    # conclusive count says down: the report certifies nothing
    rc, out, _ = run(
        capsys,
        "degeneracy", "--q", "1,1", "--theta", "2e-11,0",
        "--l", "0,0", "--beta=-1,0", "--t", "1e-3", "--json",
    )
    assert rc == 3
    report = json.loads(out)
    assert report["predicted"] == {"n_up": 1, "n_down": 0}
    assert report["counted"] == {"n_up": 0, "n_down": 1, "ambiguous": []}


def test_degeneracy_flat_direction_is_a_computation_error(capsys):
    rc, _, err = run(
        capsys,
        "degeneracy", "--q", "2,2",
        "--theta", "0.25,0.25",
        "--l", "0,0", "--beta", "1,1",  # normalized internally to the diagonal
    )
    assert rc == 1
    assert "second order" in err


def test_degeneracy_second_order_error_prints_plain_floats(capsys):
    # the direction was printed as (np.float64(0.7071067811865475), ...)
    rc, out, err = run(
        capsys,
        "degeneracy", "--q", "2,2", "--theta", "0.25,0.25", "--l", "0,0", "--beta", "1,1",
    )
    assert (rc, out) == (1, "")
    assert err == (
        "error: member (0, 1) vanishes to second order along "
        "(0.7071067811865475, 0.7071067811865475)\n"
    )


def test_counterexample_certified(capsys):
    rc, out, _ = run(
        capsys,
        "counterexample", "--q", "2,2", "--delta", "0.1",
        "--grid", "256,256", "--json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["gap_passes"] is True
    assert report["gap_inconclusive"] is False
    assert report["certified"] is True
    assert len(report["intervals"]) == 2
    assert report["neighbor_check"]["ok"] is True


def test_counterexample_inconclusive_on_coarse_grid(capsys):
    rc, out, _ = run(
        capsys,
        "counterexample", "--q", "2,2", "--delta", "0.1",
        "--grid", "64,64", "--json",
    )
    assert rc == 3
    assert json.loads(out)["gap_inconclusive"] is True


def test_counterexample_certified_by_the_gauge_slack(capsys):
    # slack 2 pi (1/256 + 1/256) = 0.049 leaves margin - slack > delta/2
    rc, out, _ = run(
        capsys,
        "counterexample", "--q", "4,4", "--delta", "0.15",
        "--grid", "64,64", "--json",
    )
    assert rc == 0
    report = json.loads(out)
    assert report["slack"] == pytest.approx(math.pi / 64, rel=1e-15)
    assert report["gap_inconclusive"] is False
    assert report["certified"] is True


def test_counterexample_rejects_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--q", "2,2", "--delta", "0.1", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_counterexample_odd_period_rejected(capsys):
    rc, _, err = run(capsys, "counterexample", "--q", "2,3", "--delta", "0.1")
    assert rc == 2
    assert "even" in err


def test_coupling_cap_error_names_the_flag_that_lifts_it(capsys):
    # the message named only the keyword force=True, which no flag spells
    args = ("counterexample", "--q", "2,2", "--delta", "0.3", "--grid", "8,8")
    rc, _, err = run(capsys, *args)
    assert rc == 2 and "--force" in err
    rc, _, _ = run(capsys, *args, "--force")
    assert rc == 3  # built, and inconclusive on this coarse grid
    # spectrum and bands keep the cap: no flag of theirs lifts it
    for command in ("spectrum", "bands"):
        rc, _, err = run(capsys, command, "--q", "2,2", "--potential", "vq",
                         "--delta", "0.3", "--grid", "8,8")
        assert rc == 2 and "DELTA_MAX_DEFAULT" in err


def test_config_errors_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "spectrum", "--q", "2,oops")
    assert rc == 2
    rc, _, err = run(capsys, "spectrum", "--q", "1,2")
    assert rc == 2 and "two directions" in err
    rc, _, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8,8")
    assert rc == 2
    rc, _, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "16,16",
                     "--potential", "dimer")
    assert rc == 2 and "--delta" in err
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"q": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}))
    rc, _, err = run(capsys, "spectrum", "--q", "2,3", "--grid", "16,16",
                     "--potential", str(pot))
    assert rc == 2 and "do not match" in err


def test_nan_delta_for_random_potential_exits_2(capsys):
    rc, out, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8",
                       "--potential", "random", "--delta", "nan", "--json")
    assert rc == 2 and out == "" and "amplitude" in err


@pytest.mark.parametrize("theta,beta,message", [
    ("0.16666666666666666,0", "nan,1", "direction coordinates must be finite, got [nan, 1.0]"),
    ("0.16666666666666666,0", "inf,1", "direction coordinates must be finite, got [inf, 1.0]"),
    ("0.16666666666666666,0", "0,0", "direction must have a finite nonzero norm, got [0.0, 0.0]"),
    ("0.16666666666666666,0", "1e308,1e308", "direction must have a finite nonzero norm, got [1e+308, 1e+308]"),
    ("0.16666666666666666,0", "1,0,0", "direction has 3 coordinates, expected 2"),
    ("nan,0", "1,0", "phase coordinates must be finite"),
    ("inf,0", "1,0", "phase coordinates must be finite"),
])
def test_non_finite_degeneracy_input_exits_2(capsys, theta, beta, message):
    rc, out, err = run(capsys, "degeneracy", "--q", "3,2", "--theta", theta, "--l", "1,0",
                       "--beta", beta, "--json")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_negative_seed_for_random_potential_exits_2(capsys):
    rc, out, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8",
                       "--potential", "random", "--delta", "0.1", "--seed", "-1")
    assert rc == 2 and out == ""
    assert err == "error: seed must be a nonnegative integer, got -1\n"


@pytest.mark.parametrize("text,message", [
    ('{"q": [2, 2], "values": 5}', '"values" must be a list of 4 numbers'),
    ('{"q": [2, 2], "values": ["a", 1, 2, 3]}', '"values" must be numbers'),
    ('{"q": "2,2", "values": [1, 2, 3, 4]}', '"q" must be a list of periods'),
    ("not json", "is not valid JSON"),
    (None, "cannot read potential file"),
], ids=["values-int", "values-str", "q-str", "not-json", "missing"])
def test_malformed_potential_file_exits_2(capsys, tmp_path, text, message):
    pot = tmp_path / "pot.json"
    if text is not None:
        pot.write_text(text)
    rc, out, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8", "--potential", str(pot))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv,potential_q", [
    (("bands", "--q", "2,2", "--grid", "4,4", "--out", "{missing}/x.csv"), None),
    (("spectrum", "--q", "2,2", "--grid", "4,4", "--out", "{missing}/x.json"), None),
    (("bands", "--q", "2,3", "--grid", "4,4", "--potential", "{pot}"), [2, 2]),
    (("bands", "--q", "1,2", "--grid", "4,4", "--potential", "{pot}"), [True, 2]),
    (("spectrum", "--q", "2,2", "--grid", "4,4,4"), None),
], ids=["bands-out", "spectrum-out", "periods-mismatch", "periods-bool", "grid-length"])
def test_error_paths_end_cleanly(tmp_path, argv, potential_q):
    # an unwritable --out ended in a FileNotFoundError traceback with exit 1,
    # and a file with periods [true, 2] ran as periods (1, 2)
    pot = tmp_path / "pot.json"
    if potential_q is not None:
        values = [0.1] * math.prod(map(int, potential_q))
        pot.write_text(json.dumps({"q": potential_q, "values": values}))
    argv = [a.format(missing=tmp_path / "missing", pot=pot) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(latticebands.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "latticebands.cli", *argv],
                          capture_output=True, text=True, env=env, check=False, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command,extra",
    [
        ("spectrum", ()),
        ("counterexample", ("--delta", "0.1")),
        ("degeneracy", ("--theta", "0,0", "--l", "0,0", "--beta", "1,0")),
        ("bands", ()),
        ("witness", ("--energy", "1")),
        ("cq", ()),
    ],
)
def test_nonpositive_workers_exit_2(capsys, command, extra):
    for workers in ("0", "-3"):
        argv = [command, "--q", "2,2", "--grid", "8,8", "--workers", workers, *extra]
        if command == "degeneracy":
            # no sweep, so argument parsing rejects the sweep flags themselves
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: --grid 8,8 --workers {workers}" in capsys.readouterr().err
            continue
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "workers must be at least 1" in err


@pytest.mark.parametrize("flag", [("--grid", "4,4"), ("--workers", "2"), ("--budget", "64")])
def test_degeneracy_rejects_the_sweep_flags(capsys, flag):
    argv = ["degeneracy", "--q", "3,2", "--theta", "0.16666666666666666,0", "--l", "1,0",
            "--beta", "1,0", "--json", *flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    rc, out, _ = run(capsys, *argv[:-2])
    assert rc == 0 and "workers" not in json.loads(out)


def test_witness_default_grid_follows_the_budget(capsys):
    rc, out, _ = run(capsys, "witness", "--q", "2,3", "--energy", "3.9", "--budget", "64", "--json")
    assert rc == 0
    report = json.loads(out)
    assert (report["grid"], report["budget"], report["refine_rounds"], report["workers"]) == ([8, 8], 64, 10, 1)
    rc, out, _ = run(capsys, "witness", "--q", "3,3,2", "--energy", "1.3", "--json")
    assert rc == 0 and json.loads(out)["grid"] == [40, 40, 40]
    rc, _, err = run(capsys, "witness", "--q", "2,3", "--energy", "3.9", "--budget", "3")
    assert rc == 2 and "budget 3 too small" in err


@pytest.mark.parametrize("potential,extra,message", [
    ("zero", ("--delta", "0.3"), "--delta does not apply to --potential zero"),
    ("zero", ("--delta", "0.3", "--seed", "4"), "--seed applies only to --potential random, not zero"),
    ("zero", ("--seed", "0"), "--seed applies only to --potential random, not zero"),
    ("dimer", ("--delta", "0.1", "--seed", "4"), "--seed applies only to --potential random, not dimer"),
    ("vq", ("--delta", "0.1", "--seed", "4"), "--seed applies only to --potential random, not vq"),
    ("{file}", ("--delta", "0.1"), "--delta does not apply to --potential {file}"),
    ("{file}", ("--seed", "4"), "--seed applies only to --potential random, not {file}"),
])
@pytest.mark.parametrize("command", ["spectrum", "bands"])
def test_potential_flags_it_would_ignore_exit_2(capsys, tmp_path, command, potential, extra, message):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"q": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}))
    rc, out, err = run(capsys, command, "--q", "2,2", "--grid", "8,8", "--json",
                       "--potential", potential.format(file=pot), *extra)
    assert rc == 2 and out == ""
    assert err == f"error: {message.format(file=pot)}\n"


def test_random_potential_without_seed_reports_seed_0(capsys):
    argv = ("spectrum", "--q", "2,2", "--grid", "8,8", "--potential", "random", "--delta", "0.2", "--json")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and json.loads(out)["potential"] == {"kind": "random", "delta": 0.2, "seed": 0}
    assert run(capsys, *argv, "--seed", "0") == (rc, out, "")


@pytest.mark.parametrize("x", [-0.0, 5e-324, 1e16, 0.1, -4.0000000000000009])
def test_percent_format_matches_fmt_float(x):
    assert "%.17g" % x == format(x, ".17g") == _fmt_float(x)


def test_bands_csv_matches_per_value_formatter(tmp_path, capsys):
    target = tmp_path / "bands.csv"
    rc, _, _ = run(capsys, "bands", "--q", "2,3", "--grid", "16,12", "--potential", "random",
                   "--delta", "0.3", "--seed", "11", "--out", str(target))
    assert rc == 0
    q = period((2, 3))
    lines = ["theta_1,theta_2," + ",".join(f"E_{k}" for k in range(1, 7))]
    grid = GridSpec((16, 12))
    for theta, vals in zip(grid_thetas(q.q, grid.m), iter_band_rows(q, random_potential(q, 0.3, 11), grid)):
        lines.append(",".join(format(float(x), ".17g") for x in (*theta, *vals)))
    assert target.read_bytes() == ("\n".join(lines) + "\n").encode()


def _reference_csv(q_arg, grid_arg, extra):
    """The bands CSV written plainly: every node solved at the smaller
    row-major index of the pair (j, -j mod m), "%.17g" on every value."""
    args = cli._parser().parse_args(["bands", "--q", q_arg, "--grid", grid_arg, *extra])
    q = cli._resolve_q(args)
    V, _ = cli._resolve_potential(args, q)
    m = tuple(int(x) for x in grid_arg.split(","))
    steps = [1.0 / (qi * mi) for qi, mi in zip(q.q, m)]

    def phases(idx):
        coords = np.unravel_index(idx, m)
        return np.stack([coords[i] * steps[i] for i in range(q.d)], axis=1)

    nodes = np.arange(math.prod(m))
    coords = np.unravel_index(nodes, m)
    mirror = np.ravel_multi_index(tuple(-c % mi for c, mi in zip(coords, m)), m)
    vals = floquet._fiber_eigenvalues(q, V, phases(np.minimum(nodes, mirror)).T)
    lines = [",".join([f"theta_{i + 1}" for i in range(q.d)] + [f"E_{k}" for k in range(1, q.Q + 1)])]
    for theta, row in zip(phases(nodes).tolist(), vals.tolist()):
        lines.append(",".join("%.17g" % x for x in (*theta, *row)))
    return ("\n".join(lines) + "\n").encode()


# Even axes hold self-mirrored lines j_i in {0, m_i/2} and the grids with
# every axis even hold 2^d fixed points; odd axes have only j_i = 0.
@pytest.mark.parametrize("q_arg,grid_arg,extra", [
    ("2,2", "4,4", ()),
    ("3,5", "7,9", ("--potential", "random", "--delta", "0.2", "--seed", "4")),
    ("2,3", "6,5", ("--potential", "random", "--delta", "0.3", "--seed", "8")),
    ("2,3,2", "5,6,3", ("--potential", "random", "--delta", "0.2", "--seed", "4")),
    ("2,2,2", "4,6,2", ("--potential", "vq", "--delta", "0.1")),
])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_bands_csv_matches_plain_reference_writer(tmp_path, capsys, q_arg, grid_arg, extra, to_file):
    argv = ["bands", "--q", q_arg, "--grid", grid_arg, *extra]
    target = tmp_path / "bands.csv"
    rc, out, _ = run(capsys, *argv, *(("--out", str(target)) if to_file else ()))
    assert rc == 0
    got = target.read_bytes() if to_file else out.encode()
    assert got == _reference_csv(q_arg, grid_arg, extra)


def _spy_solves(monkeypatch):
    """Record the nodes each sweep call of the kernel solves (it passes grid
    coordinates), the phases each other kernel call solves, and the phases
    refinement probes through the public eigenvalue function."""
    swept, solved, probed = [], [], []
    kernel = floquet._fiber_eigenvalues
    public = floquet.eigenvalues_sorted_desc

    def spy_kernel(q, V, axes, index=None):
        if index is None:
            solved.append(len(axes[0]))
        else:
            swept.append(len(index))
        return kernel(q, V, axes, index)

    def spy_public(q, V, theta):
        probed.append(len(np.atleast_2d(theta)))
        return public(q, V, theta)

    monkeypatch.setattr(floquet, "_fiber_eigenvalues", spy_kernel)
    monkeypatch.setattr(floquet, "eigenvalues_sorted_desc", spy_public)
    return swept, solved, probed


def test_bands_export_solves_each_representative_once_per_pass(tmp_path, capsys, monkeypatch):
    # 64 x 64 has 2050 time-reversal representatives: the row pass solves
    # them and keeps the band reductions, so the certified table's sweep
    # solves nothing and refinement only the phases it probes, at most 2Q
    # per (round, axis, sign)
    swept, solved, probed = _spy_solves(monkeypatch)
    rc, _, _ = run(capsys, "bands", "--q", "4,4", "--grid", "64,64", "--potential", "random",
                   "--delta", "0.1", "--out", str(tmp_path / "x.csv"), "--json")
    assert rc == 0
    assert 0 < sum(probed) <= 10 * 2 * 2 * 32
    assert sum(swept) == 2050 and solved == probed


def test_counterexample_solves_each_representative_once(capsys, monkeypatch):
    # the gap check and the band table sweep one potential object on one grid
    swept, solved, probed = _spy_solves(monkeypatch)
    rc, _, _ = run(capsys, "counterexample", "--q", "4,4", "--grid", "64,64", "--delta", "0.15", "--json")
    assert rc == 0
    assert 0 < sum(probed) <= 10 * 2 * 2 * 32
    assert sum(swept) == 2050 and solved == probed


@pytest.mark.parametrize("argv", [
    ("counterexample", "--q", "2,2", "--grid", "16,16", "--delta", "0.15", "--json"),
    ("bands", "--q", "2,3", "--grid", "16,16", "--potential", "random",
     "--delta", "0.2", "--json", "--out", "{out}"),
])
def test_identical_calls_in_one_process_each_solve_the_grid(tmp_path, capsys, monkeypatch, argv):
    # the kept reductions live on the potential a command builds, so a
    # repeated command solves its 130 representatives of 16 x 16 again
    argv = [a.format(out=tmp_path / "x.csv") for a in argv]
    swept, solved, probed = _spy_solves(monkeypatch)
    outputs = []
    for _ in range(2):
        for log in (swept, solved, probed):
            log.clear()
        outputs.append(run(capsys, *argv)[:2])
        assert sum(swept) == 130 and solved == probed
    assert outputs[0] == outputs[1]


def test_bands_json_report_does_not_depend_on_out(tmp_path, capsys):
    argv = ("bands", "--q", "2,3", "--grid", "12,10", "--potential", "random", "--delta", "0.3",
            "--seed", "5", "--workers", "2", "--json")
    rc_out, with_out, _ = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    rc, without, _ = run(capsys, *argv)
    assert rc_out == rc == 0 and with_out == without


@pytest.mark.parametrize("argv", [
    ("spectrum", "--q", "2,3", "--grid", "16,14", "--potential", "random", "--delta", "0.2", "--seed", "7"),
    ("witness", "--q", "3,3", "--grid", "16,16", "--energy", "0.7"),
    ("cq", "--q", "2,4", "--grid", "16,16"),
    ("counterexample", "--q", "2,2", "--grid", "16,16", "--delta", "0.15"),
    ("bands", "--q", "2,4", "--grid", "12,10", "--potential", "vq", "--delta", "0.1"),
], ids=lambda argv: argv[0])
def test_reports_and_csv_do_not_depend_on_workers(tmp_path, capsys, argv):
    # everything but the echoed worker count is the same bytes at 1, 2 and 3
    # workers, the CSV of bands included
    outputs = []
    for workers in ("1", "2", "3"):
        target = tmp_path / f"bands-{workers}.csv"
        extra = ("--out", str(target)) if argv[0] == "bands" else ()
        rc, out, err = run(capsys, *argv, "--workers", workers, "--json", *extra)
        report = json.loads(out)
        assert report.pop("workers") == int(workers)
        csv = target.read_bytes() if extra else b""
        outputs.append((rc, canonical_json(report), err, csv))
    assert outputs[0][0] in (0, 3) and outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["csv", "json"])
def test_bands_row_pass_runs_on_the_requested_workers(tmp_path, capsys, monkeypatch, json_flag):
    argv = ("bands", "--q", "2,3", "--grid", "24,20", "--potential", "random", "--delta", "0.3", "--seed", "4")
    iter_chunks = bandedges._iter_chunks
    pools = []

    def spy(q, V, grid, workers, coords):
        pools.append(workers)
        return iter_chunks(q, V, grid, workers, coords)

    monkeypatch.setattr(bandedges, "_iter_chunks", spy)
    written = []
    for workers in (1, 2, 3):
        pools.clear()
        target = tmp_path / f"bands-{workers}.csv"
        rc, _, _ = run(capsys, *argv, "--workers", str(workers), "--out", str(target), *json_flag)
        # the row pass is the only sweep: certified_edges reuses its table
        assert rc == 0 and pools == [workers]
        written.append(target.read_bytes())
    assert written[0] == written[1] == written[2]


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["csv", "json"])
def test_bands_eigensolver_failure_keeps_the_out_file(tmp_path, capsys, monkeypatch, json_flag):
    target = tmp_path / "bands.csv"
    target.write_bytes(b"earlier,contents\n")

    def eigvalsh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    rc, out, err = run(capsys, "bands", "--q", "2,2", "--grid", "8,8", "--out", str(target), *json_flag)
    assert rc == 1 and out == ""
    assert "eigensolver failed at theta=[0.0, 0.0]" in err
    assert target.read_bytes() == b"earlier,contents\n"


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_bands_without_json_runs_only_the_row_pass(tmp_path, capsys, monkeypatch, to_file):
    argv = ["bands", "--q", "2,3", "--grid", "12,9", "--potential", "random", "--delta", "0.2", "--seed", "3"]
    reference = tmp_path / "reference.csv"
    assert run(capsys, *argv, "--out", str(reference), "--json")[0] == 0
    sweeps = []
    for name in ("certified_edges", "sample_bands", "iter_band_rows"):
        def spy(*args, _name=name, _orig=getattr(bandedges, name), **kwargs):
            sweeps.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(bandedges, name, spy)
    target = tmp_path / "bands.csv"
    rc, out, _ = run(capsys, *argv, *(("--out", str(target)) if to_file else ()))
    assert rc == 0 and sweeps == ["iter_band_rows"]
    if to_file:
        assert target.read_bytes() == reference.read_bytes()
        slack = bandedges.certified_slack(period((2, 3)), GridSpec((12, 9)))
        assert out == f"bands: wrote 108 rows to {target} (slack {slack:.6g})\n"
    else:
        assert out.encode() == reference.read_bytes()


def test_commands_are_looked_up_at_call_time(capsys, monkeypatch):
    assert run(capsys, "cq", "--q", "2,2", "--grid", "8,8", "--json")[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: seen.append(args.q) or 7)
    assert main(["spectrum", "--q", "2,3"]) == 7 and seen == ["2,3"]
    assert cli._parser() is cli._parser()


def test_consecutive_calls_match_separate_processes(capsys):
    cases = [
        ("spectrum", "--q", "2,3", "--grid", "16,16", "--json"),
        ("bands", "--q", "2,2", "--grid", "4,4"),
        ("witness", "--q", "2,3", "--grid", "16,16", "--energy", "1.1", "--json"),
        ("spectrum", "--q", "2,2", "--grid", "8,8"),
        # the commands that load their modules on first use
        ("degeneracy", "--q", "3,2", "--theta", "0.16666666666666666,0", "--l", "1,0",
         "--beta", "0.6,0.8", "--json"),
        ("counterexample", "--q", "2,2", "--grid", "16,16", "--delta", "0.1", "--json"),
        ("spectrum", "--q", "2,2", "--grid", "16,16", "--potential", "vq", "--delta", "0.1",
         "--json"),
        ("bands", "--q", "2,2", "--grid", "4,4", "--potential", "dimer", "--delta", "0.1"),
    ]
    in_process = [run(capsys, *argv) for argv in cases]
    env = {**os.environ, "PYTHONPATH": str(Path(latticebands.__file__).parents[1])}
    for argv, expected in zip(cases, in_process):
        proc = subprocess.run([sys.executable, "-m", "latticebands.cli", *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("q_arg,grid_arg,extra", [
    ("4,4", "16,16", ("--potential", "random", "--delta", "0.2", "--seed", "3")),
    ("2,2", "8,8", ()),
    ("2,3", "15,9", ()),
    ("2,2", "12,11", ("--potential", "dimer", "--delta", "0.1")),
])
def test_bands_csv_values_lie_inside_the_certified_band_ranges(tmp_path, capsys, q_arg, grid_arg, extra):
    # rows are solved at time-reversal representatives, the reduction visits
    # only those, so every exported value lies inside the sampled band range
    target = tmp_path / "bands.csv"
    rc, out, _ = run(capsys, "bands", "--q", q_arg, "--grid", grid_arg, *extra,
                     "--out", str(target), "--json")
    assert rc == 0
    bands = json.loads(out)["bands"]
    body = target.read_text().splitlines()[1:]
    d = len(q_arg.split(","))
    values = np.array([[float(x) for x in line.split(",")[d:]] for line in body])
    assert len(values) == math.prod(int(m) for m in grid_arg.split(","))
    for k, band in enumerate(bands):
        assert band["min"] <= values[:, k].min() and values[:, k].max() <= band["max"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_eigensolver_failure_exits_1(capsys, monkeypatch, workers):
    def eigvalsh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    rc, out, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8", "--workers", workers)
    assert rc == 1 and out == ""
    assert "eigensolver failed at theta=[0.0, 0.0]" in err


def test_potential_file_accepted(capsys, tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"q": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}))
    rc, out, _ = run(capsys, "spectrum", "--q", "2,2", "--grid", "16,16",
                     "--potential", str(pot), "--json")
    assert rc == 0
    assert json.loads(out)["potential"]["path"] == str(pot)


def test_report_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(capsys, "cq", "--q", "2,2", "--grid", "16,16",
                     "--json", "--out", str(target))
    assert rc == 0
    assert target.read_text() == out


# The flags each subcommand accepts: adding or removing one is an edit here.
FLAGS = {
    "bands": {"--q", "--grid", "--budget", "--workers", "--out", "--json",
              "--potential", "--delta", "--seed"},
    "spectrum": {"--q", "--grid", "--budget", "--workers", "--out", "--json",
                 "--potential", "--delta", "--seed"},
    "witness": {"--q", "--grid", "--budget", "--workers", "--out", "--json", "--energy"},
    "cq": {"--q", "--grid", "--budget", "--workers", "--out", "--json"},
    "degeneracy": {"--q", "--out", "--json", "--theta", "--l", "--beta", "--t"},
    "counterexample": {"--q", "--grid", "--budget", "--workers", "--out", "--json",
                       "--delta", "--force"},
}


def test_each_subcommand_accepts_exactly_its_flags():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert accepted == FLAGS


def test_missing_required_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--q", "2,2"])  # --energy is required
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
