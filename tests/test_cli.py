import json

import numpy as np
import pytest

from latticebands import GridSpec, iter_band_rows, period, random_potential
from latticebands.cli import _fmt_float, main


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


def test_degeneracy_flat_direction_is_a_computation_error(capsys):
    rc, _, err = run(
        capsys,
        "degeneracy", "--q", "2,2",
        "--theta", "0.25,0.25",
        "--l", "0,0", "--beta", "1,1",  # normalized internally to the diagonal
    )
    assert rc == 1
    assert "second order" in err


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


def test_counterexample_odd_period_rejected(capsys):
    rc, _, err = run(capsys, "counterexample", "--q", "2,3", "--delta", "0.1")
    assert rc == 2
    assert "even" in err


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
    rc, _, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "16,16",
                     "--merge-tol", "0.001")
    assert rc == 2 and "merge" in err
    pot = tmp_path / "pot.json"
    pot.write_text(json.dumps({"q": [2, 2], "values": [0.1, -0.1, -0.1, 0.1]}))
    rc, _, err = run(capsys, "spectrum", "--q", "2,3", "--grid", "16,16",
                     "--potential", str(pot))
    assert rc == 2 and "do not match" in err


def test_nan_delta_for_random_potential_exits_2(capsys):
    rc, out, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8",
                       "--potential", "random", "--delta", "nan", "--json")
    assert rc == 2 and out == "" and "amplitude" in err


def test_non_finite_merge_tolerance_exits_2(capsys):
    for tol in ("nan", "inf"):
        rc, _, err = run(capsys, "spectrum", "--q", "2,2", "--grid", "8,8", "--merge-tol", tol)
        assert rc == 2 and "merge tolerance must be finite" in err


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
        rc, out, err = run(capsys, command, "--q", "2,2", "--grid", "8,8", "--workers", workers, *extra)
        assert rc == 2 and out == "" and "workers must be at least 1" in err


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
    for theta, vals in iter_band_rows(q, random_potential(q, 0.3, 11), GridSpec((16, 12))):
        lines.append(",".join(format(float(x), ".17g") for x in (*theta, *vals)))
    assert target.read_bytes() == ("\n".join(lines) + "\n").encode()


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


def test_missing_required_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--q", "2,2"])  # --energy is required
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
