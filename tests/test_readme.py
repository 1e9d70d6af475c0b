"""The README's library quick start runs and prints what its comments say, and
each command of its command-line block runs and exits 0."""
import contextlib
import io
import math
import pathlib
import re
import shlex

import pytest

from latticebands.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_what_it_claims():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # print(report.intervals): the free (2, 3) spectrum is exactly [-4, 4]
    assert "print(report.intervals)      # (Interval(lo=-4.0, hi=4.0),)" in block
    assert lines[0] == "(Interval(lo=-4.0, hi=4.0),)"
    # print(est.c_q): "about 0.168 on this grid"
    assert "# about 0.168 on this grid" in block
    assert math.isclose(float(lines[3]), 0.168, abs_tol=5e-4)
    # print(check.margin, check.certified_margin, check.passes)
    assert lines[4].split()[-1] == "True"


def _command_line_examples():
    """The argument lists of the commands in the README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("latticebands ")]


@pytest.mark.parametrize("argv", _command_line_examples(), ids=lambda argv: argv[0])
def test_command_line_example_exits_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # bands writes bands.csv into the working directory
    assert main(argv) == 0, capsys.readouterr().err


def test_command_line_block_has_one_example_per_subcommand():
    assert sorted(argv[0] for argv in _command_line_examples()) == sorted(
        ["spectrum", "bands", "witness", "cq", "degeneracy", "counterexample"]
    )
