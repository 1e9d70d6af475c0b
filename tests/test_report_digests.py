"""tools/report_digests.py runs on the README's commands and its own
degeneracy commands: one stable sha256 per command, which covers the files
the command writes."""
import importlib.util
import os
import pathlib

from latticebands import cli, degeneracy

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digests_of_two_readme_commands(tmp_path, monkeypatch):
    tool = _tool()
    commands = {argv[0]: argv for argv in tool.readme_commands()}
    monkeypatch.chdir(tmp_path)
    bands, cq = commands["bands"], commands["cq"]
    first = [tool.digest(bands), tool.digest(cq)]
    assert first == [tool.digest(bands), tool.digest(cq)]
    assert all(len(h) == 64 and int(h, 16) >= 0 for h in first) and first[0] != first[1]
    # each command runs in a directory of its own: bands.csv is not left here
    assert os.listdir(tmp_path) == []
    # so are the bytes of the CSV that bands writes
    write = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv", lambda fh, *args: (write(fh, *args), fh.write("\n")))
    assert tool.digest(bands) != first[0]


def test_report_digests_of_the_degeneracy_commands(tmp_path, monkeypatch, capsys):
    # each reaches the path its comment names: the exit codes tell them
    # apart, and the first phase snaps to no fraction, so it groups within
    # GROUP_TOL
    tool = _tool()
    assert degeneracy._as_fraction(0.1234) is None
    monkeypatch.chdir(tmp_path)
    assert [cli.main(argv) for argv in tool.DEGENERACY_COMMANDS] == [0, 3, 1]
    capsys.readouterr()
    first = [tool.digest(argv) for argv in tool.DEGENERACY_COMMANDS]
    assert first == [tool.digest(argv) for argv in tool.DEGENERACY_COMMANDS]
    assert len(set(first)) == 3 and os.listdir(tmp_path) == []
