"""Print one sha256 digest per CLI command: over its exit code, stdout,
stderr and every file it writes.

The commands are every case of seeds 1-3 of the four benchmark workloads
(generated by bench/workloads.py), the commands of the README's "Command
line" block, DEGENERACY_COMMANDS, which reach degeneracy paths that no
workload does, TEXT_COMMANDS, which print the human-readable lines
and the CSV on stdout that every other command replaces by --json or
--out, and ERROR_COMMANDS, which the gap construction rejects with exit
2.  Each runs in-process through latticebands.cli.main,
in an empty temporary working directory that is removed afterwards, so
relative output paths (the workloads' CSV files, the README's bands.csv)
are the same on every run.  Two trees print the same lines exactly when
every exit code, report and CSV is byte-identical:

    PYTHONPATH=src python3 tools/report_digests.py > new.txt
    PYTHONPATH=/path/to/parent/src python3 tools/report_digests.py > old.txt
    diff old.txt new.txt

The package is imported from PYTHONPATH; the workload generators and the
README are read from the repository holding this file.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
# The tolerance path (exit 0), a count that contradicts the prediction
# (exit 3) and a group degenerate to second order (exit 1).
DEGENERACY_COMMANDS = (
    ["degeneracy", "--q", "3,2", "--theta", "0.1234,0.05", "--l", "0,0", "--beta", "1,0"],
    ["degeneracy", "--q", "1,1", "--theta", "2e-11,0", "--l", "0,0", "--beta=-1,0", "--t", "1e-3"],
    ["degeneracy", "--q", "2,2", "--theta", "0.25,0.25", "--l", "0,0", "--beta", "1,1"],
)
# Each command that prints a summary line without --json (spectrum with two
# intervals and with one), bands' JSON without --out, and bands' CSV on
# stdout.
TEXT_COMMANDS = (
    ["spectrum", "--q", "2,2", "--potential", "vq", "--delta", "0.1", "--grid", "64,64"],
    ["spectrum", "--q", "2,3", "--potential", "random", "--delta", "0.3", "--grid", "16,16"],
    ["witness", "--q", "2,3", "--energy", "0.5", "--grid", "32,32"],
    ["cq", "--q", "3,3", "--grid", "32,32"],
    ["counterexample", "--q", "2,2", "--delta", "0.1", "--grid", "64,64"],
    ["bands", "--q", "2,2", "--potential", "dimer", "--delta", "0.2", "--grid", "8,8", "--json"],
    ["bands", "--q", "2,3", "--potential", "random", "--delta", "0.4", "--grid", "6,5"],
)

# An odd period for dimer and for counterexample, a coupling above the cap
# for counterexample and for vq, and a coupling that is not positive.
ERROR_COMMANDS = (
    ["spectrum", "--q", "2,3", "--potential", "dimer", "--delta", "0.1", "--grid", "8,8"],
    ["counterexample", "--q", "2,3", "--delta", "0.1", "--grid", "8,8"],
    ["counterexample", "--q", "2,2", "--delta", "0.3", "--grid", "8,8"],
    ["spectrum", "--q", "2,2", "--potential", "vq", "--delta", "0.3", "--grid", "8,8"],
    ["spectrum", "--q", "2,2", "--potential", "vq", "--delta", "0", "--grid", "8,8"],
)


def readme_commands() -> list[list[str]]:
    """The argument lists of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("latticebands ")]


def workload_commands() -> list[tuple[str, list[str]]]:
    """(label, argv) of every case of seeds 1-3 of the four workloads, with
    output files in the working directory."""
    sys.path.insert(0, str(ROOT))
    try:
        from bench import workloads
    finally:
        sys.path.remove(str(ROOT))
    return [
        (f"{name} seed {seed}: {case.label}", list(case.argv))
        for name in workloads.WORKLOADS
        for seed in SEEDS
        for case in workloads.generate(name, seed, ".")
    ]


def _feed(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "little"))
    h.update(data)


def digest(argv: list[str]) -> str:
    """sha256 over the exit code, stdout, stderr, and the name and bytes of
    every file the command writes, each length-prefixed."""
    from latticebands.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            h = hashlib.sha256()
            for data in (str(rc), out.getvalue(), err.getvalue()):
                _feed(h, data.encode())
            for path in sorted(Path(work).rglob("*")):
                if path.is_file():
                    _feed(h, str(path.relative_to(work)).encode())
                    _feed(h, path.read_bytes())
        finally:
            os.chdir(cwd)
    return h.hexdigest()


def main() -> int:
    commands = (
        workload_commands()
        + [("README: " + " ".join(argv), argv) for argv in readme_commands()]
        + [(" ".join(argv), argv) for argv in DEGENERACY_COMMANDS + TEXT_COMMANDS + ERROR_COMMANDS]
    )
    for label, argv in commands:
        print(f"{digest(argv)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
