"""The solves each command makes, counted per case.

The span tracer of bench/ counts batched eigensolves (``np.linalg.eigvalsh``
on a 3-D stack, one per matrix) and refinement probes (calls of
``floquet.assemble``) and pins ``refine.probes == assemble.calls`` and
``sweep.matrices >= sweep.nodes`` over five cases.  Plain counting wrappers
on the same two names here run those five cases, so a change to the package
that would move a solve fails in this file first, naming the case.

The numbers are those of the package when this test was written.  A change
that changes the solve count on purpose restates them here and gives its
reason.
"""
import threading

import numpy as np
import pytest

from latticebands import cli, floquet

CASES = {
    "spectrum": ("spectrum", "--q", "2,3", "--grid", "16,16", "--json"),
    "counterexample": ("counterexample", "--q", "2,2", "--grid", "48,48", "--delta", "0.15", "--workers", "2", "--json"),
    "bands": ("bands", "--q", "2,2", "--grid", "8,8", "--out", "{tmp}/b.csv", "--json"),
    "witness": ("witness", "--q", "2,2", "--grid", "8,8", "--energy", "1.1", "--json"),
    "degeneracy": ("degeneracy", "--q", "3,2", "--theta", "0.16666666666666666,0", "--l", "1,0", "--beta", "1,0", "--json"),
}

# (matrices in batched eigvalsh calls, assemble calls) per case
SOLVES = {
    "spectrum": (2256, 23),
    "counterexample": (1314, 0),
    "bands": (776, 20),
    "witness": (776, 20),
    "degeneracy": (0, 0),
}
# the counterexample's gap is too narrow to certify at 48 x 48
EXIT_CODES = {"counterexample": 3}


@pytest.mark.parametrize("name", list(CASES))
def test_each_case_makes_the_same_solves(name, monkeypatch, tmp_path, capsys):
    lock = threading.Lock()  # the counterexample sweep solves on worker threads
    counts = {"matrices": 0, "assemble": 0}
    solve, assemble = np.linalg.eigvalsh, floquet.assemble

    def eigvalsh(a, *args, **kwargs):
        if getattr(a, "ndim", 0) == 3:
            with lock:
                counts["matrices"] += a.shape[0]
        return solve(a, *args, **kwargs)

    def counted_assemble(*args, **kwargs):
        with lock:
            counts["assemble"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    monkeypatch.setattr(floquet, "assemble", counted_assemble)
    argv = [a.format(tmp=tmp_path) for a in CASES[name]]
    assert cli.main(argv) == EXIT_CODES.get(name, 0)
    capsys.readouterr()
    assert (counts["matrices"], counts["assemble"]) == SOLVES[name]
