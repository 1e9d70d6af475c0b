"""The README's library quick start runs and prints what its comments say."""
import contextlib
import io
import math
import pathlib
import re

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
