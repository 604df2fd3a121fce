"""The narrative demos run end to end, in process, against the package."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos")
               .glob("demo_*.py"))


def test_all_seven_demos_found():
    assert [p.name[:7] for p in DEMOS] == [f"demo_0{i}" for i in range(1, 8)]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert "===" in out.getvalue()
