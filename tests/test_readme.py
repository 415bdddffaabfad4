"""The README's code runs as written."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_gives_an_inverse_pair(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    alpha, tau, T = map(float, capsys.readouterr().out.split())
    assert alpha > 0.0
    assert tau == pytest.approx(T, rel=0.05)
