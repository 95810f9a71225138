"""The README's library quick start runs as written and prints its values."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_values() -> list:
    """Run the python block under "Quick start (library)" statement by
    statement, and return the value of each bare expression in order."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start (library)"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, values = {}, []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_readme_quick_start_values():
    E, S, (y, y_hat, certificate) = quick_start_values()
    assert E == pytest.approx(0.125, rel=1e-12)
    assert S == pytest.approx(0.12625, rel=1e-12)
    assert y == pytest.approx(2.0, rel=1e-12)
    assert y_hat == pytest.approx(2.01920, abs=5e-6)
    assert certificate == pytest.approx(0.01871, abs=5e-6)
