"""scripts/unreached.py's line logic on a stub module: which lines are
executable, which of them were not reached, and which carry the marker."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "unreached.py"

STUB = '''"""A stub module."""


def f(x):
    # a comment is not executable
    if x:
        return 1
    raise ValueError("no")  # unreachable: every caller passes a true x
'''


def _unreached():
    spec = importlib.util.spec_from_file_location("unreached_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.unreached


def test_unreached_lines_of_a_stub_module(tmp_path):
    path = tmp_path / "stub.py"
    path.write_text(STUB)
    unreached = _unreached()
    # the docstring, the def, and the three lines of the body
    count, lines = unreached(path, {1, 4, 6, 7})
    assert count == 5
    assert lines == [(8, 'raise ValueError("no")  # unreachable: every caller passes a true x',
                      True)]
    # a module only imported reaches its docstring and its def
    _, lines = unreached(path, {1, 4})
    assert [(n, marked) for n, _, marked in lines] == [(6, False), (7, False), (8, True)]
    assert unreached(path, {1, 4, 6, 7, 8}) == (5, [])
