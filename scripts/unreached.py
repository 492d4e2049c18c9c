#!/usr/bin/env python3
"""List the lines of src/flipcert that the tier-1 tests never reach.

Runs the tier-1 suite (tests/) in this process under a line tracer,
with a fixed Hypothesis seed so that a line only a lucky draw reaches
does not count.  A line is executable when a code object compiled from
its file maps some bytecode to it.  Prints each file's executable and
unreached counts, then every unreached line that carries no
`# unreachable: <reason>` marker.  Tests that run flipcert in a
subprocess are not traced.  Exits 1 if pytest fails or any unmarked
line is left, and 0 otherwise.

    python scripts/unreached.py
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flipcert"
MARK = "# unreachable:"


def unreached(path: Path, reached: set[int]) -> tuple[int, list[tuple[int, str, bool]]]:
    """(executable count, [(line, text, marked)]) for the lines of `path`
    that some code object compiled from it maps bytecode to and that are
    not in `reached`."""
    source = path.read_text()
    executable, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        # line 0 or None: bytecode with no source line, such as a module's
        # first instruction
        executable.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    text = source.splitlines()
    return len(executable), [(n, text[n - 1].strip(), MARK in text[n - 1])
                             for n in sorted(executable - reached)]


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    reached: dict[str, set[int]] = {name: set() for name in files}

    def tracer(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    rows, left = [], []
    for name, path in files.items():
        count, lines = unreached(path, reached[name])
        rows.append((path.name, count, len(lines)))
        left += [f"{path.name}:{n}: {text}" for n, text, marked in lines if not marked]
    rows.insert(0, ("src/flipcert", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for label, count, missed in rows:
        print(f"{label:<16} {count:>5} executable {missed:>4} unreached")
    print(f"{len(left)} unreached lines without a '{MARK}' marker")
    print("\n".join(left))
    return 1 if status != 0 or left else 0


if __name__ == "__main__":
    sys.exit(main())
