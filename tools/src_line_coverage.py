"""Print each executable line of ``src/chainhash/*.py`` that the test suite never runs.

Stdlib only, for a machine without the ``coverage`` package.  It runs pytest
in-process (with the ``testpaths`` of pyproject.toml, so the tier-1 suite)
under ``sys.settrace`` and ``threading.settrace``, and compares the lines
that ran with the executable lines of each module: the line numbers of its
code objects, nested ones included, as ``co_lines()`` lists them.  Lines run
only in a child process (a CLI or benchmark subprocess) do not count.

Run from the repository root:

    PYTHONPATH=src python tools/src_line_coverage.py [pytest arguments]

It prints ``path:line: source`` for every missed line, then a count, and
exits with pytest's status.  Tracing makes the suite about 1.7 times slower.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chainhash"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from ``path`` can run."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        seen = ran.get(frame.f_code.co_filename)
        if seen is None:
            return None  # no line events for frames outside the package

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[name]):
            missed += 1
            print(f"{path.relative_to(SRC.parents[1])}:{line}: {source[line - 1].strip()}")
    print(f"{missed} executable lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
