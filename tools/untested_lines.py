"""List the lines of ``src/reconfig`` that no Tier-1 test runs.

``coverage`` is not a dependency, so this runs the whole test suite in this
process under a ``sys.settrace`` hook that traces only the frames of code in
``src/reconfig``. It then prints, as ``file:line``, every executable line
(one that some code object's ``co_lines()`` names) that never ran. Run it
from the repository root; extra arguments go to pytest:

    PYTHONPATH=src python3 tools/untested_lines.py

It takes about 110 s on 2 CPUs. Tracing slows the traced code several
times over, so a timing test such as ``test_criterion_7c_linear_scaling``
may fail under it: the tool reports lines, not test verdicts. Code run only
in a child process (a CLI subprocess, a worker pool) is not seen.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "reconfig"
ran: set[tuple[str, int]] = set()


def local(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return local


def call(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        return local(frame, event, arg)
    return None


def executable(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def main() -> None:
    sys.settrace(call)
    pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    sys.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        source, name = path.read_text(), str(path)
        missed = executable(compile(source, name, "exec")) - {ln for f, ln in ran if f == name}
        for line in sorted(missed):
            print(f"{path.relative_to(ROOT)}:{line}: {source.splitlines()[line - 1].strip()}")


# a worker process the tests spawn imports this file again: only the
# parent may run the suite
if __name__ == "__main__":
    main()
