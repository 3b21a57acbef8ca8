"""Statement counts of the program on the benchmark's traffic.

Runs every job of the three benchmark workloads (``perfbench/jobs.py``) at
seed 1 in process, as ``tests/sweep.py`` does, and counts with
``sys.settrace`` how often each statement of ``src/dtflat`` runs while
``dtflat.cli.run`` runs; imports are not counted.  It prints one line per
statement of every module, in file order,

    module:line count statement

where statement is the first line of its source and count is 0 for a
statement that never ran.  A statement is counted once each time it
starts: a line event counts when it enters another statement of the same
frame, or when the frame jumps back (the next pass of a loop).  Lines of
comprehensions, generator expressions and lambdas count toward no
statement, since they are part of one.  So

    python tests/traffic.py > traffic.out

shows which paths the workloads take, and how often.  The file is not a
test module (pytest collects ``test_*.py`` only); it takes no flags and
runs in about 10 s on one core.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dtflat"
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import corpus  # noqa: E402
from dtflat import cli  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

SEED = 1


def statements(path: Path) -> tuple:
    """(first lines, owner): the first line of every statement of the
    module in file order, and for each line the first line of the
    innermost statement whose own lines hold it (a compound statement owns
    its header, up to its first nested statement)."""
    tree = ast.parse(path.read_text())
    first, owner = set(), {}
    for node in ast.walk(tree):     # outer before inner: inner lines win
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)):
            continue    # a docstring or other constant runs no code
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, (ast.stmt, ast.excepthandler))]
        end = min(nested) - 1 if nested else node.end_lineno
        first.add(node.lineno)
        for line in range(node.lineno, max(end, node.lineno) + 1):
            owner[line] = node.lineno
    return sorted(first), owner


class LineCounter:
    """Starts of statements in the files of owners, keyed (file, line)."""

    def __init__(self, owners: dict):
        self.owners = owners
        self.counts = Counter()
        self.last = {}      # frame -> (statement, last instruction)

    def call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.owners or code.co_name.startswith("<"):
            return None
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            owner = self.owners[frame.f_code.co_filename]
            stmt = owner.get(frame.f_lineno)
            prev = self.last.get(frame)
            if stmt is not None and (prev is None or prev[0] != stmt
                                     or frame.f_lasti <= prev[1]):
                self.counts[frame.f_code.co_filename, stmt] += 1
            self.last[frame] = (stmt, frame.f_lasti)
        elif event == "return":
            self.last.pop(frame, None)
        return self.line


def main() -> int:
    modules = {str(path): (path.stem, *statements(path))
               for path in sorted(SRC.glob("*.py"))}
    counter = LineCounter({f: owner for f, (_, _, owner) in modules.items()})
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for spec in WORKLOADS.values():
                for job in spec.build(SEED, ROOT, corpus):
                    path = Path(f"{job.name}.sys")
                    path.write_text(job.text)
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        sys.settrace(counter.call)
                        try:
                            cli.run([str(path), *job.flags,
                                     "--json", "report.json"])
                        finally:
                            sys.settrace(None)
        finally:
            os.chdir(here)
    for f, (name, first, _) in modules.items():
        lines = Path(f).read_text().splitlines()
        for line in first:
            print(f"{name}:{line} {counter.counts[f, line]} "
                  f"{lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
