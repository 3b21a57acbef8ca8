"""Statement reach of the program: how often each statement of
``src/dtflat`` runs on the benchmark's workloads and under the tier-1
tests, and why each statement that neither runs may stay.

    python tests/reach.py > reach.out              # workloads, then tier-1
    python tests/reach.py --workloads > reach.out  # the workloads alone

The trace (``sys.settrace``) starts before ``dtflat`` is imported, so
module-level statements count too.  The first source is every job of the
three benchmark workloads (``perfbench/jobs.py``) at seed 1, run in process
through ``dtflat.cli.run`` as ``tests/sweep.py`` runs them; the import of
``dtflat`` counts toward it.  The second source is the tier-1 suite, run in
process by ``pytest.main`` (tests that start a subprocess are not traced
there).  The tool prints one line per statement of every module, in file
order,

    module:line workloads tests statement

(``module:line workloads statement`` with ``--workloads``), where statement
is the first line of its source.  A statement is counted once each time it
starts: a line event counts when it enters another statement of the same
frame, or when the frame jumps back (the next pass of a loop).  Lines of
comprehensions, generator expressions and lambdas count toward no
statement, since they are part of one (from Python 3.12 a comprehension
runs in its statement's frame, so that statement counts once per pass).

Without ``--workloads`` a list follows of every statement that neither
source runs, each with its reason from ``REASONS``, which is keyed by
module and statement text, not by line number.  The tool exits 1 when an
unreached statement has no reason, when a reason matches no unreached
statement, or when a test fails.  The workloads take about 8 s on one core,
and tier-1 under the trace about 4 minutes.  The file is not a test module
(pytest collects ``test_*.py`` only).
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
SEED = 1

# (module, statement text) -> why no workload and no tier-1 test runs it
REASONS = {
    ("cli", "main()"): "runs only as python -m dtflat.cli, in a process of "
                       "its own; the CI goldens job runs it",
}


def statements(path: Path) -> tuple:
    """(first lines, owner): the first line of every statement of the
    module in file order, and for each line the first line of the
    innermost statement whose own lines hold it (a compound statement owns
    its decorators and its header, up to its first nested statement)."""
    tree = ast.parse(path.read_text())
    first, owner = set(), {}
    for node in ast.walk(tree):     # outer before inner: inner lines win
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Constant)):
            continue    # a docstring or other constant runs no code
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, (ast.stmt, ast.excepthandler))]
        start = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        end = min(nested) - 1 if nested else node.end_lineno
        first.add(node.lineno)
        for line in range(start, max(end, node.lineno) + 1):
            owner[line] = node.lineno
    return sorted(first), owner


class LineCounter:
    """Starts of statements in the files of owners, keyed (source, file,
    line); source names what runs while they are counted."""

    def __init__(self, owners: dict):
        self.owners = owners
        self.source = None
        self.counts = Counter()
        self.last = {}      # frame -> (statement, last instruction)

    def call(self, frame, event, arg):
        name = frame.f_code.co_name
        if frame.f_code.co_filename not in self.owners or (
                name.startswith("<") and name != "<module>"):
            return None
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            owner = self.owners[frame.f_code.co_filename]
            stmt = owner.get(frame.f_lineno)
            prev = self.last.get(frame)
            if stmt is not None and (prev is None or prev[0] != stmt
                                     or frame.f_lasti <= prev[1]):
                self.counts[self.source, frame.f_code.co_filename, stmt] += 1
            self.last[frame] = (stmt, frame.f_lasti)
        elif event == "return":
            self.last.pop(frame, None)
        return self.line


def run_workloads():
    """Every job of the benchmark workloads at SEED, in process, from a
    temporary directory; dtflat is imported here, under the trace."""
    for sub in ("src", "perfbench", "tests"):
        sys.path.insert(0, str(ROOT / sub))
    import corpus
    from dtflat import cli
    from jobs import WORKLOADS
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
                        cli.run([str(path), *job.flags,
                                 "--json", "report.json"])
        finally:
            os.chdir(here)


class NoDeadline:
    """A pytest plugin: the trace slows every test, so hypothesis gets no
    deadline (set once pytest has imported hypothesis, before any test
    module is)."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("reach", deadline=None)
        settings.load_profile("reach")


class KeepTrace:
    """A pytest plugin: a test that recurses to the interpreter's limit
    makes the trace function raise RecursionError, and CPython then turns
    the trace off, so every test starts with it set again."""

    def __init__(self, trace):
        self.trace = trace

    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)


def run_tests(trace) -> int:
    """Tier-1 in process, its report on stderr; pytest's exit code."""
    import pytest
    with contextlib.redirect_stdout(sys.stderr):
        return pytest.main(["-q", "-p", "no:cacheprovider",
                            str(ROOT / "tests")],
                           plugins=[NoDeadline(), KeepTrace(trace)])


def main(argv: list) -> int:
    if argv not in ([], ["--workloads"]):
        sys.stderr.write(f"usage: {sys.argv[0]} [--workloads]\n")
        return 2
    sources = ["workloads"] if argv else ["workloads", "tests"]
    modules = {str(path): (path.stem, *statements(path))
               for path in sorted(SRC.glob("*.py"))}
    counter = LineCounter({f: owner for f, (_, _, owner) in modules.items()})
    failed = 0
    sys.settrace(counter.call)
    try:
        counter.source = "workloads"
        run_workloads()
        if "tests" in sources:
            counter.source = "tests"
            failed = run_tests(counter.call)
    finally:
        sys.settrace(None)

    unreached = []
    for f, (name, first, _) in modules.items():
        lines = Path(f).read_text().splitlines()
        for line in first:
            counts = [counter.counts[s, f, line] for s in sources]
            text = lines[line - 1].strip()
            print(f"{name}:{line} {' '.join(map(str, counts))} {text}")
            if not any(counts):
                unreached.append((name, line, text))
    if len(sources) == 1:
        return 0

    print(f"\nunreached: {len(unreached)} statements")
    used, bad = set(), 0
    for name, line, text in unreached:
        reason = REASONS.get((name, text))
        if reason is None:
            bad += 1
            reason = "NO REASON"
        used.add((name, text))
        print(f"{name}:{line} {text}\n    {reason}")
    for name, text in sorted(set(REASONS) - used):
        bad += 1
        print(f"stale reason, nothing unreached reads {name}: {text}")
    if failed:
        print(f"tier-1 failed under the trace (pytest exit {failed})")
    return 1 if bad or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
