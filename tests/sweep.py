"""Byte-identity sweep of the command line.

Runs ``dtflat.cli.run`` in process once per (input, flags) and prints one
line per run: a label, the exit code and the sha256 of stdout, stderr and
the ``--json`` report (``-`` when no report was written).  The inputs are

* every job of the three benchmark workloads (``perfbench/jobs.py``) at
  seeds 1 and 2, each under ``--test both``, ``codistribution`` and
  ``distribution`` besides its own flags;
* every ``tests/data/*.sys`` and ``tests/data/golden/*.sys`` under the
  flag sets of ``FILE_FLAGS``.

A change that must leave every report as it is is checked against the
committed digests with

    python tests/sweep.py > sweep.out
    diff tests/data/sweep.sha256 sweep.out

Each run reads its input from a relative path in a temporary directory, so
the lines do not depend on where the repository lives.  The file is not a
test module (pytest collects ``test_*.py`` only).  Its 424 runs take about
10 s on one core.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for sub in ("src", "perfbench", "tests"):
    sys.path.insert(0, str(ROOT / sub))

import corpus  # noqa: E402
from dtflat.cli import run  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
TESTS = ("both", "codistribution", "distribution")
FILE_FLAGS = [
    *(("--test", t) for t in TESTS),
    *(("--test", t, "--decompose") for t in TESTS),
    ("--point-check", "--seed", "3"),
    ("--max-iterations", "2"),
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sweep_line(label: str, path: str, flags) -> str:
    """Run the CLI on path with flags from the current directory and
    describe the outcome in one line."""
    report = Path("report.json")
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run([path, *flags, "--json", report.name])
    data = _digest(report.read_bytes()) if report.exists() else "-"
    return "\t".join([label, str(rc), _digest(out.getvalue().encode()),
                      _digest(err.getvalue().encode()), data])


def runs():
    """(label, file name, text, flags) of every run, in a fixed order."""
    for workload, spec in WORKLOADS.items():
        for seed in SEEDS:
            for job in spec.build(seed, ROOT, corpus):
                for test in TESTS:
                    flags = (*job.flags, "--test", test)
                    yield (f"{workload}/{seed}/{job.name} {' '.join(flags)}",
                           f"{workload}-{seed}-{job.name}.sys", job.text, flags)
    data = ROOT / "tests" / "data"
    for path in sorted(data.glob("*.sys")) + sorted(data.glob("golden/*.sys")):
        name = path.relative_to(data).as_posix()
        for flags in FILE_FLAGS:
            yield (f"{name} {' '.join(flags)}", path.name, path.read_text(),
                   flags)


def main() -> int:
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for label, file_name, text, flags in runs():
                Path(file_name).write_text(text)
                print(sweep_line(label, file_name, flags), flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
