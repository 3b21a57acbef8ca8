"""dtflat benchmark: one command, stdlib only, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dtflat checkout.  Every job of the workload is an
in-process ``dtflat.cli.run(argv)`` call, as a user's ``dtflat FILE ...
--json PATH`` would be, on a ``.sys`` file generated from the seed.  The
text report goes to a stdout that keeps only its digest; the JSON report
goes to a temporary file.  Each job runs under the workload's wall-time
cap; a job that hits it is interrupted and recorded as a timeout.  Job
and set-up times are calibrated against the machine's speed, sampled
while they run (see ``clock.py``).  Each answer is checked against a
known answer (see ``jobs.py``), and every report must be byte-identical
across passes.

``--trace 0`` runs whole passes over the jobs for S seconds (at least two),
each after a few fresh imports of dtflat that time the set-up, and reports
the end-to-end metrics.  ``--trace 1`` runs one untraced pass
and two traced passes (see ``layers.py``) and reports the per-layer
metrics; a per-job breakdown goes to stderr.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layers
from clock import JobTimeout, Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_PASS = 3
MIN_PASSES = 2
TRACED_PASSES = 2


class _DigestSink:
    """Stands in for stdout: keeps a digest of the text report, not the
    text."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text: str) -> int:
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


@dataclass
class Outcome:
    status: str             # "ok", "timeout", "exit N: ...", "crash: ...", "wrong: ..."
    seconds: float          # CPU seconds (see clock.py); the cap for a timeout
    nominal: float | None   # calibrated seconds (see clock.py); the cap for a timeout
    output: tuple = ()      # digests of the JSON and the text report
    blocked: bool = False   # the cascade stopped with a diagnosis

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_job(cli, job, path: Path, json_path: Path, cap: float,
            watch: Stopwatch) -> Outcome:
    json_path.unlink(missing_ok=True)
    sink, err = _DigestSink(), io.StringIO()
    argv = [str(path), *job.flags, "--json", str(json_path)]
    try:
        try:
            watch.start(cap)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
        finally:
            seconds = watch.stop()
    except JobTimeout:
        return Outcome("timeout", cap, cap)
    except Exception as exc:  # an uncaught error fails the job, not the run
        return Outcome(f"crash: {type(exc).__name__}: {exc}", *seconds)
    if rc != 0:
        return Outcome(f"exit {rc}: {err.getvalue().strip()}", *seconds)
    try:
        report = json_path.read_bytes()
        doc = json.loads(report)
        problem = job.expect.check(doc)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return Outcome(f"wrong: unreadable report ({type(exc).__name__}: {exc})",
                       *seconds)
    cascade = doc.get("decomposition")
    return Outcome(f"wrong: {problem}" if problem else "ok", *seconds,
                   (hashlib.sha256(report).hexdigest(), sink.digest.hexdigest()),
                   cascade is not None and cascade["blocked"] is not None)


def run_pass(cli, jobs, files, work: Path, cap: float, watch: Stopwatch,
             tracer=None):
    """One pass over all jobs; with a tracer, also the per-job counters
    (None for a job that timed out, whose partial counts depend on when
    the timer fired)."""
    outcomes, profiles = [], []
    for job, path in zip(jobs, files):
        if tracer is not None:
            tracer.reset()
        out = run_job(cli, job, path, work / f"{job.name}.json", cap, watch)
        outcomes.append(out)
        if tracer is not None:
            profiles.append(None if out.status == "timeout"
                            else (tracer.stats, tracer.by_parent))
    return outcomes, profiles


def pass_wall(outcomes, nominal: bool = False) -> float:
    return sum(o.nominal if nominal else o.seconds for o in outcomes)


def fresh_setup(files, watch: Stopwatch) -> tuple:
    """Import dtflat afresh (its modules are dropped from sys.modules
    first) and parse every job file.  Returns the nominal seconds taken
    and the cli module of this import."""
    for name in [n for n in sys.modules
                 if n == "dtflat" or n.startswith("dtflat.")]:
        del sys.modules[name]
    watch.start()
    try:
        cli = importlib.import_module("dtflat.cli")
        for path in files:
            try:
                cli.parse_system(path)
            except Exception:  # the job itself records the failure
                pass
    finally:
        _, nominal = watch.stop()
    return nominal, cli


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def check_passes(jobs, passes) -> tuple:
    """Failed job runs, and the problems that make the run incorrect:
    wrong answers and reports that differ between passes."""
    failed, problems = 0, []
    for j, job in enumerate(jobs):
        first = passes[0][j]
        for p, outcomes in enumerate(passes):
            out = outcomes[j]
            if out.status.startswith("wrong"):
                problems.append(f"{job.name}: {out.status}")
            same = (out.status == first.status and out.output == first.output)
            if not same:
                problems.append(f"{job.name}: pass {p + 1} differs from pass 1 "
                                f"({out.status!r} vs {first.status!r})")
            failed += not (out.ok and same)
    return failed, problems


def timed_run(jobs, files, work, cap, seconds) -> tuple:
    """Passes for the given seconds, each after SETUP_PER_PASS fresh
    set-ups, so that the set-up samples spread over the whole run rather
    than its first second."""
    passes, setups = [], []
    watch = Stopwatch()
    deadline = perf_counter() + seconds
    last = 0.0
    while len(passes) < MIN_PASSES or perf_counter() + last <= deadline:
        t0 = perf_counter()
        for _ in range(SETUP_PER_PASS):
            setup_s, cli = fresh_setup(files, watch)
            setups.append(setup_s)
        outcomes, _ = run_pass(cli, jobs, files, work, cap, watch)
        last = perf_counter() - t0
        passes.append(outcomes)
    failed, problems = check_passes(jobs, passes)
    for job, out in zip(jobs, passes[0]):
        if not out.ok:
            print(f"job {job.name}: {out.status}", file=sys.stderr)
    for nominal in (False, True):
        print(f"{len(passes)} passes, {'nominal' if nominal else 'CPU'} "
              "pass walls (s): "
              + " ".join(f"{pass_wall(p, nominal):.3f}" for p in passes),
              file=sys.stderr)
    wall = sum(statistics.median(outcomes[j].nominal for outcomes in passes)
               for j in range(len(jobs)))
    metrics = {"setup_s": _metric(statistics.median(setups), "s"),
               "wall_s": _metric(wall, "s")}
    return passes, failed, problems, metrics


def _aggregate(profiles) -> dict:
    """name -> [calls, inclusive s, self s, max size] over the jobs of one
    traced pass."""
    total = {}
    for prof in profiles:
        if prof is None:
            continue
        for name, (calls, incl, self_s, size) in prof[0].items():
            t = total.setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += calls
            t[1] += incl
            t[2] += self_s
            t[3] = max(t[3], size)
    return total


# the ROADMAP Baseline columns, as (parent span, span) of the analysis:
# spans called straight from cli.run, and the cross-check inside the
# codistribution step
BREAKDOWN = (
    ("chart", (("", "systems.build_adapted_chart"),)),
    ("dist", (("", "flatness.distribution_step"),)),
    ("codist", (("", "flatness.codistribution_step"),)),
    ("xcheck", (("flatness.codistribution_step", "geometry.invariant_closure"),)),
    ("duality", (("", "flatness.verify_duality"),)),
    ("decomp", (("", "decompose.decompose_step"),)),
    ("render", (("", "reporting.render_text"), ("", "reporting.render_json"))),
)


def _print_breakdown(jobs, untraced, profiles):
    """Per job: untraced seconds, traced seconds per Baseline column, and
    the number of adapted charts built."""
    print("job            status   wall_s  "
          + "  ".join(f"{c:>7}" for c, _ in BREAKDOWN) + "  charts", file=sys.stderr)
    for job, out, prof in zip(jobs, untraced, profiles):
        if prof is None:
            cells = ["      -"] * (len(BREAKDOWN) + 1)
        else:
            cells = [f"{sum(prof[1].get(k, 0.0) for k in keys):7.3f}"
                     for _, keys in BREAKDOWN]
            cells.append(f"{prof[0]['systems.build_adapted_chart'][0]:7d}")
        print(f"{job.name:<14} {out.status.split(':')[0]:<8} {out.seconds:6.3f}  "
              + "  ".join(cells), file=sys.stderr)


def traced_run(cli, jobs, files, work, cap) -> tuple:
    # no speed samples here: they would land in the spans of the layers
    watch = Stopwatch(sample=False)
    untraced, _ = run_pass(cli, jobs, files, work, cap, watch)
    tracer = layers.Tracer()
    missed = layers.unwrapped_references(layers.install(tracer))
    if missed:
        raise SystemExit("perfbench: tracing missed references to wrapped "
                         "functions: " + ", ".join(missed))
    traced = [run_pass(cli, jobs, files, work, cap, watch, tracer)
              for _ in range(TRACED_PASSES)]
    passes = [untraced] + [outcomes for outcomes, _ in traced]
    failed, problems = check_passes(jobs, passes)

    totals = [_aggregate(profiles) for _, profiles in traced]
    counters = [{name: (t[name][0], t[name][3]) for name in t} for t in totals]
    if any(c != counters[0] for c in counters):
        problems.append("call counters differ between traced passes")
    _print_breakdown(jobs, untraced, traced[0][1])

    metrics = {}
    for name in layers.NAMES:
        rows = [t.get(name, [0, 0.0, 0.0, 0]) for t in totals]
        metrics[f"{name}.calls"] = _metric(rows[0][0], "count")
        metrics[f"{name}.s"] = _metric(statistics.median(r[1] for r in rows), "s")
        metrics[f"{name}.self_s"] = _metric(statistics.median(r[2] for r in rows), "s")
        if name in layers.SIZED:
            metrics[f"{name}.max_terms"] = _metric(rows[0][3], "count")
    metrics["decompose.blocked"] = _metric(sum(o.blocked for o in untraced), "count")
    metrics["failed_share"] = _metric(
        sum(not o.ok for o in untraced) / len(untraced), "share")
    traced_wall = statistics.median(pass_wall(outcomes) for outcomes, _ in traced)
    metrics["trace_overhead_s"] = _metric(traced_wall - pass_wall(untraced), "s")
    return passes, failed, problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/dtflat/cli.py", "tests/corpus.py", "tests/data")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a dtflat checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import corpus
    from jobs import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    jobs = workload.build(args.seed, ROOT, corpus)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        work = Path(tmp)
        files = []
        for job in jobs:
            path = work / f"{job.name}.sys"
            path.write_text(job.text, encoding="utf-8")
            files.append(path)
        if args.trace:
            _, cli = fresh_setup(files, Stopwatch(sample=False))
            passes, failed, problems, metrics = traced_run(
                cli, jobs, files, work, workload.cap_s)
        else:
            passes, failed, problems, metrics = timed_run(
                jobs, files, work, workload.cap_s, args.seconds)
            metrics["peak_rss_mb"] = _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems,
                      "attempted": sum(len(p) for p in passes),
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
