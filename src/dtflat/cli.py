"""File-driven front end.

Reads a line-oriented system definition, runs the selected flatness tests
with the duality verifier, optionally decomposes, and writes a text report
to stdout plus a JSON report on request.  Exit code 0 means the analysis
completed (flat and not-flat are both successes); any raised library error
exits nonzero with a remediation hint when one is known.
"""

from __future__ import annotations

import argparse
import functools
import sys as _sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .decompose import decompose_cascade
from .errors import DtflatError, HintInvalid, NonRationalExpression, ParseError
from .exprs import Scalar, clear_memo, parse_scalar
from .flatness import analyze
from .reporting import (
    AnalysisReport,
    equilibrium_singularity_warnings,
    point_check,
    render_json,
    render_text,
)
from .systems import AdaptedChartHint, DiscreteSystem, build_adapted_chart

_SECTIONS = ("name", "states", "inputs", "dynamics", "equilibrium", "hints")


@dataclass
class SystemFile:
    """Parsed content of a system definition file."""

    name: str = ""
    states: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    equations: dict = field(default_factory=dict)   # state -> Scalar
    equilibrium: dict = field(default_factory=dict)
    xi_hint: list = field(default_factory=list)
    inverse_hint: dict = field(default_factory=dict)
    integral_hints: list = field(default_factory=list)


def _parse_rational(text: str, lineno: int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text!r}", line=lineno)


def _expr(text: str, lineno: int) -> Scalar:
    try:
        return parse_scalar(text)
    except NonRationalExpression as exc:
        raise NonRationalExpression(str(exc), line=lineno) from None
    except ParseError as exc:
        raise ParseError(str(exc), line=lineno) from None


def parse_system_file(path) -> SystemFile:
    """Parse the line-oriented format with sections name/states/inputs/
    dynamics/equilibrium/hints; errors carry line positions."""
    text = Path(path).read_text(encoding="utf-8")
    sf = SystemFile()
    section = None
    eq_tokens: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        head, _, rest = stripped.partition(":")
        if head.strip() in _SECTIONS and _looks_like_header(line):
            section = head.strip()
            rest = rest.strip()
            if not rest:
                continue
            if section == "name":
                sf.name = rest
            elif section == "states":
                sf.states = rest.split()
            elif section == "inputs":
                sf.inputs = rest.split()
            elif section == "equilibrium":
                eq_tokens.append((rest, lineno))
            elif section in ("dynamics", "hints"):
                _parse_body_line(sf, section, rest, lineno)
            continue
        if section is None:
            raise ParseError(f"content before any section: {stripped!r}",
                             line=lineno)
        if section == "equilibrium":
            eq_tokens.append((stripped, lineno))
        elif section in ("dynamics", "hints"):
            _parse_body_line(sf, section, stripped, lineno)
        elif section == "states":
            sf.states.extend(stripped.split())
        elif section == "inputs":
            sf.inputs.extend(stripped.split())
        else:
            raise ParseError(f"unexpected continuation line under "
                             f"{section!r}", line=lineno)

    if not sf.states:
        raise ParseError("missing states: declaration")
    if not sf.inputs:
        raise ParseError("missing inputs: declaration")
    missing = [x for x in sf.states if x not in sf.equations]
    if missing:
        raise ParseError(f"missing dynamics for {', '.join(missing)}")
    extra = [x for x in sf.equations if x not in sf.states]
    if extra:
        raise ParseError(f"dynamics given for undeclared states: "
                         f"{', '.join(extra)}")
    _assemble_equilibrium(sf, eq_tokens)
    return sf


def _looks_like_header(line: str) -> bool:
    # headers start at column zero; indented "xi: ..." lines inside hints
    # would otherwise shadow sections
    return not line[:1].isspace()


def _parse_body_line(sf: SystemFile, section: str, stripped: str, lineno: int):
    if section == "dynamics":
        lhs, sep, rhs = stripped.partition("=")
        lhs = lhs.strip()
        if not sep or not lhs.endswith("+"):
            raise ParseError("dynamics lines read '<state>+ = <expression>'",
                             line=lineno)
        state = lhs[:-1].strip()
        if state in sf.equations:
            raise ParseError(f"duplicate dynamics for {state}", line=lineno)
        sf.equations[state] = _expr(rhs.strip(), lineno)
        return
    # hints
    key, sep, rest = stripped.partition(":")
    if not sep:
        key, sep, rest = stripped.partition("=")
        if not sep:
            raise ParseError("hint lines read 'xi: ...', 'inverse: v = expr' "
                             "or 'integral: expr'", line=lineno)
    key = key.strip()
    rest = rest.strip()
    if key == "xi":
        sf.xi_hint = rest.replace(",", " ").split()
    elif key == "inverse":
        var, sep2, expr = rest.partition("=")
        if not sep2:
            raise ParseError("inverse hint reads 'inverse: v = expression'",
                             line=lineno)
        sf.inverse_hint[var.strip()] = _expr(expr.strip(), lineno)
    elif key == "integral":
        sf.integral_hints.append(_expr(rest, lineno))
    else:
        raise ParseError(f"unknown hint {key!r}", line=lineno)


def _assemble_equilibrium(sf: SystemFile, eq_tokens: list):
    names = sf.states + sf.inputs
    named: dict = {}
    positional: list = []
    for chunk, lineno in eq_tokens:
        for tok in chunk.replace(",", " ").split():
            if "=" in tok:
                var, _, val = tok.partition("=")
                if var not in names:
                    raise ParseError(f"equilibrium for undeclared variable "
                                     f"{var!r}", line=lineno)
                named[var] = _parse_rational(val, lineno)
            else:
                positional.append(_parse_rational(tok, lineno))
    if named and positional:
        raise ParseError("mix of named and positional equilibrium values")
    if positional:
        if len(positional) != len(names):
            raise ParseError(f"equilibrium needs {len(names)} values "
                             f"(states then inputs), got {len(positional)}")
        sf.equilibrium = dict(zip(names, positional))
    elif named:
        missing = [v for v in names if v not in named]
        if missing:
            raise ParseError(f"equilibrium missing values for "
                             f"{', '.join(missing)}")
        sf.equilibrium = named
    else:
        raise ParseError("missing equilibrium: declaration")


def parse_system(path, chart_hint: list | None = None,
                 integrals_hint: list | None = None):
    """File to validated DiscreteSystem (+ parsed auxiliary content);
    submersivity and the equilibrium condition are checked on construction."""
    sf = parse_system_file(path)
    if chart_hint:
        sf.xi_hint = list(chart_hint)
    if integrals_hint is not None:
        sf.integral_hints = [parse_scalar(s) for s in integrals_hint]
    # the hints are read only when the first-integral search fails, so a
    # bad one is rejected here rather than passed over in silence
    for g in sf.integral_hints:
        extra = sorted(g.vars() - set(sf.states))
        if extra:
            raise HintInvalid(
                f"integral hint {g} is not a function of the states: it "
                f"mentions {', '.join(extra)}",
                hint=f"the states are {', '.join(sf.states)}")
    hint = None
    if sf.xi_hint or sf.inverse_hint:
        hint = AdaptedChartHint(h_vars=tuple(sf.xi_hint),
                                inverse=sf.inverse_hint or None)
    system = DiscreteSystem(sf.states, sf.inputs,
                            [sf.equations[x] for x in sf.states],
                            sf.equilibrium, name=sf.name or Path(path).stem,
                            hints=hint)
    return system, sf


# -------------------------------------------------------------------- cli

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first run and reused: parsing
    leaves it unchanged, and a process may run many analyses."""
    ap = argparse.ArgumentParser(
        prog="dtflat",
        description="Exact forward-flatness analysis of discrete-time "
                    "systems: distribution and codistribution tests, "
                    "duality verification, triangular decomposition.")
    ap.add_argument("file", help="system definition file")
    ap.add_argument("--test", choices=("distribution", "codistribution",
                                       "both"), default="both",
                    help="which test to run; with both, the duality "
                         "verifier checks one against the other")
    ap.add_argument("--decompose", action="store_true",
                    help="compute the triangular decomposition cascade")
    ap.add_argument("--json", metavar="PATH",
                    help="write the structured report to PATH")
    ap.add_argument("--max-iterations", type=int, default=None, metavar="K",
                    help="iteration budget (default: n+m+1)")
    ap.add_argument("--point-check", action="store_true",
                    help="compare generic ranks with ranks at a sampled "
                         "rational point near the equilibrium")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the point sampler (never affects the "
                         "verdict)")
    ap.add_argument("--chart-hint", metavar="VARS",
                    help="comma-separated xi coordinate selection, "
                         "e.g. 'x1,x3'")
    ap.add_argument("--integrals-hint", metavar="EXPRS",
                    help="semicolon-separated first integrals for the "
                         "decomposition, e.g. 'x1;x3;x2+3*x4'; used only "
                         "when the automatic search fails")
    return ap


def run(argv: list) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.max_iterations is not None and args.max_iterations < 1:
        ap.error(f"--max-iterations must be at least 1, "
                 f"not {args.max_iterations}")
    clear_memo()
    try:
        chart_hint = (args.chart_hint.replace(",", " ").split()
                      if args.chart_hint else None)
        integrals_hint = ([s for s in args.integrals_hint.split(";") if s.strip()]
                          if args.integrals_hint else None)
        system, sf = parse_system(args.file, chart_hint, integrals_hint)

        chart = build_adapted_chart(system)
        verdict = analyze(system, chart, max_iterations=args.max_iterations,
                          test=args.test)

        cascade = None
        if args.decompose and verdict.flat:
            cascade = decompose_cascade(
                system, verdict, integral_hints=sf.integral_hints or None)

        options = {
            "test": args.test,
            "verify_duality": args.test == "both",
            "decompose": bool(args.decompose),
            "max_iterations": (args.max_iterations
                               if args.max_iterations is not None
                               else system.n + system.m + 1),
            "point_check": bool(args.point_check),
            "seed": args.seed,
        }
        report = AnalysisReport(system=system, options=options, chart=chart,
                                verdict=verdict, cascade=cascade)
        report.warnings.extend(system.warnings)
        if args.decompose and not verdict.flat:
            report.warnings.append(
                "decomposition skipped: the system is not forward-flat"
                if verdict.flat is not None else
                "decomposition skipped: the tests did not converge")
        report.warnings.extend(equilibrium_singularity_warnings(report))
        if args.point_check:
            report.warnings.extend(point_check(report, args.seed))

        # render both reports and write the file before stdout, so that a
        # failed write leaves no report behind it
        text = render_text(report)
        if args.json:
            Path(args.json).write_text(render_json(report), encoding="utf-8")
        _sys.stdout.write(text)
        return 0
    except DtflatError as exc:
        _sys.stderr.write(f"dtflat: error: {exc}\n")
        if getattr(exc, "hint", None):
            _sys.stderr.write(f"dtflat: hint: {exc.hint}\n")
        return 1
    except OSError as exc:
        _sys.stderr.write(f"dtflat: error: {exc}\n")
        return 1
    finally:
        # a run starts and ends with an empty memo, like a fresh process
        clear_memo()


def main() -> None:
    raise SystemExit(run(_sys.argv[1:]))


if __name__ == "__main__":
    main()
