"""Front end: file parsing, flag handling, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from dtflat.cli import main, parse_system, parse_system_file, run
from dtflat.errors import (
    DualityViolation,
    EquilibriumMismatch,
    EvalSingular,
    HintInvalid,
    NonRationalExpression,
    ParseError,
    SubmersivityFailed,
)
from dtflat.exprs import Scalar
from dtflat.reporting import equilibrium_singularity_warnings, point_check

DATA = Path(__file__).parent / "data"

ACADEMIC = DATA / "academic4.sys"
NONFLAT = DATA / "nonflat2.sys"
CHAIN = DATA / "chain2.sys"
GOLDEN = DATA / "golden"
WORKFLOW = DATA.parent.parent / ".github" / "workflows" / "tests.yml"


# (name, input, flags) of tests/data/golden/NAME.txt and NAME.json, the
# text and --json reports of `dtflat PATH FLAGS --json NAME.json`
GOLDENS = [
    ("rat4", GOLDEN / "rat4.sys", []),
    ("nlchain5", GOLDEN / "nlchain5.sys", []),
    ("academic4-decompose", ACADEMIC, ["--decompose"]),
    ("mixed2-decompose", DATA / "mixed2.sys", ["--decompose"]),
    ("nonflat2-decompose", DATA / "nonflat2.sys", ["--decompose"]),
    ("academic4-distribution-decompose", ACADEMIC,
     ["--test", "distribution", "--decompose"]),
    ("academic4-codistribution-decompose", ACADEMIC,
     ["--test", "codistribution", "--decompose"]),
    ("nlchain8", GOLDEN / "nlchain8.sys", []),
    ("rat5", GOLDEN / "rat5.sys", []),
    ("nlchain5-decompose", GOLDEN / "nlchain5.sys", ["--decompose"]),
    ("rat4-decompose", GOLDEN / "rat4.sys", ["--decompose"]),
    ("pointrank", GOLDEN / "pointrank.sys", []),
    ("lcden", GOLDEN / "lcden.sys", ["--decompose"]),
    ("rat6", GOLDEN / "rat6.sys", []),
    ("rat4-distribution", GOLDEN / "rat4.sys", ["--test", "distribution"]),
]


RAT7_JSON_SHA256 = \
    "0e09e5c2c261b5e7429ae45bc4437b81d5a064ee7a218f085ec0fc0540c27eff"
NLCHAIN16_JSON_SHA256 = \
    "cd97a700a3549ff53a3414b698b4f6d86c47d6a43922c024ed097a53370664fa"


def rat_text(n: int) -> str:
    """The .sys text of the rational tower x_i+ = x_{i+1}/(1 + x_i^2),
    x_n+ = u1*(1 + x1), laid out as tests/data/golden/rat*.sys."""
    dynamics = [f"  x{i}+ = x{i + 1}/(1 + x{i}^2)" for i in range(1, n)]
    dynamics.append(f"  x{n}+ = u1*(1 + x1)")
    return "\n".join([
        f"name: rat{n}",
        "states: " + " ".join(f"x{i}" for i in range(1, n + 1)),
        "inputs: u1",
        "dynamics:",
        *dynamics,
        "equilibrium: " + " ".join(["0"] * (n + 1)),
    ]) + "\n"


def nlchain_text(n: int) -> str:
    """The .sys text of the polynomial chain x_i+ = x_{i+1} + x1*x_i,
    x_n+ = u1 + x1^2, laid out as tests/data/golden/nlchain*.sys."""
    dynamics = [f"  x{i}+ = x{i + 1} + x1*x{i}" for i in range(1, n)]
    dynamics.append(f"  x{n}+ = u1 + x1^2")
    return "\n".join([
        f"name: nlchain{n}",
        "states: " + " ".join(f"x{i}" for i in range(1, n + 1)),
        "inputs: u1",
        "dynamics:",
        *dynamics,
        "equilibrium: " + " ".join(["0"] * (n + 1)),
    ]) + "\n"


def assert_golden(tmp_path, capsys, name, path, flags):
    out_path = tmp_path / "report.json"
    assert run([str(path), *flags, "--json", str(out_path)]) == 0
    text = capsys.readouterr().out.encode("utf-8")
    assert text == (GOLDEN / f"{name}.txt").read_bytes()
    assert out_path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def write(tmp_path, text, name="sys.sys"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


_STATES = "states: x1\n"
_INPUTS = "inputs: u1\n"
_DYNAMICS = "dynamics:\n  x1+ = u1\n"
_EQUILIBRIUM = "equilibrium: 0 0\n"
_HEAD = _STATES + _INPUTS + _DYNAMICS

# (file text, the ParseError's message): one case per message
PARSE_ERRORS = {
    "not-rational": (_HEAD + "equilibrium: x1=a u1=0\n",
                     "line 5: not a rational number: 'a'"),
    "zero-denominator": (_HEAD + "equilibrium: 1/0 0\n",
                         "line 5: not a rational number: '1/0'"),
    "before-any-section": ("x1\n" + _HEAD + _EQUILIBRIUM,
                           "line 1: content before any section: 'x1'"),
    "continuation": ("name:\n  chain\n" + _HEAD + _EQUILIBRIUM,
                     "line 2: unexpected continuation line under 'name'"),
    "no-states": (_INPUTS + _DYNAMICS + _EQUILIBRIUM,
                  "missing states: declaration"),
    "no-inputs": (_STATES + _DYNAMICS + _EQUILIBRIUM,
                  "missing inputs: declaration"),
    "undeclared-dynamics": (_HEAD + "  x2+ = u1\n" + _EQUILIBRIUM,
                            "dynamics given for undeclared states: x2"),
    "dynamics-line": (_STATES + _INPUTS + "dynamics:\n  x1 = u1\n"
                      + _EQUILIBRIUM,
                      "line 4: dynamics lines read '<state>+ = "
                      "<expression>'"),
    "duplicate-dynamics": (_HEAD + "  x1+ = u1\n" + _EQUILIBRIUM,
                           "line 5: duplicate dynamics for x1"),
    "hint-line": (_HEAD + _EQUILIBRIUM + "hints:\n  xi x1\n",
                  "line 7: hint lines read 'xi: ...', 'inverse: v = expr' "
                  "or 'integral: expr'"),
    "inverse-line": (_HEAD + _EQUILIBRIUM + "hints:\n  inverse: x1\n",
                     "line 7: inverse hint reads 'inverse: v = expression'"),
    "unknown-hint": (_HEAD + _EQUILIBRIUM + "hints:\n  chart: x1\n",
                     "line 7: unknown hint 'chart'"),
    "undeclared-equilibrium": (_HEAD + "equilibrium: x1=0 u1=0 w=0\n",
                               "line 5: equilibrium for undeclared variable "
                               "'w'"),
    "equilibrium-mix": (_HEAD + "equilibrium: x1=0 0\n",
                        "mix of named and positional equilibrium values"),
    "equilibrium-missing-value": (_HEAD + "equilibrium: x1=0\n",
                                  "equilibrium missing values for u1"),
    "no-equilibrium": (_HEAD, "missing equilibrium: declaration"),
}


class TestFileParsing:
    @pytest.mark.parametrize("name", list(PARSE_ERRORS))
    def test_parse_error(self, tmp_path, name):
        text, message = PARSE_ERRORS[name]
        with pytest.raises(ParseError) as err:
            parse_system_file(write(tmp_path, text))
        assert str(err.value) == message

    def test_continuation_and_inline_forms(self, tmp_path):
        # a section's first entry may share its header line, states,
        # inputs and the equilibrium may go on over indented lines, and a
        # hint may read key = value
        sf = parse_system_file(write(tmp_path, """
name: forms
states: x1
  x2
inputs:
  u1
dynamics: x1+ = x2
  x2+ = u1
equilibrium:
  x1=0
  x2=0 u1=0
hints: xi = x2
  inverse = x1 = th2
  integral = x1
"""))
        assert (sf.states, sf.inputs, sf.xi_hint) == (["x1", "x2"], ["u1"],
                                                      ["x2"])
        assert sf.equations == {"x1": Scalar.var("x2"), "x2": Scalar.var("u1")}
        assert sf.equilibrium == {"x1": 0, "x2": 0, "u1": 0}
        assert sf.inverse_hint == {"x1": Scalar.var("th2")}
        assert sf.integral_hints == [Scalar.var("x1")]

    def test_repeated_headers(self, tmp_path):
        # a states or inputs header with names replaces the list, an empty
        # one keeps it; dynamics and equilibrium lines accumulate
        sf = parse_system_file(write(tmp_path, """
states: w
states: x1
inputs: u1
inputs:
  u2
dynamics: x1+ = u1
equilibrium: x1=0
dynamics:
equilibrium: u1=0 u2=0
"""))
        assert (sf.states, sf.inputs) == (["x1"], ["u1", "u2"])
        assert sf.equations == {"x1": Scalar.var("u1")}
        assert sf.equilibrium == {"x1": 0, "u1": 0, "u2": 0}

    def test_academic_file(self):
        system, sf = parse_system(ACADEMIC)
        assert system.n == 4 and system.m == 2
        assert system.name == "academic4"
        assert system.state_names == ("x1", "x2", "x3", "x4")

    def test_single_equation_file(self, tmp_path):
        p = write(tmp_path, """
states: x1
inputs: u1
dynamics:
  x1+ = x1 + u1
equilibrium: 0 0
""")
        system, _ = parse_system(p)
        assert system.n == 1 and system.m == 1

    def test_named_equilibrium(self):
        system, _ = parse_system(NONFLAT)
        assert system.equilibrium["x2"] == 0

    def test_sin_rejected(self, tmp_path):
        p = write(tmp_path, """
states: x1
inputs: u1
dynamics:
  x1+ = sin(x1) + u1
equilibrium: 0 0
""")
        with pytest.raises(NonRationalExpression):
            parse_system(p)

    def test_error_carries_line(self, tmp_path):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = x1 + $\nequilibrium: 0 0\n")
        with pytest.raises(ParseError) as err:
            parse_system(p)
        assert err.value.line == 4

    def test_missing_dynamics(self, tmp_path):
        p = write(tmp_path, "states: x1 x2\ninputs: u1\ndynamics:\n"
                            "  x1+ = x2\nequilibrium: 0 0 0\n")
        with pytest.raises(ParseError) as err:
            parse_system(p)
        assert "x2" in str(err.value)

    def test_wrong_equilibrium_count(self, tmp_path):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = x1 + u1\nequilibrium: 0\n")
        with pytest.raises(ParseError):
            parse_system(p)

    def test_equilibrium_mismatch(self, tmp_path):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = x1 + u1 + 1\nequilibrium: 0 0\n")
        with pytest.raises(EquilibriumMismatch):
            parse_system(p)

    def test_submersivity_failure(self, tmp_path):
        p = write(tmp_path, "states: x1 x2\ninputs: u1\ndynamics:\n"
                            "  x1+ = u1\n  x2+ = 2*u1\nequilibrium: 0 0 0\n")
        with pytest.raises(SubmersivityFailed):
            parse_system(p)

    def test_hints_parsed(self, tmp_path):
        p = write(tmp_path, """
states: x1 x2
inputs: u1
dynamics:
  x1+ = x2
  x2+ = u1
equilibrium: 0 0 0
hints:
  xi: x2
  integral: x1
""")
        sf = parse_system_file(p)
        assert sf.xi_hint == ["x2"]
        assert len(sf.integral_hints) == 1

    def test_comments_and_blank_lines(self, tmp_path):
        p = write(tmp_path, """
# a comment
states: x1   # trailing comment
inputs: u1

dynamics:
  x1+ = x1 + u1  # another
equilibrium: 0 0
""")
        system, _ = parse_system(p)
        assert system.n == 1

    def test_rational_equilibrium(self, tmp_path):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = x1*u1 + x1/2\n"
                            "equilibrium: x1=1 u1=1/2\n")
        system, _ = parse_system(p)
        from fractions import Fraction
        assert system.equilibrium["u1"] == Fraction(1, 2)


class TestRun:
    def test_exit_zero_flat(self, capsys):
        assert run([str(ACADEMIC)]) == 0
        out = capsys.readouterr().out
        assert "forward-flat: YES" in out
        assert "duality verified: True" in out

    def test_exit_zero_nonflat(self, capsys):
        assert run([str(NONFLAT)]) == 0
        out = capsys.readouterr().out
        assert "forward-flat: NO" in out

    def test_parser_built_on_first_run_and_reused(self, capsys):
        import dtflat.cli as cli
        src = Path(cli.__file__).resolve().parents[1]
        code = ("import dtflat.cli as c; "
                "print(c._build_parser.cache_info().currsize)")
        fresh = subprocess.run([sys.executable, "-c", code], cwd=src,
                               capture_output=True, text=True, check=True)
        assert fresh.stdout.split() == ["0"]  # not built at import
        cli._build_parser.cache_clear()
        assert run([str(NONFLAT)]) == 0
        assert run([str(ACADEMIC), "--test", "distribution"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        out = capsys.readouterr().out
        assert "forward-flat: NO" in out and "forward-flat: YES" in out

    def test_exit_nonzero_on_error(self, tmp_path, capsys):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = sin(x1)\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("states, inputs, dynamics, named", [
        ("th1", "u1", "th1+ = u1", "th1"),
        ("x1", "u1", "x1+ = u1 + w", "w"),
        ("x1", "x1", "x1+ = x1", "x1"),
    ], ids=["reserved", "undeclared", "repeated"])
    def test_bad_variables_exit_one_without_traceback(self, tmp_path, capsys,
                                                      states, inputs,
                                                      dynamics, named):
        p = write(tmp_path, f"states: {states}\ninputs: {inputs}\n"
                            f"dynamics:\n  {dynamics}\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("dtflat: error: ")
        assert f"'{named}'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_single_test_modes(self, capsys):
        assert run([str(CHAIN), "--test", "distribution"]) == 0
        out = capsys.readouterr().out
        assert "distribution test" in out and "codistribution test" not in out
        assert run([str(CHAIN), "--test", "codistribution"]) == 0
        out = capsys.readouterr().out
        assert "codistribution test" in out

    def test_max_iterations_reports_not_converged(self, capsys):
        assert run([str(ACADEMIC), "--max-iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "NOT CONVERGED" in out

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_max_iterations_below_one_rejected(self, capsys, k):
        with pytest.raises(SystemExit) as exc:
            run([str(ACADEMIC), "--max-iterations", k])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--max-iterations must be at least 1" in captured.err
        assert captured.out == ""

    def test_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert run([str(ACADEMIC), "--decompose", "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["verdict"]["flat"] is True
        assert doc["verdict"]["kbar"] == 4
        assert doc["distribution_test"]["dims"] == [2, 3, 5, 6]
        assert doc["codistribution_test"]["dims"] == [4, 3, 1, 0]
        assert doc["duality"]["ok"] is True
        assert doc["decomposition"]["depth"] == 3
        assert doc["system"]["states"] == ["x1", "x2", "x3", "x4"]
        step1 = doc["distribution_test"]["steps"][0]
        assert step1["certificate"]["rank"] == 1
        assert len(step1["certificate"]["independent_rows"]) == 2

    def test_failed_json_write_leaves_no_report(self, tmp_path, capsys):
        # the JSON file is written before stdout, so an unwritable path
        # exits 1 like every other error: nothing on stdout
        out_path = tmp_path / "missing" / "report.json"
        assert run([str(ACADEMIC), "--json", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dtflat: error: ")
        assert "Traceback" not in captured.err
        assert not out_path.exists()

    def test_json_byte_identical_across_runs(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert run([str(ACADEMIC), "--decompose", "--json", str(p1)]) == 0
        first_text = capsys.readouterr().out
        assert run([str(ACADEMIC), "--decompose", "--json", str(p2)]) == 0
        second_text = capsys.readouterr().out
        assert p1.read_bytes() == p2.read_bytes()
        assert first_text == second_text

    @pytest.mark.parametrize("name, path, flags", GOLDENS)
    def test_reports_match_golden(self, tmp_path, capsys, name, path, flags):
        assert_golden(tmp_path, capsys, name, path, flags)

    def test_ci_goldens_job_checks_every_golden(self):
        # the goldens job repeats GOLDENS by hand, one `check NAME INPUT
        # FLAGS` line each, with INPUT under $golden or the repository
        lines = [line.split() for line in WORKFLOW.read_text().splitlines()]
        golden = next(w[0].partition("=")[2] for w in lines
                      if w[:1] and w[0].startswith("golden="))
        root = WORKFLOW.parent.parent.parent
        checks = [(name, (root / path.replace("$golden", golden)).resolve(),
                   tuple(flags))
                  for _, name, path, *flags in
                  (w for w in lines if w[:1] == ["check"])]
        assert len(set(checks)) == len(checks) == len(GOLDENS)
        assert set(checks) == {(name, path.resolve(), tuple(flags))
                               for name, path, flags in GOLDENS}

    def test_every_golden_has_an_entry(self):
        stems = {p.stem for p in GOLDEN.glob("*.txt")}
        assert stems == {p.stem for p in GOLDEN.glob("*.json")}
        assert stems == {name for name, _, _ in GOLDENS}
        assert len(GOLDENS) == len(stems)

    def test_rat7_report_digest(self, tmp_path):
        # rat7's JSON report is 161 KB, so only its sha256 is kept; the
        # tower's text is rat6.sys one level up
        assert rat_text(6) == (GOLDEN / "rat6.sys").read_text()
        out_path = tmp_path / "rat7.json"
        assert run([str(write(tmp_path, rat_text(7))),
                    "--json", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == RAT7_JSON_SHA256
        report = json.loads(data)
        assert report["distribution_test"]["dims"] == list(range(1, 9))
        assert report["codistribution_test"]["dims"] == list(range(7, -1, -1))
        assert report["verdict"]["duality_ok"] is True

    def test_nlchain16_report_digest(self, tmp_path):
        # the widest polynomial chain kept: its closures clear many rows of
        # constant and shared denominators; only the JSON's sha256 is kept
        assert nlchain_text(8) == (GOLDEN / "nlchain8.sys").read_text()
        out_path = tmp_path / "nlchain16.json"
        assert run([str(write(tmp_path, nlchain_text(16))),
                    "--json", str(out_path)]) == 0
        data = out_path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == NLCHAIN16_JSON_SHA256
        report = json.loads(data)
        assert report["distribution_test"]["dims"] == list(range(1, 18))
        assert report["codistribution_test"]["dims"] == list(range(16, -1, -1))
        assert report["verdict"]["duality_ok"] is True

    def test_goldens_replayed_in_reverse_in_one_process(self, tmp_path,
                                                        capsys):
        # the memo of products and derivatives lives for one run: nothing
        # a run leaves behind reaches the next one's report
        for name, path, flags in reversed(GOLDENS):
            assert_golden(tmp_path, capsys, name, path, flags)

    def test_memo_empty_after_a_run(self, tmp_path, capsys, monkeypatch):
        import dtflat.cli as cli
        from dtflat.exprs import _remembered
        real = cli.build_adapted_chart
        sizes = []

        def spy(sys, *args, **kwargs):
            try:
                return real(sys, *args, **kwargs)
            finally:
                sizes.append(_remembered.cache_info().currsize)

        monkeypatch.setattr(cli, "build_adapted_chart", spy)
        assert run([str(ACADEMIC)]) == 0
        assert _remembered.cache_info().currsize == 0
        # the chart inversion fails after the greedy solve has multiplied
        body = (DATA / "mixed2.sys").read_text().split("hints:")[0]
        assert run([str(write(tmp_path, body))]) == 1
        assert "hint" in capsys.readouterr().err
        assert _remembered.cache_info().currsize == 0
        assert len(sizes) == 2 and all(sizes), sizes

    def test_decomposition_independent_of_test(self, tmp_path):
        # the cascade reads the sequence P_1 .. P_kbar from the
        # codistribution test when it ran and as the annihilators of
        # E_0 .. E_{kbar-1} otherwise, with the same result
        trees = []
        for test in ("both", "codistribution", "distribution"):
            out_path = tmp_path / f"{test}.json"
            assert run([str(ACADEMIC), "--test", test, "--decompose",
                        "--json", str(out_path)]) == 0
            trees.append(json.loads(out_path.read_text())["decomposition"])
        assert trees[0]["depth"] == 3
        assert trees[1] == trees[0] and trees[2] == trees[0]

    def test_point_check_flag(self, capsys):
        assert run([str(ACADEMIC), "--point-check", "--seed", "3"]) == 0

    def test_point_check_warns_when_denominators_vanish(self):
        class Singular:
            def eval_at(self, point):
                raise EvalSingular("denominator vanishes")

        chart = SimpleNamespace(names=("x1", "u1"))
        space = SimpleNamespace(chart=chart, dim=1,
                                basis=[SimpleNamespace(coeffs=[Singular()])])
        report = SimpleNamespace(
            system=SimpleNamespace(equilibrium=None, chart=chart),
            verdict=SimpleNamespace(
                distribution=None,
                codistribution=SimpleNamespace(
                    steps=[SimpleNamespace(k=1, P=space)])))
        assert point_check(report, seed=0) == [
            "P_1: could not evaluate the basis near the equilibrium "
            "(denominators vanish)"]

    def test_point_check_warns_when_the_rank_drops(self):
        # span{dx1, (x1 - c) dx2} has dimension 2, with c the x1 of the
        # point seed 0 samples, where the rank is 1
        import random
        rng = random.Random(0)
        c = Fraction(rng.randint(1, 60), rng.randint(61, 120))
        chart = SimpleNamespace(names=("x1", "x2"))
        rows = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar.var("x1") - c]]
        space = SimpleNamespace(chart=chart, dim=2, basis=[
            SimpleNamespace(coeffs=row) for row in rows])
        report = SimpleNamespace(
            system=SimpleNamespace(equilibrium=None, chart=chart),
            verdict=SimpleNamespace(
                distribution=None,
                codistribution=SimpleNamespace(
                    steps=[SimpleNamespace(k=1, P=space)])))
        assert point_check(report, seed=0) == [
            "P_1: rank at the sampled point is 1, generic dimension is 2 "
            "(singular locus)"]

    def test_no_equilibrium_no_singularity_warnings(self):
        report = SimpleNamespace(system=SimpleNamespace(equilibrium=None))
        assert equilibrium_singularity_warnings(report) == []

    def test_seed_does_not_change_verdict(self, tmp_path):
        docs = []
        for seed in (1, 2):
            out_path = tmp_path / f"r{seed}.json"
            assert run([str(ACADEMIC), "--point-check", "--seed", str(seed),
                        "--json", str(out_path)]) == 0
            docs.append(json.loads(out_path.read_text()))
        assert docs[0]["verdict"] == docs[1]["verdict"]

    def test_chart_hint_flag(self, capsys):
        assert run([str(NONFLAT), "--chart-hint", "x2"]) == 0
        out = capsys.readouterr().out
        assert "xi = (x2)" in out

    @pytest.mark.parametrize("extra, hints, message", [
        ([], "hints:\n  inverse: x1 = th1\n",
         "an inverse hint requires the xi selection hint (the inverse is "
         "expressed in th/xi coordinates)"),
        (["--chart-hint", "x9"], "", "hinted xi variables not declared: "
         "['x9']"),
        (["--chart-hint", "x1,x2"], "", "need exactly m = 1 xi variables"),
    ], ids=["inverse-without-xi", "undeclared", "count"])
    def test_chart_hint_rejected(self, tmp_path, capsys, extra, hints,
                                 message):
        path = write(tmp_path, CHAIN.read_text(encoding="utf-8") + hints)
        assert run([str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dtflat: error: {message}\n"

    def test_main_exits_with_the_run_code(self, monkeypatch):
        for path, code in ((CHAIN, 0), (CHAIN.with_name("none.sys"), 1)):
            monkeypatch.setattr(sys, "argv", ["dtflat", str(path)])
            with pytest.raises(SystemExit) as exc:
                main()
            assert exc.value.code == code

    def test_integrals_hint_flag(self, capsys):
        assert run([str(ACADEMIC), "--decompose", "--integrals-hint",
                    "x1;x3;x2+3*x4"]) == 0

    @pytest.mark.parametrize("hint, name", [("w", "w"), ("x1;u1*x2", "u1")])
    def test_integrals_hint_off_the_states_rejected(self, capsys, hint, name):
        # the search does not need a hint on academic4, so one that is
        # never read must still be rejected before any analysis
        assert run([str(ACADEMIC), "--decompose", "--integrals-hint",
                    hint]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dtflat: error: integral hint ")
        assert f"it mentions {name}\n" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("rhs, col", [("u1 +", 5), ("", 1)],
                             ids=["dangling-operator", "empty"])
    def test_expression_cut_short_names_its_end(self, tmp_path, capsys, rhs,
                                                col):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            f"  x1+ = {rhs}\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"dtflat: error: line 4: col {col}: "
                                f"unexpected end of expression\n")

    @pytest.mark.parametrize("rhs", ["(" * 5000 + "u1" + ")" * 5000,
                                     "-" * 5000 + "u1"],
                             ids=["parentheses", "signs"])
    def test_deep_expression_exits_one_without_traceback(self, tmp_path,
                                                         capsys, rhs):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            f"  x1+ = {rhs}\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("dtflat: error: line 4: expression nested "
                                "too deeply\n")

    def test_file_not_utf8_exits_one_without_traceback(self, tmp_path,
                                                       capsys):
        p = tmp_path / "latin1.sys"
        p.write_bytes(b"states: x1\r\ninputs: u1\n\ndynamics:\n"
                      b"  x1+ = u1  # caf\xe9\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("dtflat: error: line 5: not UTF-8 text: "
                                "invalid continuation byte at byte 51\n")

    def test_integrals_hint_cut_short_names_its_end(self, capsys):
        assert run([str(ACADEMIC), "--decompose", "--integrals-hint",
                    "x1+"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("dtflat: error: col 4: unexpected end of "
                                "expression\n")

    def test_integral_hint_in_file_off_the_states_rejected(self, tmp_path):
        text = ACADEMIC.read_text(encoding="utf-8") + "hints:\n  integral: u2\n"
        with pytest.raises(HintInvalid, match="it mentions u2"):
            parse_system(write(tmp_path, text))

    def test_unneeded_integrals_hint_leaves_report_unchanged(self, tmp_path,
                                                             capsys):
        reports = []
        for extra in ([], ["--integrals-hint", "x1;x3;x2+3*x4"]):
            out_path = tmp_path / "report.json"
            assert run([str(ACADEMIC), "--decompose", *extra,
                        "--json", str(out_path)]) == 0
            reports.append((capsys.readouterr(), out_path.read_bytes()))
        assert reports[1] == reports[0]

    def test_decompose_deep_cascade_avoids_reserved_names(self, tmp_path):
        # level 8 of the cascade must not take the reserved prefix xi
        n = 9
        states = [f"x{i}" for i in range(1, n + 1)]
        dynamics = "\n".join(f"  x{i}+ = x{i + 1}" for i in range(1, n)) \
            + f"\n  x{n}+ = u1\n"
        path = write(tmp_path, f"name: chain{n}\nstates: {' '.join(states)}\n"
                     f"inputs: u1\ndynamics:\n{dynamics}"
                     f"equilibrium: {' '.join(['0'] * (n + 1))}\n")
        out_path = tmp_path / "report.json"
        assert run([str(path), "--decompose", "--json", str(out_path)]) == 0
        cascade = json.loads(out_path.read_text())["decomposition"]
        assert cascade["blocked"] is None
        assert cascade["depth"] == n

    @pytest.mark.parametrize("dynamics, inputs, blocked, kept", [
        # u1 and u2 enter only through their sum: level 1 is refused
        (["x2 + u1 + u2", "u1 + u2"], "u1 u2",
         "the normalization route requires generic rank m = 2 of the input "
         "Jacobian; it is 1", []),
        # academic4 with u1 + 2*u2 squared in the first row: ub1 = that row
        # is quadratic in u2, the input left once ub2 = u1 is solved
        (["(x2 + x3 + 3*x4)/((u1 + 2*u2)^2 + 1)",
          "x1*(x3 + 1)*(u1 + 2*u2 - 3) + x4 - 3*u2", "u1 + 2*u2",
          "x1*(x3 + 1) + u2"], "u1 u2",
         "could not invert the input transformation by triangular linear "
         "solves", []),
    ])
    def test_decompose_blocked_cascade(self, tmp_path, capsys, dynamics,
                                       inputs, blocked, kept):
        depth = len(kept)
        n = len(dynamics)
        states = " ".join(f"x{i}" for i in range(1, n + 1))
        rows = "".join(f"  x{i}+ = {g}\n"
                       for i, g in enumerate(dynamics, start=1))
        zeros = " ".join(["0"] * (n + len(inputs.split())))
        path = write(tmp_path, f"name: blocked\nstates: {states}\n"
                     f"inputs: {inputs}\ndynamics:\n{rows}"
                     f"equilibrium: {zeros}\n")
        out_path = tmp_path / "report.json"
        assert run([str(path), "--decompose", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "forward-flat: YES" in out
        assert (f"-- triangular decomposition: depth {depth} "
                f"(blocked: {blocked})\n") in out
        for i, dims in enumerate(kept, start=1):
            assert (f"  step {i}: dim(x2, x1, u2, u1) = "
                    f"{tuple(dims.values())}\n") in out
        assert f"  step {depth + 1}: " not in out
        cascade = json.loads(out_path.read_text())["decomposition"]
        assert cascade["blocked"] == blocked
        assert cascade["depth"] == depth
        assert [step["dims"] for step in cascade["steps"]] == kept
        assert all(not step["terminal"] for step in cascade["steps"])

    def test_decompose_completes_by_a_later_coordinate(self, tmp_path,
                                                       capsys):
        # level 2 completes the integral xb1 + xb2^2 by xb1 first, a map no
        # triangular linear solve inverts; the next completion, by xb2,
        # inverts, and the cascade goes on to a terminal step
        path = write(tmp_path, "name: later\nstates: x1 x2 x3\ninputs: u1\n"
                     "dynamics:\n  x1+ = x2 - x3^2\n  x2+ = x3\n  x3+ = u1\n"
                     "equilibrium: 0 0 0 0\n")
        out_path = tmp_path / "report.json"
        assert run([str(path), "--decompose", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "-- triangular decomposition: depth 3\n" in out
        assert ("  step 2: dim(x2, x1, u2, u1) = (1, 1, 0, 1)\n"
                "    xc1 = xb2^2 + xb1\n    xc2 = xb2\n") in out
        cascade = json.loads(out_path.read_text())["decomposition"]
        assert cascade["blocked"] is None and cascade["depth"] == 3
        assert [step["terminal"] for step in cascade["steps"]] == \
            [False, False, True]
        assert cascade["steps"][1]["state_transform"] == \
            [["xc1", "xb2^2 + xb1"], ["xc2", "xb2"]]

    def test_decompose_on_nonflat_warns(self, capsys):
        assert run([str(NONFLAT), "--decompose"]) == 0
        out = capsys.readouterr().out
        assert "decomposition skipped" in out

    @pytest.mark.parametrize("flag", ["--verify-duality",
                                      "--no-verify-duality"])
    def test_duality_verifier_has_no_switch(self, capsys, flag):
        # the verifier runs whenever both tests do; argparse rejects a flag
        # that would turn it on or off
        with pytest.raises(SystemExit) as exc:
            run([str(CHAIN), flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_duality_failure_exits_one_without_report(self, monkeypatch,
                                                      capsys):
        import dtflat.flatness as flatness

        def failing(sys, dres, pres):
            raise DualityViolation("a basis pairing of E_0 with P_1 is "
                                   "nonzero", k=1, check="pairing")

        monkeypatch.setattr(flatness, "verify_duality", failing)
        assert run([str(ACADEMIC)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("dtflat: error: a basis pairing of E_0 "
                                "with P_1 is nonzero\n")
        assert captured.out == ""

    @pytest.mark.parametrize("test", ["both", "codistribution",
                                      "distribution"])
    def test_decompose_builds_one_chart(self, monkeypatch, test):
        # one chart for the analysis and none for the cascade: every level
        # takes P_2 from the sequence of whichever test ran, and neither
        # the straightening check nor the check of a carried P_2 needs a
        # chart
        import dtflat.cli as cli
        import dtflat.flatness as flatness
        import dtflat.systems as systems
        real = systems.build_adapted_chart
        calls = []

        def counting(sys, *args, **kwargs):
            calls.append(sys.name)
            return real(sys, *args, **kwargs)

        for module in (cli, flatness, systems):
            monkeypatch.setattr(module, "build_adapted_chart", counting)
        assert run([str(ACADEMIC), "--test", test, "--decompose"]) == 0
        assert calls == ["academic4"], calls

    @pytest.mark.parametrize("path, n", [(ACADEMIC, 4),
                                         (DATA / "mixed2.sys", 2)])
    def test_decompose_evaluates_one_point_rank(self, monkeypatch, capsys,
                                                path, n):
        # only the reported system's warnings are read: the derived
        # systems of the cascade never evaluate their Jacobian at a point
        # (mixed2's carry an equilibrium, and evaluating it there on
        # construction took three more)
        import dtflat.systems as systems
        real = systems._rank_at_point
        calls = []

        def counting(matrix, point):
            calls.append(len(matrix))
            return real(matrix, point)

        monkeypatch.setattr(systems, "_rank_at_point", counting)
        assert run([str(path), "--decompose"]) == 0
        assert "triangular decomposition" in capsys.readouterr().out
        assert calls == [n]

    def test_inversion_failure_exit_and_hint(self, tmp_path, capsys):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = x1^3 + u1^3\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        err = capsys.readouterr().err
        assert "hint" in err

    def test_inverse_hint_from_file(self, tmp_path, capsys):
        # the chart inverse needs a simultaneous 2x2 solve, beyond the
        # greedy pass; the file supplies it explicitly
        body = (DATA / "mixed2.sys").read_text()
        without_hints = body.split("hints:")[0]
        p = write(tmp_path, without_hints)
        assert run([str(p)]) == 1
        assert "hint" in capsys.readouterr().err
        assert run([str(DATA / "mixed2.sys")]) == 0
        out = capsys.readouterr().out
        assert "forward-flat: YES" in out

    def test_text_and_json_numeric_content_agree(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        assert run([str(ACADEMIC), "--json", str(out_path)]) == 0
        text = capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert f"dims {tuple(doc['distribution_test']['dims'])}" in text
        assert f"dims {tuple(doc['codistribution_test']['dims'])}" in text
        assert (f"stall step {doc['verdict']['kbar']}") in text
