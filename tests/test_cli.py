"""Front end: file parsing, flag handling, exit codes, determinism."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from dtflat.cli import parse_system, parse_system_file, run
from dtflat.errors import (
    EquilibriumMismatch,
    EvalSingular,
    NonRationalExpression,
    ParseError,
    SubmersivityFailed,
)
from dtflat.reporting import point_check

DATA = Path(__file__).parent / "data"

ACADEMIC = DATA / "academic4.sys"
NONFLAT = DATA / "nonflat2.sys"
CHAIN = DATA / "chain2.sys"
GOLDEN = DATA / "golden"


def write(tmp_path, text, name="sys.sys"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestFileParsing:
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

    def test_exit_nonzero_on_error(self, tmp_path, capsys):
        p = write(tmp_path, "states: x1\ninputs: u1\ndynamics:\n"
                            "  x1+ = sin(x1)\nequilibrium: 0 0\n")
        assert run([str(p)]) == 1
        assert "error" in capsys.readouterr().err

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

    def test_json_byte_identical_across_runs(self, tmp_path, capsys):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert run([str(ACADEMIC), "--decompose", "--json", str(p1)]) == 0
        first_text = capsys.readouterr().out
        assert run([str(ACADEMIC), "--decompose", "--json", str(p2)]) == 0
        second_text = capsys.readouterr().out
        assert p1.read_bytes() == p2.read_bytes()
        assert first_text == second_text

    @pytest.mark.parametrize("name, path, flags", [
        ("rat4", GOLDEN / "rat4.sys", []),
        ("nlchain5", GOLDEN / "nlchain5.sys", []),
        ("academic4-decompose", ACADEMIC, ["--decompose"]),
        ("mixed2-decompose", DATA / "mixed2.sys", ["--decompose"]),
        ("nonflat2-decompose", DATA / "nonflat2.sys", ["--decompose"]),
        ("academic4-distribution-decompose", ACADEMIC,
         ["--test", "distribution", "--decompose"]),
        ("academic4-codistribution-decompose", ACADEMIC,
         ["--test", "codistribution", "--decompose"]),
    ])
    def test_reports_match_golden(self, tmp_path, capsys, name, path, flags):
        # tests/data/golden/NAME.txt and NAME.json are the text and --json
        # reports of `dtflat PATH FLAGS --json NAME.json`, kept byte for byte
        out_path = tmp_path / "report.json"
        assert run([str(path), *flags, "--json", str(out_path)]) == 0
        text = capsys.readouterr().out.encode("utf-8")
        assert text == (GOLDEN / f"{name}.txt").read_bytes()
        assert out_path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()

    def test_decomposition_independent_of_test(self, tmp_path):
        # the cascade takes P_2 from the codistribution test when it ran
        # and as the annihilator of E_1 otherwise, with the same result
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

    def test_integrals_hint_flag(self, capsys):
        assert run([str(ACADEMIC), "--decompose", "--integrals-hint",
                    "x1;x3;x2+3*x4"]) == 0

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

    @pytest.mark.parametrize("test", ["both", "codistribution",
                                      "distribution"])
    def test_decompose_builds_six_charts(self, monkeypatch, test):
        # one chart for the analysis, and at each of the three levels one
        # for _check_straightened; levels 2 and 3 build one for their
        # codistribution step, level 1 takes P_2 from whichever test ran
        import dtflat.cli as cli
        import dtflat.decompose as decompose
        import dtflat.flatness as flatness
        import dtflat.systems as systems
        real = systems.build_adapted_chart
        calls = []

        def counting(sys, *args, **kwargs):
            calls.append(sys.name)
            return real(sys, *args, **kwargs)

        for module in (cli, decompose, flatness, systems):
            monkeypatch.setattr(module, "build_adapted_chart", counting)
        assert run([str(ACADEMIC), "--test", test, "--decompose"]) == 0
        assert len(calls) == 6, calls

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
