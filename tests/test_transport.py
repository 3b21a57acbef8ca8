"""Transport of rows and codistributions into and out of the adapted
chart, checked against the row-by-row transport that substitutes every
Jacobian combination through the chart maps.  A distribution moves as
the annihilator of its moved annihilator."""

from pathlib import Path

import pytest

from corpus import academic4
from dtflat.cli import parse_system
from dtflat.errors import InternalInvariantError
from dtflat.exprs import ZERO, Scalar
from dtflat.flatness import adapted_certificate, analyze
from dtflat.geometry import (
    Codistribution,
    Distribution,
    OneForm,
    VectorField,
    annihilator,
)
from dtflat.systems import AdaptedChart, build_adapted_chart

DATA = Path(__file__).parent / "data"
FILES = {"rat4": DATA / "golden" / "rat4.sys",
         "nlchain5": DATA / "golden" / "nlchain5.sys",
         "mixed2": DATA / "mixed2.sys"}


def reference_field_to_adapted(chart, v):
    """Each component of the pushed-forward field, composed with the
    inverse map."""
    out = []
    for a in chart.chart.names:
        total = ZERO
        for b, c in zip(chart.sys.chart.names, v.coeffs):
            if not c.is_zero():
                total = total + c * chart.forward[a].diff(b)
        out.append(total.subs(chart.inverse))
    return VectorField(chart.chart, out)


def distribution_to_adapted(chart, E):
    """E written on the adapted chart, the way flatness.adapted_certificate
    moves it: as the annihilator of its moved annihilator."""
    return annihilator(chart.to_adapted(annihilator(E)))


def distribution_from_adapted(chart, E):
    return annihilator(chart.from_adapted(annihilator(E)))


def reference_form_to_adapted(chart, w):
    """Each coefficient composed with the inverse map, once per output
    column, times the differential of the inverse map."""
    out = []
    for a in chart.chart.names:
        total = ZERO
        for b, c in zip(chart.sys.chart.names, w.coeffs):
            if not c.is_zero():
                total = total + c.subs(chart.inverse) * chart.inverse[b].diff(a)
        out.append(total)
    return OneForm(chart.chart, out)


@pytest.fixture(scope="module", params=["academic4", *FILES])
def analyzed(request):
    name = request.param
    system = academic4() if name == "academic4" else parse_system(FILES[name])[0]
    chart = build_adapted_chart(system)
    return chart, analyze(system, chart)


class TestSpanTransport:
    def test_distributions_match_row_by_row(self, analyzed):
        chart, verdict = analyzed
        for step in verdict.distribution.steps:
            E = step.E_prev
            want = type(E).span(chart.chart, [
                reference_field_to_adapted(chart, v) for v in E.basis])
            assert distribution_to_adapted(chart, E).basis == want.basis

    def test_codistributions_match_row_by_row(self, analyzed):
        chart, verdict = analyzed
        for step in verdict.codistribution.steps:
            P = step.P
            want = type(P).span(chart.chart, [
                reference_form_to_adapted(chart, w) for w in P.basis])
            assert chart.to_adapted(P).basis == want.basis

    def test_round_trip_gives_back_the_span(self, analyzed):
        chart, verdict = analyzed
        for st in verdict.distribution.steps:
            E = st.E_prev
            back = distribution_from_adapted(
                chart, distribution_to_adapted(chart, E))
            assert type(back) is Distribution and back.basis == E.basis
        for st in verdict.codistribution.steps:
            back = chart.from_adapted(chart.to_adapted(st.P))
            assert type(back) is Codistribution and back.basis == st.P.basis

    def test_kept_pplus_on_original_chart(self, analyzed):
        chart, verdict = analyzed
        for step in verdict.codistribution.steps:
            assert step.Pplus_xu.basis == chart.from_adapted(step.Pplus).basis


class TestRowTransport:
    def test_form_substitutes_each_coefficient_once(self, acad, acad_chart,
                                                    monkeypatch):
        w = OneForm(acad.chart, [Scalar.var(v) + 1 for v in acad.chart.names])
        want = reference_form_to_adapted(acad_chart, w)
        calls = []
        real = Scalar.subs

        def counting(self, bindings):
            calls.append(self)
            return real(self, bindings)

        monkeypatch.setattr(Scalar, "subs", counting)
        got = acad_chart.form_to_adapted(w)
        assert got == want
        assert calls == list(w.coeffs)

    def test_field_matches_reference(self, acad, acad_chart):
        v = VectorField(acad.chart, [Scalar.var(x) for x in acad.chart.names])
        span = Distribution(acad.chart, [v])
        got = distribution_to_adapted(acad_chart, span)
        want = Distribution.span(acad_chart.chart,
                                 [reference_field_to_adapted(acad_chart, v)])
        assert got.basis == want.basis
        assert distribution_from_adapted(acad_chart, got).basis == \
            Distribution.span(acad.chart, [v]).basis

    def test_both_directions_reject_a_distribution(self, acad, acad_chart):
        # only codistributions move; a distribution moves as the
        # annihilator of its moved annihilator
        for move, chart in ((acad_chart.to_adapted, acad.chart),
                            (acad_chart.from_adapted, acad.chart_adapted)):
            span = Distribution(chart, [VectorField.unit(chart, chart.names[0])])
            with pytest.raises(ValueError, match="only codistributions"):
                move(span)


class TestTransportFault:
    @pytest.mark.parametrize("test", ["distribution", "codistribution", "both"])
    def test_faulty_form_transport_is_caught(self, monkeypatch, test):
        # both tests move spans with the same form transport, so the
        # duality verifier cannot tell a faulty one; the round trip back
        # through the forward map must
        real = AdaptedChart.form_to_adapted

        def faulty(self, w):
            c = list(real(self, w).coeffs)
            c[0] = c[0] + c[1]
            return OneForm(self.chart, c)

        monkeypatch.setattr(AdaptedChart, "form_to_adapted", faulty)
        with pytest.raises(InternalInvariantError,
                           match="into the adapted chart and back"):
            analyze(academic4(), test=test)

    @pytest.mark.parametrize("span_cls, row_cls", [
        (Codistribution, OneForm), (Distribution, VectorField)])
    def test_rank_loss_is_an_internal_error(self, acad, acad_chart,
                                            monkeypatch, span_cls, row_cls):
        monkeypatch.setattr(AdaptedChart, "form_to_adapted",
                            lambda self, w: OneForm(self.chart, [ZERO] * 6))
        span = span_cls(acad.chart, [row_cls.unit(acad.chart, "x1")])
        if span_cls is Distribution:
            span = annihilator(span)
        with pytest.raises(InternalInvariantError,
                           match="did not preserve rank"):
            acad_chart.to_adapted(span)


def _moves_into_the_chart(monkeypatch):
    """One entry per codistribution that AdaptedChart moves into the
    adapted chart while the test runs."""
    moved = []
    real = AdaptedChart._transport

    def spy(self, span, into):
        if into:
            moved.append(span)
        return real(self, span, into)

    monkeypatch.setattr(AdaptedChart, "_transport", spy)
    return moved


def _golden_system(name):
    if name == "academic4":
        return academic4()
    return parse_system(DATA / "golden" / f"{name}.sys")[0]


def _fields(record):
    """The field values of a result record, which itself compares by
    identity."""
    return tuple(getattr(record, name) for name in type(record).__slots__)


def _summary(verdict):
    """What a verdict says, in values that compare by content (spans
    and result records compare by identity)."""
    out = [verdict.flat, verdict.kbar, verdict.witness,
           [_fields(check) for check in verdict.duality]]
    for res in (verdict.distribution, verdict.codistribution):
        out.append([member.basis for member in res.sequence])
        out.append([_fields(st.report) for st in res.steps])
    return out


class TestSharedCertificate:
    # by duality the annihilator of E_{k-1} is P_k, so under both tests
    # step k moves one codistribution into the chart, not two
    @pytest.mark.parametrize("name, moves", [
        ("academic4", 4), ("nlchain8", 9), ("rat5", 6)])
    def test_each_p_k_moves_in_once(self, monkeypatch, name, moves):
        system = _golden_system(name)
        chart = build_adapted_chart(system)
        moved = _moves_into_the_chart(monkeypatch)
        verdict = analyze(system, chart, test="both")
        assert len(moved) == moves == verdict.kbar
        assert len({S.basis for S in moved}) == moves

    def test_both_tests_hold_one_certificate(self):
        system = academic4()
        verdict = analyze(system, build_adapted_chart(system))
        dres, pres = verdict.distribution, verdict.codistribution
        assert len(dres.steps) == len(pres.steps) == 4
        for estep, pstep in zip(dres.steps, pres.steps):
            assert estep.report is pstep.report

    def test_kept_certificates_do_not_change_the_verdict(self):
        system = academic4()
        chart = build_adapted_chart(system)
        first = analyze(system, chart)
        second = analyze(system, chart)
        fresh = analyze(academic4(), build_adapted_chart(academic4()))
        assert _summary(first) == _summary(second) == _summary(fresh)

    def test_certificate_follows_the_span_not_its_dimension(self):
        # spans of one dimension share a chart and must each get their own
        system = academic4()
        chart = build_adapted_chart(system)
        spans = [Codistribution(system.chart, [
            OneForm.unit(system.chart, x) for x in names])
            for names in (("x1", "x2", "x3", "x4"), ("x1", "x2", "x3", "u1"),
                          ("x2", "x3", "x4", "u2"), ("x1", "u1", "u2", "x4"))]
        for P in spans:
            adapted_certificate(chart, P)
        moved = []
        for P in spans:
            kept = adapted_certificate(chart, P)
            fresh = adapted_certificate(build_adapted_chart(system), P)
            assert kept[0].basis == fresh[0].basis
            assert kept[1].basis == fresh[1].basis
            assert _fields(kept[2]) == _fields(fresh[2])
            moved.append(kept[0].basis)
        assert len(set(moved)) == len(spans)
