"""The result records share one keyword-only initializer (dtflat.records)."""

import pytest

from dtflat.cli import SystemFile
from dtflat.decompose import (
    CascadeResult,
    FirstIntegralSet,
    TriangularDecomposition,
)
from dtflat.flatness import (
    CodistributionStep,
    DistributionStep,
    DualityCheck,
    FlatnessVerdict,
    ProjectabilityReport,
    SequenceResult,
)
from dtflat.records import Record
from dtflat.reporting import AnalysisReport
from dtflat.systems import AdaptedChartHint

RECORDS = [SystemFile, FirstIntegralSet, TriangularDecomposition,
           CascadeResult, ProjectabilityReport, SequenceResult,
           DistributionStep, CodistributionStep, DualityCheck,
           FlatnessVerdict, AnalysisReport, AdaptedChartHint]


def blank(cls):
    return cls(**dict.fromkeys(cls.__slots__))


def test_missing_field_is_named():
    with pytest.raises(TypeError, match="DualityCheck needs the field "
                                        "'sum_dim'"):
        DualityCheck(k=1, E_dim=1, P_dim=2, D_dim=1)


def test_unknown_field_is_named():
    with pytest.raises(TypeError, match="CascadeResult has no field 'depth'"):
        CascadeResult(steps=[], blocked=None, depth=0)


def test_fields_are_keyword_only():
    with pytest.raises(TypeError):
        FirstIntegralSet([], "coordinate-pick")


def test_chart_hint_defaults():
    hint = AdaptedChartHint()
    assert (hint.h_vars, hint.inverse) == ((), None)
    hint = AdaptedChartHint(h_vars=("x1",))
    assert (hint.h_vars, hint.inverse) == (("x1",), None)


def test_only_the_chart_hint_has_defaults():
    assert [cls for cls in RECORDS if cls.defaults] == [AdaptedChartHint]
    with pytest.raises(TypeError, match="SystemFile needs the field 'name'"):
        SystemFile()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_shape(cls):
    assert cls.__init__ is Record.__init__
    a, b = blank(cls), blank(cls)
    assert not hasattr(a, "__dict__")
    assert all(getattr(a, name) is None for name in cls.__slots__)
    assert a == a and a != b        # identity, not field values
    assert len({a, b}) == 2


def test_records_take_new_values():
    check = blank(DualityCheck)
    check.k = 3
    assert check.k == 3
    with pytest.raises(AttributeError):
        check.rank = 0              # not a field


def test_projectability_report_stays_frozen():
    report = blank(ProjectabilityReport)
    with pytest.raises(AttributeError, match="ProjectabilityReport is "
                                             "frozen: cannot assign dim"):
        report.dim = 0
    assert report.dim is None
