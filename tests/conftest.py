import pytest

from corpus import academic4


@pytest.fixture(scope="session")
def acad():
    return academic4()


@pytest.fixture(scope="session")
def acad_chart(acad):
    # the chart keeps every projectability certificate it computes, and
    # this chart is shared by every test that uses the fixture: a test
    # that injects a fault into the transport or the certificate must
    # build its own chart, or it reads certificates computed without it
    from dtflat.systems import build_adapted_chart
    return build_adapted_chart(acad)


@pytest.fixture(scope="session")
def acad_verdict(acad, acad_chart):
    from dtflat.flatness import analyze
    return analyze(acad, acad_chart)


@pytest.fixture
def rref_calls(monkeypatch):
    """One entry per call of geometry.rref made while the test runs."""
    import dtflat.geometry as geometry
    calls = []
    real = geometry.rref

    def counting(rows):
        calls.append(1)
        return real(rows)

    monkeypatch.setattr(geometry, "rref", counting)
    return calls


@pytest.fixture
def row_operations(monkeypatch):
    """One entry per row elimination or normalization that an Echelon makes
    while the test runs, and one per column it reduces (geometry.dot)."""
    import dtflat.geometry as geometry
    ops = []

    def counting(real):
        def op(*args):
            ops.append(1)
            return real(*args)
        return op

    monkeypatch.setattr(geometry, "_eliminate", counting(geometry._eliminate))
    monkeypatch.setattr(geometry, "_normalize", counting(geometry._normalize))
    monkeypatch.setattr(geometry, "dot", counting(geometry.dot))
    return ops
