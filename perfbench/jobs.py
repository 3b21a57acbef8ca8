"""Benchmark workloads: the jobs of each workload, their input files and the
known answers they are checked against.

Every known answer comes from how the system was built, or from the goldens
in ``tests/``, never from a dtflat run:

* towers and chains are flat with distribution dims ``[1..n+1]`` and
  codistribution dims ``[n..0]``;
* academic4, nonflat2 and nonflat3 match the goldens of the test suite;
* mimo3, mixed2 and the random draws of ``tests/corpus.py`` are flat by
  construction, so the sequences end at ``n+m`` and ``0``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dtflat.errors import InversionFailed
from dtflat.exprs import parse_scalar
from dtflat.systems import build_adapted_chart


@dataclass(frozen=True)
class Expect:
    """Known answer of one job, checked against its JSON report."""

    flat: bool
    dist_dims: tuple | None = None      # whole sequence, when known
    codist_dims: tuple | None = None
    final_dims: tuple | None = None     # (last dist dim, last codist dim)
    depth: int | None = None            # decomposition depth, when known

    def check(self, doc: dict) -> str | None:
        """None when the report matches, else what differs."""
        verdict = doc["verdict"]
        dist = doc["distribution_test"]["dims"]
        codist = doc["codistribution_test"]["dims"]
        if verdict["flat"] is not self.flat:
            return f"flat is {verdict['flat']}, expected {self.flat}"
        if verdict["duality_ok"] is not True:
            return "duality verifier did not pass"
        if self.dist_dims is not None and tuple(dist) != self.dist_dims:
            return f"distribution dims {dist}, expected {list(self.dist_dims)}"
        if self.codist_dims is not None and tuple(codist) != self.codist_dims:
            return (f"codistribution dims {codist}, "
                    f"expected {list(self.codist_dims)}")
        if self.final_dims is not None and (dist[-1], codist[-1]) != self.final_dims:
            return (f"final dims ({dist[-1]}, {codist[-1]}), "
                    f"expected {self.final_dims}")
        cascade = doc.get("decomposition")
        if doc["options"]["decompose"] and (cascade is None) == self.flat:
            return "decomposition " + ("missing" if self.flat else
                                       "ran on a system that is not flat")
        if self.depth is not None and cascade["depth"] != self.depth:
            return f"cascade depth {cascade['depth']}, expected {self.depth}"
        return None


@dataclass(frozen=True)
class Job:
    name: str
    text: str           # the .sys file the program receives
    flags: tuple        # CLI flags besides FILE and --json PATH
    expect: Expect


def sys_text(name: str, states, inputs, dynamics, equilibrium=None) -> str:
    """A system file in dtflat's line format; equilibrium defaults to 0."""
    lines = [f"name: {name}",
             "states: " + " ".join(states),
             "inputs: " + " ".join(inputs),
             "dynamics:"]
    lines += [f"  {x}+ = {g}" for x, g in zip(states, dynamics)]
    values = equilibrium or ["0"] * (len(states) + len(inputs))
    lines.append("equilibrium: " + " ".join(values))
    return "\n".join(lines) + "\n"


def _xs(n: int) -> list:
    return [f"x{i}" for i in range(1, n + 1)]


def _chain_expect(n: int) -> Expect:
    return Expect(flat=True, dist_dims=tuple(range(1, n + 2)),
                  codist_dims=tuple(range(n, -1, -1)))


def chain(n: int) -> str:
    """Linear integrator chain x_i+ = x_{i+1}, x_n+ = u1."""
    return sys_text(f"chain{n}", _xs(n), ["u1"],
                    [f"x{i + 1}" for i in range(1, n)] + ["u1"])


def nlchain(n: int) -> str:
    """Polynomial chain x_i+ = x_{i+1} + x1*x_i, x_n+ = u1 + x1^2."""
    return sys_text(f"nlchain{n}", _xs(n), ["u1"],
                    [f"x{i + 1} + x1*x{i}" for i in range(1, n)]
                    + ["u1 + x1^2"])


def rat(n: int) -> str:
    """Rational tower x_i+ = x_{i+1}/(1+x_i^2), x_n+ = u1*(1+x1)."""
    return sys_text(f"rat{n}", _xs(n), ["u1"],
                    [f"x{i + 1}/(1 + x{i}^2)" for i in range(1, n)]
                    + ["u1*(1 + x1)"])


_COEFFS = (-2, -1, 1, 2)


def random_tower(rng: random.Random, n: int, name: str) -> str:
    """x_i+ = (x_{i+1} + p_i)/q_i, x_n+ = u1*q_n + p_n with p_i = b*x_j
    (j drawn from 1..i) and q_i = 1 + a*x1, so q_i(0) = 1.

    Flat by construction: each equation solves linearly for x_{i+1} (and
    the last for u1).  The denominators stay in x1: drawing their variable
    too gives towers from 0.2 s to over 15 s (q_i = 1 + a*x_i is one of
    the slow shapes), and the workload's time would then follow the seed
    more than the code.
    """
    dynamics = []
    for i in range(1, n + 1):
        q = f"1 + {rng.choice(_COEFFS)}*x1"
        p = f"{rng.choice(_COEFFS)}*x{rng.randint(1, i)}"
        dynamics.append(f"(x{i + 1} + {p})/({q})" if i < n
                        else f"u1*({q}) + {p}")
    return sys_text(name, _xs(n), ["u1"], dynamics)


def _system_text(system) -> str:
    """File text of a DiscreteSystem, round-trip checked."""
    for g in system.f:
        if parse_scalar(str(g)) != g:
            raise RuntimeError(f"{system.name}: {g} does not read back")
    eq = system.equilibrium
    values = ([str(eq[v]) for v in system.chart.names] if eq else None)
    return sys_text(system.name, system.state_names, system.input_names,
                    [str(g) for g in system.f], values)


# random flat draws per (n, m) shape; a fixed mix of shapes keeps the
# total work of a draw set close to the same for every seed
RANDOM_FLAT_SHAPES = ((2, 1), (3, 1), (3, 2), (4, 2))
RANDOM_FLAT_PER_SHAPE = 10


def random_flat_jobs(corpus, seed: int, flags: tuple) -> list:
    """Seeded ``random_flat_system`` draws, kept as ``random_flat_corpus``
    keeps them (an adapted chart must exist), until every shape has its
    quota."""
    rng = random.Random(seed)
    quota = {shape: RANDOM_FLAT_PER_SHAPE for shape in RANDOM_FLAT_SHAPES}
    jobs = []
    while any(quota.values()):
        system = corpus.random_flat_system(rng, name=f"randomflat{len(jobs)}")
        shape = (system.n, system.m)
        if not quota.get(shape):
            continue
        try:
            build_adapted_chart(system)
        except InversionFailed:
            continue
        quota[shape] -= 1
        jobs.append(Job(system.name, _system_text(system), flags,
                        Expect(flat=True, final_dims=(system.n + system.m, 0))))
    return jobs


def rational_tower(seed: int, root: Path, corpus) -> list:
    jobs = [Job(f"rat{n}", rat(n), (), _chain_expect(n)) for n in (3, 4, 5)]
    rng = random.Random(seed)
    for k in range(3):
        name = f"tower{k}"
        jobs.append(Job(name, random_tower(rng, 4, name), (), _chain_expect(4)))
    return jobs


def poly_chain(seed: int, root: Path, corpus) -> list:
    return [Job(f"nlchain{n}", nlchain(n), (), _chain_expect(n))
            for n in range(5, 9)]


def mimo_cascade(seed: int, root: Path, corpus) -> list:
    data = root / "tests" / "data"
    dec = ("--decompose",)
    jobs = [
        Job("academic4", (data / "academic4.sys").read_text(), dec,
            Expect(flat=True, dist_dims=(2, 3, 5, 6), codist_dims=(4, 3, 1, 0),
                   depth=3)),
        Job("mimo3", _system_text(corpus.mimo3()), dec,
            Expect(flat=True, final_dims=(5, 0))),
        Job("mixed2", (data / "mixed2.sys").read_text(), dec,
            Expect(flat=True, final_dims=(3, 0))),
        Job("nonflat2", (data / "nonflat2.sys").read_text(), dec,
            Expect(flat=False, dist_dims=(1,), codist_dims=(2,))),
        Job("nonflat3", _system_text(corpus.nonflat3()), dec,
            Expect(flat=False, dist_dims=(1, 2), codist_dims=(3, 2))),
        Job("chain8", chain(8), dec, _chain_expect(8)),
    ]
    return jobs + random_flat_jobs(corpus, seed, dec)


@dataclass(frozen=True)
class Workload:
    build: Callable     # (seed, repo root, corpus module) -> list of Job
    cap_s: float        # wall-time cap of one job


# The caps sit well above the slowest job that completes at seed and well
# below rat5's chart build (over a minute), so only rat5 hits its cap.
WORKLOADS = {
    "rational-tower": Workload(rational_tower, cap_s=10.0),
    "poly-chain": Workload(poly_chain, cap_s=60.0),
    "mimo-cascade": Workload(mimo_cascade, cap_s=10.0),
}
