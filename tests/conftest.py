"""Shared fixtures: planted instances solved once per session.

Several suites (solver, rounding identities, diagnostics, acceptance) need
the same six strong-relaxation solutions, and solving them once keeps the
full run fast.  Solved at 1e-8 so downstream identity checks have headroom.
"""

from dataclasses import dataclass

import pytest

from mbb_sdp import (
    BipartiteGraph,
    FeasibilityOutcome,
    PlantedSolution,
    SdpProblem,
    SolverConfig,
    build_strong_relaxation,
    planted_instance,
    solve_feasibility,
)

PLANTED_CASES = [
    (8, 2, 0.0),
    (8, 2, 0.2),
    (16, 4, 0.0),
    (16, 4, 0.2),
    (32, 8, 0.0),
    (32, 8, 0.2),
]

SOLVE_EPS = 1e-8


def reference_peel(adj, k, partners=True, pick=min):
    """Core of the 0/1 matrix ``adj`` at k, deleting one vertex at a time.

    A vertex fails with fewer than k neighbours on the other side or, when
    ``partners`` is set, with fewer than k - 1 other vertices on its own
    side sharing at least k of those neighbours; ``partners=False`` gives the
    plain (k,k)-core.  While a U-vertex fails, ``pick`` chooses which failing
    U-vertex goes; only then V-vertices.  Returns the sorted survivors.
    """
    sides = (set(range(adj.shape[0])), set(range(adj.shape[1])))
    views = (adj, adj.T)

    def fails(side, u):
        view = views[side]
        nbrs = [w for w in sides[1 - side] if view[u, w]]
        if len(nbrs) < k or not partners:
            return len(nbrs) < k
        mates = [v for v in sides[side] if v != u and sum(view[v, w] for w in nbrs) >= k]
        return len(mates) < k - 1

    while True:
        for side in (0, 1):
            weak = [u for u in sorted(sides[side]) if fails(side, u)]
            if weak:
                sides[side].remove(pick(weak))
                break
        else:
            return sorted(sides[0]), sorted(sides[1])


@dataclass
class SolvedCase:
    n: int
    k: int
    p: float
    graph: BipartiteGraph
    planted: PlantedSolution
    problem: SdpProblem
    outcome: FeasibilityOutcome


@pytest.fixture(scope="session")
def solved_planted() -> list[SolvedCase]:
    cases = []
    for n, k, p in PLANTED_CASES:
        graph, planted = planted_instance(n, k, p, seed=1000 + n)
        problem = build_strong_relaxation(graph, k)
        outcome = solve_feasibility(problem, SolverConfig(eps_feas=SOLVE_EPS))
        cases.append(SolvedCase(n, k, p, graph, planted, problem, outcome))
    return cases


ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log() -> list[str]:
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # The acceptance suite appends one pass/fail line per criterion; echo
    # them after the run so they are visible even with output capture on.
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
