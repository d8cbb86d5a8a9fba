import math

import numpy as np
import pytest

from mbb_sdp import (
    FEASIBLE,
    INFEASIBLE,
    SOLVER_LIMIT,
    GramMatrix,
    LinearConstraint,
    SdpProblem,
    SolverConfig,
    build_strong_relaxation,
    build_weak_relaxation,
    check_feasibility,
    complete_bipartite,
    empty_bipartite,
    export_problem,
    gram_from_text,
    gram_to_text,
    gram_to_vectors,
    indicator_gram,
    new_bipartite,
    planted_instance,
    register_backend,
    solve_feasibility,
    solver_backends,
    weak_gap_solution,
)


def expected_counts(graph, strong):
    base = 1 + (graph.n_u + graph.n_v) + 2 + graph.num_non_edges + graph.n_u * graph.n_v
    if strong:
        base += graph.n_u + graph.n_v
    return base


def test_constraint_counts():
    for g in (
        complete_bipartite(3, 4),
        empty_bipartite(2, 5),
        planted_instance(10, 3, 0.4, seed=1)[0],
    ):
        weak = build_weak_relaxation(g, 2)
        strong = build_strong_relaxation(g, 2)
        assert len(weak.constraints) == expected_counts(g, strong=False)
        assert len(strong.constraints) == expected_counts(g, strong=True)
        assert weak.dim == strong.dim == 1 + g.n_u + g.n_v


def test_builders_reject_nonpositive_k():
    g = complete_bipartite(2, 2)
    for bad in (0, -1, -0.5):
        with pytest.raises(ValueError):
            build_strong_relaxation(g, bad)
        with pytest.raises(ValueError):
            build_weak_relaxation(g, bad)
    # fractional k is legitimate (search may probe between integers)
    assert build_strong_relaxation(g, 1.5).label == "strong(k=1.5)"


def test_all_ones_matrix_solves_complete_graph():
    g = complete_bipartite(2, 2)
    problem = build_strong_relaxation(g, 2)
    all_ones = GramMatrix(np.ones((5, 5)))
    report = check_feasibility(problem, all_ones, eps=1e-9)
    assert report.passed
    assert report.max_violation == 0.0


def test_indicator_certificate_is_exact_on_planted_block():
    g, sol = planted_instance(8, 3, 0.0, seed=5)
    problem = build_strong_relaxation(g, 3)
    ind = indicator_gram(8, 8, sol.biclique.left, sol.biclique.right)
    report = check_feasibility(problem, ind, eps=1e-9)
    assert report.passed
    assert report.max_violation == 0.0
    assert report.min_eigenvalue >= -1e-9


def test_weak_gap_solution_certifies_half_n():
    for n in (2, 4, 6, 8):
        gram = weak_gap_solution(n)
        g = empty_bipartite(n, n)
        problem = build_weak_relaxation(g, n / 2)
        report = check_feasibility(problem, gram, eps=1e-9)
        assert report.passed
        assert gram.min_eigenvalue() >= -1e-12
        masses = gram.entries[0, 1:]
        assert np.allclose(masses, 0.5)


def test_weak_gap_solution_violates_strong_rows():
    # on the empty graph the fractional-degree row forces k*c_i = 0
    gram = weak_gap_solution(2)
    problem = build_strong_relaxation(empty_bipartite(2, 2), 1)
    report = check_feasibility(problem, gram, eps=1e-9)
    assert not report.passed
    assert report.max_violation >= 0.5
    assert report.worst_constraint.startswith("frac-degree")


def test_empty_2x2_weak_at_k1_feasible_via_gap_matrix():
    problem = build_weak_relaxation(empty_bipartite(2, 2), 1)
    report = check_feasibility(problem, weak_gap_solution(2), eps=1e-12)
    assert report.passed


def test_check_feasibility_rejects_dimension_mismatch():
    problem = build_weak_relaxation(complete_bipartite(2, 2), 1)
    with pytest.raises(ValueError):
        check_feasibility(problem, GramMatrix(np.eye(4)), eps=1e-6)


def test_linear_constraint_canonicalizes_and_evaluates():
    con = LinearConstraint(terms=((3, 1, 2.0), (1, 1, 1.0)), relation="=", rhs=4.0, name="x")
    assert con.terms == ((1, 3, 2.0), (1, 1, 1.0))
    m = np.zeros((4, 4))
    m[1, 3] = m[3, 1] = 1.5
    m[1, 1] = 1.0
    # evaluate returns the signed residual: lhs 2*1.5 + 1*1.0 = 4.0 minus rhs
    assert con.evaluate(m) == 0.0
    m[1, 1] = 2.0
    assert con.evaluate(m) == 1.0
    with pytest.raises(ValueError):
        LinearConstraint(terms=((0, 0, 1.0),), relation="<=", rhs=0.0, name="bad")


def test_problem_validates_indices():
    with pytest.raises(ValueError):
        SdpProblem(
            dim=3,
            constraints=(LinearConstraint(terms=((0, 3, 1.0),), relation="=", rhs=0.0, name="oob"),),
            label="bad",
        )


def test_gram_matrix_is_symmetrized_and_read_only():
    m = np.array([[1.0, 0.4], [0.2, 1.0]])
    gram = GramMatrix(m)
    assert gram.entries[0, 1] == gram.entries[1, 0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        gram.entries[0, 0] = 5.0


def test_solver_integration_both_backends():
    g, _ = planted_instance(12, 4, 0.3, seed=7)
    problem = build_strong_relaxation(g, 4)
    assert set(solver_backends()) >= {"dykstra", "product-dr"}
    for backend in ("product-dr", "dykstra"):
        out = solve_feasibility(problem, SolverConfig(backend=backend, max_iterations=40000))
        assert out.status == FEASIBLE
        assert out.feasible
        report = check_feasibility(problem, out.gram, eps=1e-6)
        assert report.passed
        # the Gram diagonal carries vertex masses, all within [0, 1]
        diag = np.diag(out.gram.entries)[1:]
        assert diag.min() >= -1e-6 and diag.max() <= 1 + 1e-6


def test_empty_graph_strong_relaxation_infeasible_both_backends():
    problem = build_strong_relaxation(empty_bipartite(4, 4), 1)
    for backend in ("product-dr", "dykstra"):
        out = solve_feasibility(problem, SolverConfig(backend=backend))
        assert out.status == INFEASIBLE
        assert not out.feasible
        assert out.gram is None


def test_solver_limit_on_tiny_budget():
    g, _ = planted_instance(12, 4, 0.3, seed=7)
    problem = build_strong_relaxation(g, 4)
    out = solve_feasibility(problem, SolverConfig(max_iterations=3))
    assert out.status == SOLVER_LIMIT
    assert out.iterations == 3


def test_warm_start_resolves_quickly():
    g, _ = planted_instance(12, 4, 0.3, seed=7)
    problem = build_strong_relaxation(g, 4)
    first = solve_feasibility(problem, SolverConfig())
    again = solve_feasibility(problem, SolverConfig(warm_start=first.gram.entries))
    assert again.status == FEASIBLE
    assert again.iterations <= first.iterations


def test_unknown_backend_raises():
    problem = build_weak_relaxation(complete_bipartite(2, 2), 1)
    with pytest.raises(ValueError):
        solve_feasibility(problem, SolverConfig(backend="nope"))


def test_backend_registry_accepts_new_entries():
    calls = []

    def stub(problem, config):
        calls.append(problem.label)
        return solve_feasibility(problem, SolverConfig())

    from mbb_sdp import sdp as sdp_module

    register_backend("stub-test", stub)
    try:
        assert "stub-test" in solver_backends()
        problem = build_strong_relaxation(complete_bipartite(2, 2), 2)
        out = solve_feasibility(problem, SolverConfig(backend="stub-test"))
        assert out.status == FEASIBLE
        assert calls == ["strong(k=2)"]
    finally:
        sdp_module._BACKENDS.pop("stub-test", None)


def test_gram_to_vectors_reconstructs():
    gram = weak_gap_solution(4)
    sol = gram_to_vectors(gram)
    rebuilt = sol.reconstructed_gram()
    assert np.abs(rebuilt - gram.entries).max() < 1e-7
    # anchor sits on the first axis with unit norm
    assert sol.anchor[0] == pytest.approx(1.0)
    assert np.abs(sol.anchor[1:]).max() < 1e-12
    # inner products reproduce the 0 / 0.5 / 0.25 pattern
    vecs = sol.vectors
    assert vecs[0] @ vecs[4] == pytest.approx(0.0, abs=1e-7)
    assert vecs[0] @ vecs[1] == pytest.approx(0.5, abs=1e-7)
    assert vecs[0] @ sol.anchor == pytest.approx(0.5, abs=1e-7)


def test_gram_to_vectors_special_matrices():
    ones = gram_to_vectors(GramMatrix(np.ones((3, 3))))
    assert ones.vectors.shape == (2, 3)
    for row in ones.vectors:
        assert np.linalg.norm(row) == pytest.approx(1.0)
        assert row @ ones.anchor == pytest.approx(1.0)
    eye = gram_to_vectors(GramMatrix(np.eye(3)))
    full = np.vstack([eye.anchor, eye.vectors])
    assert np.abs(full @ full.T - np.eye(3)).max() < 1e-12


def test_gram_to_vectors_rejects_indefinite():
    m = np.eye(3)
    m[2, 2] = -0.5
    with pytest.raises(ValueError):
        gram_to_vectors(GramMatrix(m))


def test_gram_to_vectors_idempotent_on_psd():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    gram = GramMatrix(b @ b.T / 6 + np.eye(6))
    once = gram_to_vectors(gram)
    twice = gram_to_vectors(GramMatrix(once.reconstructed_gram()))
    assert np.abs(once.reconstructed_gram() - twice.reconstructed_gram()).max() < 1e-7


def test_vector_solution_sides_split():
    g, sol = planted_instance(6, 2, 0.0, seed=2)
    problem = build_strong_relaxation(g, 2)
    out = solve_feasibility(problem, SolverConfig())
    vs = gram_to_vectors(out.gram, sides=(6, 6))
    assert vs.left_vectors().shape[0] == 6
    assert vs.right_vectors().shape[0] == 6
    assert vs.masses().shape == (12,)


def test_export_problem_format():
    problem = build_strong_relaxation(complete_bipartite(2, 2), 2)
    text = export_problem(problem)
    lines = text.strip().splitlines()
    assert lines[0].startswith("c sdp-feasibility dim=5")
    body = [ln for ln in lines if not ln.startswith("c")]
    assert len(body) == len(problem.constraints)
    for ln in body:
        relation, rhs, *terms = ln.split()
        assert relation in ("=", ">=")
        float(rhs)
        for term in terms:
            r, c, coeff = term.split(":")
            assert 0 <= int(r) <= int(c) < 5
            float(coeff)


def test_gram_text_round_trip():
    gram = weak_gap_solution(3)
    back = gram_from_text(gram_to_text(gram))
    assert np.array_equal(back.entries, gram.entries)


def test_solved_fixture_outcomes_pass_check(solved_planted):
    for case in solved_planted:
        assert case.outcome.status == FEASIBLE
        report = check_feasibility(case.problem, case.outcome.gram, eps=1e-8)
        assert report.passed
        assert case.outcome.max_violation <= 1e-8


def _lstsq_proj_eq(ops, x):
    """Reference: least-norm correction onto the full compiled equality system."""
    a = ops.comp.eq_matrix.toarray()
    vec = x.ravel()
    step = np.linalg.lstsq(a, a @ vec - ops.comp.eq_rhs, rcond=None)[0]
    return (vec - step).reshape(x.shape)


def _hand_built_problem():
    # Zero rows pin a diagonal entry (3,3), entries the mass and degree rows
    # use ((0,3) and (1,3)), and one with a non-unit coefficient.
    cons = (
        LinearConstraint(((0, 0, 1.0),), "=", 1.0, "anchor"),
        LinearConstraint(((1, 1, 1.0), (0, 1, -1.0)), "=", 0.0, "link-1"),
        LinearConstraint(((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)), "=", 1.5, "mass"),
        LinearConstraint(((1, 2, 1.0), (1, 3, 1.0), (0, 1, -1.0)), "=", 0.0, "degree-1"),
        LinearConstraint(((3, 3, 1.0),), "=", 0.0, "zero-diag"),
        LinearConstraint(((3, 0, 1.0),), "=", 0.0, "zero-mass-entry"),
        LinearConstraint(((1, 3, 1.0),), "=", 0.0, "zero-degree-entry"),
        LinearConstraint(((2, 3, 2.0),), "=", 0.0, "zero-scaled"),
        LinearConstraint(((1, 2, 1.0),), ">=", 0.0, "nonneg"),
    )
    return SdpProblem(4, cons, label="hand-built")


def test_proj_eq_matches_least_norm_projection():
    from mbb_sdp.sdp import _ProjectionOps

    planted, _ = planted_instance(6, 3, 0.3, seed=2)
    problems = [_hand_built_problem()]
    for graph, k in ((complete_bipartite(2, 3), 2), (planted, 3), (planted, 2)):
        problems += [build_weak_relaxation(graph, k), build_strong_relaxation(graph, k)]
    rng = np.random.default_rng(11)
    for problem in problems:
        ops = _ProjectionOps(problem)
        for _ in range(3):
            x = rng.standard_normal((problem.dim, problem.dim))
            x = x + x.T
            y = ops.proj_eq(x)
            assert np.abs(y - _lstsq_proj_eq(ops, x)).max() <= 1e-10, problem.label
            assert np.abs(ops.comp.eq_matrix @ y.ravel() - ops.comp.eq_rhs).max() <= 1e-9
            assert np.abs(ops.proj_eq(y) - y).max() <= 1e-12


def test_proj_eq_factors_only_the_coupling_rows():
    from mbb_sdp.sdp import _ProjectionOps

    graph, _ = planted_instance(10, 3, 0.2, seed=4)
    ops = _ProjectionOps(build_strong_relaxation(graph, 3))
    # anchor norm, 2n norm links, two mass rows, 2n degree rows
    assert ops.comp.coupling.shape[0] == 4 * 10 + 3
    assert ops.comp.eq_matrix.shape[0] == 4 * 10 + 3 + graph.num_non_edges
    mask = ops.comp.zero_mask.reshape(ops.dim, ops.dim)
    assert np.array_equal(mask, mask.T)
    assert mask.sum() == 2 * graph.num_non_edges
    assert ops.comp.coupling[:, ops.comp.zero_mask].nnz == 0

    hand = _ProjectionOps(_hand_built_problem())
    assert hand.comp.coupling.shape[0] == 4
    assert sorted(map(tuple, np.argwhere(hand.comp.zero_mask.reshape(4, 4)))) == [
        (0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)
    ]
