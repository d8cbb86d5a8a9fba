import hashlib
import math

import numpy as np
import pytest

from mbb_sdp import (
    FEASIBLE,
    INFEASIBLE,
    SOLVER_LIMIT,
    ConstraintBlock,
    GramMatrix,
    SdpProblem,
    SolverConfig,
    VectorSolution,
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
    solve_feasibility,
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
        assert sum(len(block) for block in weak.blocks) == expected_counts(g, strong=False)
        assert sum(len(block) for block in strong.blocks) == expected_counts(g, strong=True)
        assert (len(weak.blocks), len(strong.blocks)) == (6, 8)
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


def test_constraint_block_canonicalizes_and_evaluates():
    block = ConstraintBlock(
        rows=[[3, 1]], cols=[[1, 1]], coeff=[[2.0, 1.0]], rhs=[4.0], relation="=", names=["x"]
    )
    assert block.rows.tolist() == [[1, 1]] and block.cols.tolist() == [[3, 1]]
    assert block.coeff.tolist() == [[2.0, 1.0]]
    problem = SdpProblem(4, (block,))
    m = np.zeros((4, 4))
    m[1, 3] = m[3, 1] = 1.5
    m[1, 1] = 1.0
    # residuals are signed: lhs 2*1.5 + 1*1.0 = 4.0 minus rhs
    assert check_feasibility(problem, GramMatrix(m)).residuals[0] == 0.0
    m[1, 1] = 2.0
    assert check_feasibility(problem, GramMatrix(m)).residuals[0] == 1.0
    with pytest.raises(ValueError, match="relation must be"):
        ConstraintBlock([[0]], [[0]], [[1.0]], [0.0], "<=", ["bad"])


def test_problem_validates_indices():
    with pytest.raises(ValueError, match="constraint 'oob' indexes outside dim 3"):
        SdpProblem(
            dim=3,
            blocks=(
                ConstraintBlock([[0], [0]], [[2], [3]], [[1.0], [1.0]], [0.0, 0.0], "=", ["ok", "oob"]),
            ),
            label="bad",
        )


def test_gram_matrix_is_symmetrized_and_read_only():
    m = np.array([[1.0, 0.4], [0.2, 1.0]])
    gram = GramMatrix(m)
    assert gram.entries[0, 1] == gram.entries[1, 0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        gram.entries[0, 0] = 5.0


def test_solver_integration():
    g, _ = planted_instance(12, 4, 0.3, seed=7)
    problem = build_strong_relaxation(g, 4)
    out = solve_feasibility(problem, SolverConfig(max_iterations=40000))
    assert out.status == FEASIBLE
    assert out.feasible
    report = check_feasibility(problem, out.gram, eps=1e-6)
    assert report.passed
    # the Gram diagonal carries vertex masses, all within [0, 1]
    diag = np.diag(out.gram.entries)[1:]
    assert diag.min() >= -1e-6 and diag.max() <= 1 + 1e-6


def test_empty_graph_strong_relaxation_infeasible():
    problem = build_strong_relaxation(empty_bipartite(4, 4), 1)
    out = solve_feasibility(problem, SolverConfig())
    assert out.status == INFEASIBLE
    assert not out.feasible
    assert out.gram is None


def test_solver_limit_on_tiny_budget():
    g, _ = planted_instance(12, 4, 0.3, seed=7)
    problem = build_strong_relaxation(g, 4)
    out = solve_feasibility(problem, SolverConfig(max_iterations=3))
    assert out.status == SOLVER_LIMIT
    assert out.iterations == 3


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: product-dr calls a feasible k infeasible on a plateau",
)
def test_product_dr_verdict_on_a_certified_feasible_k():
    g, planted = planted_instance(32, 8, 0.1, seed=7)
    problem = build_strong_relaxation(g, 7)
    left, right = planted.biclique.left[:7], planted.biclique.right[:7]
    certificate = check_feasibility(problem, indicator_gram(32, 32, left, right), eps=1e-6)
    if not certificate.passed:
        # pytest.fail is not an AssertionError, so a missing certificate is a real failure
        pytest.fail(f"indicator certificate fails at k = 7: {certificate.max_violation:.3g}")
    out = solve_feasibility(problem, SolverConfig())
    assert out.status != INFEASIBLE


def test_gram_to_vectors_reconstructs():
    gram = weak_gap_solution(4)
    sol = gram_to_vectors(gram, sides=(4, 4))
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
    ones = gram_to_vectors(GramMatrix(np.ones((3, 3))), sides=(1, 1))
    assert ones.vectors.shape == (2, 3)
    for row in ones.vectors:
        assert np.linalg.norm(row) == pytest.approx(1.0)
        assert row @ ones.anchor == pytest.approx(1.0)
    eye = gram_to_vectors(GramMatrix(np.eye(3)), sides=(1, 1))
    full = np.vstack([eye.anchor, eye.vectors])
    assert np.abs(full @ full.T - np.eye(3)).max() < 1e-12


def test_gram_to_vectors_rejects_indefinite():
    m = np.eye(3)
    m[2, 2] = -0.5
    with pytest.raises(ValueError):
        gram_to_vectors(GramMatrix(m), sides=(1, 1))


def test_gram_to_vectors_idempotent_on_psd():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    gram = GramMatrix(b @ b.T / 6 + np.eye(6))
    once = gram_to_vectors(gram, sides=(3, 2))
    twice = gram_to_vectors(GramMatrix(once.reconstructed_gram()), sides=(3, 2))
    assert np.abs(once.reconstructed_gram() - twice.reconstructed_gram()).max() < 1e-7


def test_vector_solution_sides_split():
    g, sol = planted_instance(6, 2, 0.0, seed=2)
    problem = build_strong_relaxation(g, 2)
    out = solve_feasibility(problem, SolverConfig())
    vs = gram_to_vectors(out.gram, sides=(6, 6))
    assert vs.left_vectors().shape[0] == 6
    assert vs.right_vectors().shape[0] == 6
    assert vs.masses().shape == (12,)
    assert vs.sides == (6, 6) and all(type(side) is int for side in vs.sides)
    with pytest.raises(ValueError, match="does not match 12 vertex vectors"):
        gram_to_vectors(out.gram, sides=(6, 5))
    with pytest.raises(ValueError, match="does not match"):
        VectorSolution(dim=vs.dim, anchor=vs.anchor, vectors=vs.vectors[1:], sides=(6, 6))
    assert gram_to_vectors(out.gram, sides=(np.int64(5), np.int64(7))).sides == (5, 7)


def test_solver_config_rejects_settings_that_give_wrong_verdicts():
    for kwargs, message in (
        ({"eps_feas": 0.0}, "eps_feas must be positive"),
        ({"eps_feas": -1e-6}, "eps_feas must be positive"),
        ({"eps_feas": float("nan")}, "eps_feas must be positive"),
        ({"eps_feas": math.inf}, "eps_feas must be positive and finite"),
        ({"max_iterations": 0}, "max_iterations must be at least 1"),
    ):
        with pytest.raises(ValueError, match=message):
            SolverConfig(**kwargs)
    # the smallest valid settings still build (a one-sweep probe)
    assert SolverConfig(max_iterations=1).max_iterations == 1


def test_gram_input_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        GramMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        gram_from_text("gram 3\n1 nan 0\n0 1 0\n0 0 1\n")
    with pytest.raises(ValueError, match="finite"):
        gram_from_text("gram 2\ninf 0\n0 1\n")


def test_gram_to_vectors_fails_closed_on_nan(monkeypatch):
    # a NaN spectrum must raise, not pass both checks as False comparisons
    gram = GramMatrix(np.eye(3))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.full(3, np.nan), np.eye(3)))
    with pytest.raises(ValueError, match="not PSD"):
        gram_to_vectors(gram, (1, 1))
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.array([0.0, 1.0, 1.0]), np.full((3, 3), np.nan)))
    with pytest.raises(ArithmeticError, match="factorization error"):
        gram_to_vectors(gram, (1, 1))


def test_export_problem_format():
    problem = build_strong_relaxation(complete_bipartite(2, 2), 2)
    text = export_problem(problem)
    lines = text.strip().splitlines()
    assert lines[0].startswith("c sdp-feasibility dim=5")
    body = [ln for ln in lines if not ln.startswith("c")]
    assert len(body) == sum(len(block) for block in problem.blocks)
    for ln in body:
        relation, rhs, *terms = ln.split()
        assert relation in ("=", ">=")
        float(rhs)
        for term in terms:
            r, c, coeff = term.split(":")
            assert 0 <= int(r) <= int(c) < 5
            float(coeff)
    # terms keep their construction order: a norm link's diagonal term comes first
    assert body[1] == "= 0 1:1:1 0:1:-1"
    assert body[-1] == "= 0 1:4:1 2:4:1 0:4:-2"


# sha256 of export_problem's text, recorded before the constraint families
# became array blocks; the text must not change.
EXPORT_SHA256 = {
    ("complete", "weak"): "e1d402153bf11b786c05d97f1f4ae8e60ececce635b1762311a8bc62e8a9c03a",
    ("complete", "strong"): "2ea3c3f5776fd8cfcb2cb46a78e2f99c534df98bdc273adeee28e603a03d75bd",
    ("empty", "weak"): "d6618a3345bc86a7de8735fd6f9e7c3acf7d9c8df37a64acb88bbec21dafdb52",
    ("empty", "strong"): "ba66cbf1047330ebc6ffe53a43827b445f0acdc1af3092960d09c0ef6a300e4a",
    ("planted", "weak"): "a443461c260612bda521a63251a5318c2a50d6f8b264d8bb6533e62a0067a1fd",
    ("planted", "strong"): "a084310e1f438dc2e9c82d80889d935d9796b60bf7ffaa1505c68e3b450bf161",
}


def test_export_problem_golden_text():
    graphs = {
        "complete": (complete_bipartite(2, 3), 2),
        "empty": (empty_bipartite(4, 5), 1),
        "planted": (planted_instance(10, 3, 0.4, seed=1)[0], 3),
    }
    for (name, kind), digest in EXPORT_SHA256.items():
        graph, k = graphs[name]
        build = build_weak_relaxation if kind == "weak" else build_strong_relaxation
        text = export_problem(build(graph, k))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, kind)


def test_gram_text_round_trip():
    gram = weak_gap_solution(3)
    back = gram_from_text(gram_to_text(gram))
    assert np.array_equal(back.entries, gram.entries)
    # a comment line is one that starts with c once stripped
    commented = gram_from_text("gram 2\n  c note\n1 0\n\tc another\n0 1\n")
    assert np.array_equal(commented.entries, np.eye(2))


def test_solved_fixture_outcomes_pass_check(solved_planted):
    for case in solved_planted:
        assert case.outcome.status == FEASIBLE
        report = check_feasibility(case.problem, case.outcome.gram, eps=1e-8)
        assert report.passed
        assert case.outcome.max_violation <= 1e-8
        # the solver accepts on the evaluator check_feasibility scores with
        assert case.outcome.max_violation == report.max_violation


def test_worst_constraint_names():
    g, sol = planted_instance(8, 3, 0.0, seed=5)
    left, right = sol.biclique.left, sol.biclique.right
    # a block one vertex short of k misses the mass and degree rows
    report = check_feasibility(build_strong_relaxation(g, 3), indicator_gram(8, 8, left[:2], right[:2]))
    assert report.worst_constraint == "mass-left"
    assert report.max_violation == 1.0
    empty = check_feasibility(build_strong_relaxation(empty_bipartite(2, 2), 1), weak_gap_solution(2))
    assert empty.worst_constraint == "frac-degree-u0"
    full = np.ones((1 + 5 + 5, 1 + 5 + 5))
    planted = planted_instance(5, 2, 0.0, seed=0)[0]
    report = check_feasibility(build_weak_relaxation(planted, 5), GramMatrix(full))
    first_gap = next((i, j) for i in range(5) for j in range(5) if not planted.dense()[i, j])
    assert report.worst_constraint == f"non-edge-{first_gap[0]}-{first_gap[1]}"


def test_inequality_rows_must_be_single_positive_entries():
    from mbb_sdp.sdp import _ProjectionOps

    for rows, cols, coeff in (([[0, 1]], [[1, 2]], [[1.0, 1.0]]), ([[1]], [[2]], [[-1.0]])):
        block = ConstraintBlock(rows, cols, coeff, [0.0], ">=", ["lower"])
        with pytest.raises(ValueError, match="constraint 'lower' is not one"):
            _ProjectionOps(SdpProblem(3, (block,)))


def _equality_system(problem):
    """Every equality row over the row-major vec(M), built term by term with
    off-diagonal terms split 0.5/0.5 between (r, c) and (c, r)."""
    dim = problem.dim
    a, b = [], []
    for block in problem.blocks:
        if block.relation != "=":
            continue
        for r_row, c_row, x_row, rhs in zip(block.rows, block.cols, block.coeff, block.rhs):
            row = np.zeros(dim * dim)
            for r, c, x in zip(r_row, c_row, x_row):
                if r == c:
                    row[r * dim + c] += x
                else:
                    row[r * dim + c] += 0.5 * x
                    row[c * dim + r] += 0.5 * x
            a.append(row)
            b.append(rhs)
    return np.array(a).reshape(-1, dim * dim), np.array(b)


def _lstsq_proj_eq(problem, x):
    """Reference: least-norm correction onto the full equality system."""
    a, b = _equality_system(problem)
    vec = x.ravel()
    step = np.linalg.lstsq(a, a @ vec - b, rcond=None)[0]
    return (vec - step).reshape(x.shape)


def _hand_built_problem():
    # Zero rows pin a diagonal entry (3,3), entries the mass and degree rows
    # use ((0,3) and (1,3)), and one with a non-unit coefficient.  The anchor
    # row shares their single-term block but, with rhs 1, is a coupling row.
    blocks = (
        ConstraintBlock(
            [[0], [3], [3], [1], [2]],
            [[0], [3], [0], [3], [3]],
            [[1.0], [1.0], [1.0], [1.0], [2.0]],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            "=",
            ["anchor", "zero-diag", "zero-mass-entry", "zero-degree-entry", "zero-scaled"],
        ),
        ConstraintBlock([[1, 0]], [[1, 1]], [[1.0, -1.0]], [0.0], "=", ["link-1"]),
        ConstraintBlock(
            [[0, 0, 0], [1, 1, 0]],
            [[1, 2, 3], [2, 3, 1]],
            [[1.0, 1.0, 1.0], [1.0, 1.0, -1.0]],
            [1.5, 0.0],
            "=",
            ["mass", "degree-1"],
        ),
        ConstraintBlock([[1]], [[2]], [[1.0]], [0.0], ">=", ["nonneg"]),
    )
    return SdpProblem(4, blocks, label="hand-built")


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
            assert np.abs(y - _lstsq_proj_eq(problem, x)).max() <= 1e-10, problem.label
            a, b = _equality_system(problem)
            assert np.abs(a @ y.ravel() - b).max() <= 1e-9
            assert np.abs(ops.proj_eq(y) - y).max() <= 1e-12


def test_proj_eq_factors_only_the_coupling_rows():
    from mbb_sdp.sdp import _ProjectionOps

    graph, _ = planted_instance(10, 3, 0.2, seed=4)
    problem = build_strong_relaxation(graph, 3)
    ops = _ProjectionOps(problem)
    # anchor norm, 2n norm links, two mass rows, 2n degree rows
    assert ops.coupling.num_rows == 4 * 10 + 3
    assert _equality_system(problem)[0].shape[0] == 4 * 10 + 3 + graph.num_non_edges
    mask = ops.zero_mask.reshape(ops.dim, ops.dim)
    assert np.array_equal(mask, mask.T)
    assert mask.sum() == 2 * graph.num_non_edges
    assert not ops.zero_mask[ops.coupling.cols].any()

    hand = _ProjectionOps(_hand_built_problem())
    assert hand.coupling.num_rows == 4
    assert sorted(map(tuple, np.argwhere(hand.zero_mask.reshape(4, 4)))) == [
        (0, 3), (1, 3), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3)
    ]


def test_coupling_terms_match_the_equality_system():
    # the index arrays hold the coupling rows of the full equality system,
    # minus their masked entries, sorted by (row, col)
    from mbb_sdp.sdp import _ProjectionOps

    problem = _hand_built_problem()
    ops = _ProjectionOps(problem)
    c = ops.coupling
    dense = np.zeros((c.num_rows, problem.dim**2))
    np.add.at(dense, (c.rows, c.cols), c.data)
    coupling_rows = _equality_system(problem)[0][[0, 5, 6, 7]]  # anchor, link-1, mass, degree-1
    assert np.array_equal(dense, np.where(ops.zero_mask, 0.0, coupling_rows))
    assert np.array_equal(np.lexsort((c.cols, c.rows)), np.arange(c.rows.size))
    assert np.array_equal(c.gram(), dense @ dense.T)


def test_every_row_has_one_role():
    from mbb_sdp.sdp import _ProjectionOps

    graph, _ = planted_instance(10, 3, 0.2, seed=4)
    for problem in (_hand_built_problem(), build_strong_relaxation(graph, 3)):
        ops = _ProjectionOps(problem)
        table = ops.evaluate
        roles = np.stack([ops.is_pin, ops.is_coupling, ops.is_bound])
        assert roles.shape == (3, table.rhs.size)
        assert (roles.sum(axis=0) == 1).all(), problem.label
        assert np.array_equal(ops.is_pin | ops.is_coupling, table.equality)
        # the coupling matrix's rows are the coupling-role rows, in row order
        equality_rows = np.flatnonzero(table.equality)
        system = _equality_system(problem)[0]
        dense = np.zeros((ops.coupling.num_rows, problem.dim**2))
        np.add.at(dense, (ops.coupling.rows, ops.coupling.cols), ops.coupling.data)
        wanted = system[np.searchsorted(equality_rows, np.flatnonzero(ops.is_coupling))]
        assert np.array_equal(dense, np.where(ops.zero_mask, 0.0, wanted))
        assert np.array_equal(ops.coupling_rhs, table.rhs[ops.is_coupling])
        assert ops.ineq_rows.size == ops.is_bound.sum()
    hand = _ProjectionOps(_hand_built_problem())
    assert hand.is_pin.tolist() == [False, True, True, True, True, False, False, False, False]
    assert hand.is_bound.tolist() == [False] * 8 + [True]


@pytest.mark.parametrize("n, k, p", [(32, 8, 0.1), (64, 12, 0.4)])
def test_proj_eq_meets_the_coupling_rows_to_rounding(n, k, p):
    # a ridged explicit inverse of C C^T leaves residuals near 1e-7 here
    from mbb_sdp.sdp import _ProjectionOps

    graph, _ = planted_instance(n, k, p, seed=1000 + n)
    problem = build_strong_relaxation(graph, k)
    ops = _ProjectionOps(problem)
    x = np.random.default_rng(n).standard_normal((problem.dim, problem.dim))
    y = ops.proj_eq(x + x.T)
    residuals = ops.evaluate(y)[0][ops.evaluate.equality]
    assert np.abs(residuals).max() <= 1e-12
    assert np.abs(ops.proj_eq(y) - y).max() <= 1e-12
