import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from mbb_sdp import extraction as extraction_module
from mbb_sdp import graphs as graphs_module
from mbb_sdp import rounding as rounding_module
from mbb_sdp import (
    ALPHA_DEFAULT,
    RoundingParams,
    VectorSolution,
    analysis_size_target,
    default_tau,
    default_trials,
    diagnostics,
    empty_bipartite,
    gaussian_threshold,
    gram_to_vectors,
    heavy_sets,
    planted_instance,
    round_many,
    round_once,
    shift_vectors,
    verify_biclique,
    weak_gap_solution,
)


def indicator_solution(n, left, right, dim=2):
    """Members sit exactly on the anchor, everyone else at the origin."""
    anchor = np.zeros(dim)
    anchor[0] = 1.0
    rows = np.zeros((2 * n, dim))
    for i in left:
        rows[i, 0] = 1.0
    for j in right:
        rows[n + j, 0] = 1.0
    return VectorSolution(dim=dim, anchor=anchor, vectors=rows, sides=(n, n))


def test_default_tau_values():
    assert default_tau(12) == (0.5, True)
    tau13, clamped13 = default_tau(13)
    assert not clamped13
    assert tau13 == pytest.approx(0.50645329078420813, abs=1e-15)
    tau100, clamped100 = default_tau(100)
    assert not clamped100
    assert tau100 == pytest.approx(0.6786140424415112, abs=1e-15)


def test_default_trials_values():
    assert default_trials(10) == 1000
    assert default_trials(21) == 9261
    assert default_trials(33) == 10_000


def test_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(ratio=0.0, tau=0.5, trials=1, heavy_threshold=0.1)
    with pytest.raises(ValueError):
        RoundingParams(ratio=2.0, tau=0.0, trials=1, heavy_threshold=0.1)
    with pytest.raises(ValueError):
        RoundingParams(ratio=2.0, tau=0.5, trials=0, heavy_threshold=0.1)
    with pytest.raises(ValueError, match="trials"):
        RoundingParams(ratio=2.0, tau=0.5, trials=2**32 + 1, heavy_threshold=0.1)
    with pytest.raises(ValueError, match="seed"):
        RoundingParams(ratio=2.0, tau=0.5, trials=1, heavy_threshold=0.1, seed=-1)
    with pytest.raises(ValueError, match="seed"):
        RoundingParams.for_instance(8, 2, seed=-1)
    assert RoundingParams(ratio=2.0, tau=0.5, trials=2**32, heavy_threshold=0.1).trials == 2**32
    # a non-finite tau or ratio is named, not left to fail inside r_target
    for field, value in (("tau", math.nan), ("tau", math.inf), ("ratio", math.nan), ("ratio", math.inf)):
        kwargs = {"ratio": 2.0, "tau": 0.5, "trials": 1, "heavy_threshold": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            RoundingParams(**kwargs)
    with pytest.raises(ValueError, match="^tau must be positive and finite"):
        RoundingParams.for_instance(8, 2, tau=math.nan)


def test_params_for_instance():
    params = RoundingParams.for_instance(16, 4, seed=9)
    assert params.ratio == 4.0
    assert params.heavy_threshold == pytest.approx(1.0 / 32.0)
    assert params.tau == pytest.approx(0.52655376954683187, abs=1e-15)
    assert not params.tau_clamped
    assert params.trials == 4096
    assert params.seed == 9
    assert params.r_target == 1
    wide = RoundingParams(ratio=1.0, tau=20.0, trials=1, heavy_threshold=0.125)
    assert wide.r_target == math.floor(analysis_size_target(1.0, 20.0)) > 1
    small = RoundingParams.for_instance(8, 2)
    assert small.tau == 0.5 and small.tau_clamped
    explicit = RoundingParams.for_instance(16, 4, trials=7, tau=1.25)
    assert explicit.trials == 7
    assert explicit.tau == 1.25 and not explicit.tau_clamped
    with pytest.raises(ValueError):
        RoundingParams.for_instance(8, 0)
    with pytest.raises(ValueError):
        RoundingParams.for_instance(8, 9)


def test_heavy_sets_boundary_inclusive():
    n = 3
    sol = indicator_solution(n, [0], [1])
    thr = 1.0 / (8.0 * 4.0)
    vecs = sol.vectors.copy()
    vecs[1, 0] = thr  # exactly at the threshold: must be kept
    vecs[2, 0] = thr - 1e-9  # just below: must be dropped
    sol = VectorSolution(dim=sol.dim, anchor=sol.anchor, vectors=vecs, sides=(n, n))
    left, right = heavy_sets(sol, 4.0)
    assert list(left) == [0, 1]
    assert list(right) == [1]


def test_heavy_sets_input_checks():
    sol = indicator_solution(3, [0], [0])
    with pytest.raises(ValueError):
        heavy_sets(sol, 0.0)


def test_shift_identities_on_indicator():
    n, k = 8, 2
    sol = indicator_solution(n, range(k), range(k))
    unit = shift_vectors(sol, range(k), range(k))
    # members all sit on the anchor, so after shifting they still do
    assert np.abs(np.linalg.norm(unit, axis=1) - 1.0).max() < 1e-12
    prods = unit @ unit.T
    assert np.abs(prods - 1.0).max() < 1e-12
    # raw shifted products follow <u_i,u_j> - c_i c_j / 2 by direct algebra
    shifted = sol.vectors[[0, 1, n, n + 1]] - ALPHA_DEFAULT * np.outer(
        np.ones(4), sol.anchor
    )
    raw = shifted @ shifted.T
    assert np.abs(raw - 0.5).max() < 1e-12


def test_shift_rejects_degenerate_member():
    sol = indicator_solution(4, [0], [0])
    # member U1 has the zero vector, whose shift stays at the origin
    with pytest.raises(ValueError):
        shift_vectors(sol, [0, 1], [0])


def test_shift_rejects_norm_link_violation():
    n = 4
    sol = indicator_solution(n, [0], [0])
    vecs = sol.vectors.copy()
    vecs[0, 0] = 0.9  # mass 0.9 but squared norm 0.81: not a valid relaxation point
    bad = VectorSolution(dim=sol.dim, anchor=sol.anchor, vectors=vecs, sides=(n, n))
    with pytest.raises(ArithmeticError):
        shift_vectors(bad, [0], [0])


def test_gaussian_threshold_matches_manual_draw():
    rng = np.random.default_rng(17)
    unit = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, -1.0]])
    mask = gaussian_threshold(unit, 0.5, rng)
    g = np.random.default_rng(17).standard_normal(2)
    assert list(mask) == list((unit @ g) >= 0.5)
    with pytest.raises(ValueError):
        gaussian_threshold(np.ones(3), 0.5, rng)


def test_analysis_size_target_frozen_values():
    assert analysis_size_target(2.0, 0.5) == pytest.approx(0.0044423013851123964, rel=1e-12)
    assert analysis_size_target(4.0, 0.5) == pytest.approx(0.0011062456233273645, rel=1e-12)
    assert analysis_size_target(2.0, 1.0) == pytest.approx(0.0022738237633010224, rel=1e-12)
    with pytest.raises(ValueError):
        analysis_size_target(0.0, 0.5)
    with pytest.raises(ValueError):
        analysis_size_target(2.0, 0.0)


def test_round_once_is_first_trial_of_round_many():
    n, k = 8, 2
    graph, _ = planted_instance(n, k, 0.0, seed=3)
    sol = indicator_solution(n, range(k), range(k))
    params = RoundingParams.for_instance(n, k, trials=16, seed=11)
    single = round_once(sol, graph, params)
    run = round_many(sol, graph, params)
    assert single == run.outcomes[0]


def test_round_many_reproducible():
    n, k = 8, 2
    graph, _ = planted_instance(n, k, 0.2, seed=5)
    sol = indicator_solution(n, range(k), range(k))
    params = RoundingParams.for_instance(n, k, trials=24, seed=2)
    first = round_many(sol, graph, params)
    second = round_many(sol, graph, params)
    assert first.outcomes == second.outcomes
    assert first.best == second.best


def test_round_many_on_indicator_planted():
    n, k = 8, 2
    graph, planted = planted_instance(n, k, 0.0, seed=3)
    left = planted.biclique.left
    right = planted.biclique.right
    sol = indicator_solution(n, left, right)
    params = RoundingParams.for_instance(n, k, trials=32, seed=0)
    run = round_many(sol, graph, params)
    # all member unit vectors coincide with the anchor, so each trial keeps
    # either every planted vertex or none of them
    for outcome in run.outcomes:
        assert outcome.left_survivors in ((), left)
        assert outcome.right_survivors in ((), right)
    assert run.extraction_count >= 1
    assert run.best is not None
    assert verify_biclique(graph, run.best.left, run.best.right)


def test_round_many_best_is_largest_then_earliest(solved_planted):
    case = next(c for c in solved_planted if (c.n, c.p) == (16, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    params = RoundingParams.for_instance(case.n, case.k, trials=40, seed=7)
    run = round_many(sol, case.graph, params)
    found = [o.biclique for o in run.outcomes if o.biclique is not None]
    assert found, "expected at least one extraction on a solved planted instance"
    best_size = max(b.size for b in found)
    assert run.best.size == best_size
    assert run.best == next(b for b in found if b.size == best_size)
    for outcome in run.outcomes:
        assert outcome.potential == outcome.edges - 2 * outcome.r_target * outcome.non_edges
        assert outcome.event_held == (outcome.potential >= 2 * case.n * outcome.r_target)


def test_rounding_requires_matching_sides():
    graph, _ = planted_instance(8, 2, 0.0, seed=3)
    params = RoundingParams.for_instance(8, 2, trials=1)
    off = indicator_solution(6, [0], [0])
    with pytest.raises(ValueError):
        round_once(off, graph, params)


def test_zero_threshold_drops_degenerate_members():
    n, k = 8, 2
    graph, _ = planted_instance(n, k, 0.0, seed=3)
    sol = indicator_solution(n, range(k), range(k))
    params = RoundingParams(ratio=4.0, tau=0.5, trials=1, heavy_threshold=0.0, seed=0)
    outcome = round_once(sol, graph, params)
    dropped = set(outcome.dropped_members)
    expected = {("U", i) for i in range(k, n)} | {("V", j) for j in range(k, n)}
    assert dropped == expected
    assert set(outcome.left_survivors) <= set(range(k))
    assert set(outcome.right_survivors) <= set(range(k))


def test_diagnostics_on_indicator():
    n, k = 16, 4
    graph, planted = planted_instance(n, k, 0.0, seed=9)
    sol = indicator_solution(n, planted.biclique.left, planted.biclique.right)
    diag = diagnostics(sol, graph, RoundingParams.for_instance(n, k, tau=0.5))
    assert diag.left_heavy == planted.biclique.left
    assert diag.right_heavy == planted.biclique.right
    assert diag.pair_mass == float(k * k)
    assert diag.pair_mass_floor == 0.75 * k * k
    assert diag.pair_mass_ok
    assert diag.positive_pairs == k * k
    assert diag.positive_pairs_ok
    assert diag.positive_pairs_within_edges
    assert diag.analysis_r == pytest.approx(0.0011062456233273645, rel=1e-12)
    assert diag.guarantee_value == pytest.approx(n ** (1.0 / (1000.0 * 4.0)), rel=1e-12)
    assert diag.guarantee_value < 2.0  # vacuous at desk scale, by design


def test_weak_gap_solution_defeats_rounding():
    # the half-half certificate is feasible on the empty graph, where no
    # biclique exists; rounding must come back empty-handed rather than
    # inventing one
    n = 4
    sol = gram_to_vectors(weak_gap_solution(n), sides=(n, n))
    graph = empty_bipartite(n, n)
    diag = diagnostics(sol, graph, RoundingParams.for_instance(n, 2))
    assert len(diag.left_heavy) == n and len(diag.right_heavy) == n
    assert abs(diag.pair_mass) < 1e-7
    assert not diag.pair_mass_ok
    assert diag.positive_pairs == 0
    assert not diag.positive_pairs_ok
    params = RoundingParams.for_instance(2 * n, n, trials=64, seed=1)
    params = RoundingParams(
        ratio=2.0,
        tau=params.tau,
        trials=64,
        heavy_threshold=1.0 / 16.0,
        seed=1,
    )
    run = round_many(sol, graph, params)
    assert run.best is None
    assert run.event_count == 0
    assert run.extraction_count == 0


def test_rounding_solved_instance_end_to_end(solved_planted):
    case = next(c for c in solved_planted if (c.n, c.k, c.p) == (8, 2, 0.0))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    params = RoundingParams.for_instance(case.n, case.k, trials=48, seed=5)
    run = round_many(sol, case.graph, params)
    assert run.best is not None
    assert verify_biclique(case.graph, run.best.left, run.best.right)
    diag = diagnostics(sol, case.graph, params)
    assert diag.pair_mass_ok
    assert diag.positive_pairs_ok
    assert diag.positive_pairs_within_edges


def _run_digest(run):
    """sha256 of a run's best biclique and every trial outcome, serialized."""
    text = json.dumps(
        {
            "best": None if run.best is None else dataclasses.asdict(run.best),
            "outcomes": [dataclasses.asdict(o) for o in run.outcomes],
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _memo_cases(solved_planted):
    # p = 0 indicator: every trial keeps all planted members or none, so
    # masks repeat; (8, 2, 0.2) solved: most of its 64 masks are distinct;
    # (16, 4, 0.2) solved: a second repeated-mask case off a real solution.
    graph, planted = planted_instance(8, 2, 0.0, seed=3)
    sol = indicator_solution(8, planted.biclique.left, planted.biclique.right)
    yield graph, sol, RoundingParams.for_instance(8, 2, trials=64, seed=0)
    for n, p in ((8, 0.2), (16, 0.2)):
        case = next(c for c in solved_planted if (c.n, c.p) == (n, p))
        sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
        yield case.graph, sol, RoundingParams.for_instance(case.n, case.k, trials=64, seed=3)


def test_round_many_memo_matches_round_once_per_trial(solved_planted, monkeypatch):
    rows = []  # rows handed to the extraction kernel, per call
    attempts = []  # rows cleaned, per size target tried
    kernel = rounding_module.extract_rows
    clean = extraction_module._clean_rows

    def counting(adj, left, right, r, n, retry=False):
        rows.append(len(left))
        return kernel(adj, left, right, r, n, retry)

    def counting_clean(adj, left, right, r, log=None):
        attempts.append(len(left))
        return clean(adj, left, right, r, log)

    monkeypatch.setattr(rounding_module, "extract_rows", counting)
    monkeypatch.setattr(extraction_module, "_clean_rows", counting_clean)
    distinct_counts = []
    for graph, sol, params in _memo_cases(solved_planted):
        rows.clear()
        attempts.clear()
        run = round_many(sol, graph, params)
        kernel_rows = list(rows)
        cleaned_rows = sum(attempts)
        for t, outcome in enumerate(run.outcomes):
            single = round_once(sol, graph, params, rng=np.random.default_rng((params.seed, t)))
            assert outcome == single
        masks = {(o.left_survivors, o.right_survivors) for o in run.outcomes}
        assert run.distinct_sets == len(masks)
        distinct_counts.append(len(masks))
        # extraction takes one row per distinct mask with both sides
        # nonempty, in one call, and cleans each at each r from r_hi down
        # at most once
        bound = 0
        nonempty = 0
        for left, right in masks:
            if left and right:
                nonempty += 1
                rep = next(o for o in run.outcomes if (o.left_survivors, o.right_survivors) == (left, right))
                n_local = max(len(left), len(right))
                r_best = rep.edges // (2 * rep.non_edges + 2 * n_local)
                bound += min(len(left), len(right), max(rep.r_target, r_best))
        assert kernel_rows == [nonempty]
        assert cleaned_rows <= bound
        assert cleaned_rows >= nonempty >= 1
        assert run.extraction_count >= 1
    assert distinct_counts[0] <= 2 < 32 <= distinct_counts[1]


def test_round_many_certifies_each_distinct_biclique_once(solved_planted, monkeypatch):
    case = next(c for c in solved_planted if (c.n, c.p) == (8, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    params = RoundingParams.for_instance(case.n, case.k, trials=64, seed=3)
    checked = []
    verify = graphs_module.verify_biclique

    def counting(graph, left, right):
        checked.append((tuple(left), tuple(right)))
        return verify(graph, left, right)

    monkeypatch.setattr(graphs_module, "verify_biclique", counting)
    run = round_many(sol, case.graph, params)
    found = [o.biclique for o in run.outcomes if o.biclique is not None]
    distinct = {(b.left, b.right) for b in found}
    assert len(checked) == len(distinct) >= 1
    assert set(checked) == distinct
    # repeats across distinct survivor sets reuse the certified biclique
    masks_with_biclique = {(o.left_survivors, o.right_survivors) for o in run.outcomes if o.biclique is not None}
    assert len(distinct) < len(masks_with_biclique)

    # a kernel that hands back a non-edge is caught by the certification
    prepared = rounding_module._prepare(sol, params)
    members = case.graph.dense()[np.ix_(prepared.left_members, prepared.right_members)]
    a, b = (int(x) for x in np.argwhere(~members)[0])

    def lying(adj, left, right, r, n, retry=False):
        picked_left, picked_right = np.zeros_like(left), np.zeros_like(right)
        picked_left[:, a] = picked_right[:, b] = True
        return picked_left, picked_right, np.ones(len(left), dtype=np.int64)

    monkeypatch.setattr(rounding_module, "extract_rows", lying)
    with pytest.raises(ValueError):
        round_many(sol, case.graph, params)


def test_diagnostics_reports_the_params_tau_clamp():
    n, k = 8, 2
    graph, planted = planted_instance(n, k, 0.2, seed=1008)
    sol = indicator_solution(n, planted.biclique.left, planted.biclique.right)
    for tau in (None, 0.5, 0.3, 1.25):
        params = RoundingParams.for_instance(n, k, tau=tau)
        diag = diagnostics(sol, graph, params)
        assert (diag.tau, diag.tau_clamped) == (params.tau, params.tau_clamped)
    assert diagnostics(sol, graph, RoundingParams.for_instance(n, k)).tau_clamped
    # the heavy cut is the params' too, not one worked out again from the ratio
    params = dataclasses.replace(RoundingParams.for_instance(n, k), heavy_threshold=2.0)
    diag = diagnostics(sol, graph, params)
    assert diag.left_heavy == diag.right_heavy == ()


def test_round_many_bytes_pinned(solved_planted):
    # digests recorded before extraction moved onto the array core and the
    # per-mask memo; the outcomes must not change by a byte
    case = next(c for c in solved_planted if (c.n, c.k, c.p) == (32, 8, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    run = round_many(sol, case.graph, RoundingParams.for_instance(case.n, case.k, trials=2000))
    assert _run_digest(run) == "3e489b4352a6c6d5619eb759011c6ff15de3084aa1d9b973a8d722735a254ebd"
    case = next(c for c in solved_planted if (c.n, c.k, c.p) == (8, 2, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    run = round_many(sol, case.graph, RoundingParams.for_instance(case.n, case.k))
    assert run.distinct_sets == 209
    assert _run_digest(run) == "8ee84845339d3e9926abfefade0f2fbcbd2439fa775293ca98059ada94f1d39d"


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70 + 3])
def test_round_many_draws_each_trials_own_gaussian_across_blocks(seed, monkeypatch):
    n, k = 8, 2
    graph, planted = planted_instance(n, k, 0.2, seed=5)
    sol = indicator_solution(n, planted.biclique.left, planted.biclique.right)
    block = rounding_module._BLOCK
    params = RoundingParams.for_instance(n, k, trials=2 * block + 3, seed=seed)
    drawn = []
    draw = rounding_module.seeded_normals

    def recording(seed, start, stop, dim):
        rows = draw(seed, start, stop, dim)
        drawn.append((start, stop, rows.copy()))
        return rows

    monkeypatch.setattr(rounding_module, "seeded_normals", recording)
    run = round_many(sol, graph, params)
    assert [(start, stop) for start, stop, _ in drawn] == [(0, block), (block, 2 * block), (2 * block, 2 * block + 3)]
    rows = np.concatenate([r for _, _, r in drawn])
    for t in (0, 1, block - 1, block, 2 * block - 1, 2 * block, 2 * block + 2):
        assert rows[t].tobytes() == np.random.default_rng((seed, t)).standard_normal(sol.dim).tobytes()
        assert run.outcomes[t] == round_once(sol, graph, params, rng=np.random.default_rng((seed, t)))


def test_round_many_recuts_a_trial_whose_product_sits_on_tau(solved_planted, monkeypatch):
    case = next(c for c in solved_planted if (c.n, c.p) == (8, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    params = RoundingParams.for_instance(case.n, case.k, trials=40, seed=3)
    unit = rounding_module._prepare(sol, params).unit_vectors
    t = 17
    g = np.random.default_rng((params.seed, t)).standard_normal(sol.dim)
    products = unit @ g
    member = int(products.argmax())
    assert products[member] > 0
    # tau equal to a product trial t computes: the member survives on >=, and
    # the block product may round either way, so the trial must be recut
    params = dataclasses.replace(params, tau=float(products[member]))
    prepared = rounding_module._prepare(sol, params)
    assert np.array_equal(prepared.unit_vectors, unit)
    recut = []
    cut = rounding_module._cut

    def spying(unit_vectors, row, tau):
        recut.append(row.copy())
        return cut(unit_vectors, row, tau)

    monkeypatch.setattr(rounding_module, "_cut", spying)
    run = round_many(sol, case.graph, params)
    assert any(row.tobytes() == g.tobytes() for row in recut)
    assert len(recut) < params.trials
    expected = round_once(sol, case.graph, params, rng=np.random.default_rng((params.seed, t)))
    assert run.outcomes[t] == expected
    members = [("U", int(i)) for i in prepared.left_members] + [("V", int(j)) for j in prepared.right_members]
    survivors = [("U", i) for i in expected.left_survivors] + [("V", j) for j in expected.right_survivors]
    assert members[member] in survivors


def test_round_many_without_members_draws_nothing(monkeypatch):
    n, k = 8, 2
    graph, _ = planted_instance(n, k, 0.2, seed=5)
    sol = indicator_solution(n, range(k), range(k))
    trials = rounding_module._BLOCK + 7
    # no vertex reaches a mass threshold of 2, so no trial has a member
    params = RoundingParams(ratio=4.0, tau=0.5, trials=trials, heavy_threshold=2.0, seed=1)
    monkeypatch.setattr(rounding_module, "seeded_normals", None)
    run = round_many(sol, graph, params)
    assert len(run.outcomes) == trials
    assert run.distinct_sets == 1
    assert run.best is None
    assert all(o.left_survivors == () and o.right_survivors == () for o in run.outcomes)
    assert run.outcomes[0] == round_once(sol, graph, params)


def test_round_many_dedups_across_chunks(solved_planted, monkeypatch):
    # one chunk per block: sets seen in an earlier chunk keep their id, new
    # ones are numbered in order of first appearance, and the sets are
    # scored a block at a time, so the run is the same
    case = next(c for c in solved_planted if (c.n, c.p) == (8, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    params = RoundingParams.for_instance(case.n, case.k, trials=3 * rounding_module._BLOCK + 5, seed=3)
    whole = round_many(sol, case.graph, params)
    monkeypatch.setattr(rounding_module, "_CHUNK", rounding_module._BLOCK)
    chunked = round_many(sol, case.graph, params)
    assert chunked.outcomes == whole.outcomes
    assert (chunked.best, chunked.distinct_sets) == (whole.best, whole.distinct_sets)
    assert (chunked.event_count, chunked.extraction_count) == (whole.event_count, whole.extraction_count)
    assert rounding_module._BLOCK < whole.distinct_sets < params.trials


def test_round_many_builds_outcomes_only_when_read(solved_planted):
    case = next(c for c in solved_planted if (c.n, c.p) == (8, 0.2))
    sol = gram_to_vectors(case.outcome.gram, sides=(case.n, case.n))
    run = round_many(sol, case.graph, RoundingParams.for_instance(case.n, case.k, trials=64, seed=3))
    assert "outcomes" not in vars(run)
    outcomes = run.outcomes
    assert run.outcomes is outcomes and len(outcomes) == 64
    assert run.event_count == sum(o.event_held for o in outcomes)
    assert run.extraction_count == sum(o.biclique is not None for o in outcomes)
