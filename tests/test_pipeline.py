import csv
import hashlib
import json
import math

import numpy as np
import pytest

from conftest import PLANTED_CASES, reference_peel

from mbb_sdp import (
    FEASIBLE,
    PipelineConfig,
    SolverConfig,
    approximate_mbb,
    build_strong_relaxation,
    check_feasibility,
    common_neighbour_cores,
    complete_bipartite,
    empty_bipartite,
    exact_mbb,
    greedy_baseline,
    induced_subgraph,
    new_bipartite,
    planted_instance,
    run_experiment,
    serialize_graph,
    solve_feasibility,
    verify_biclique,
)
from mbb_sdp import pipeline as pipeline_module

FAST_SOLVER = SolverConfig(eps_feas=1e-7)


def fast_config(**kwargs):
    kwargs.setdefault("solver", FAST_SOLVER)
    kwargs.setdefault("trials", 64)
    return PipelineConfig(**kwargs)


def test_baseline_fixed_cases():
    assert greedy_baseline(complete_bipartite(3, 3)).size == 3
    assert greedy_baseline(empty_bipartite(4, 4)).size == 0
    matching = new_bipartite(4, 4, [(i, i) for i in range(4)])
    found = greedy_baseline(matching)
    assert found.size == 1
    assert found.left == (0,) and found.right == (0,)  # ties go to the lowest index


def test_baseline_keeps_best_prefix():
    # the third pick cannot grow the balanced size, so the 2x2 prefix wins
    g = new_bipartite(3, 4, [(0, j) for j in range(4)] + [(1, 0), (1, 1), (2, 0), (2, 1)])
    found = greedy_baseline(g)
    assert found.size == 2
    assert verify_biclique(g, found.left, found.right)


def test_baseline_never_beats_exact():
    rng = np.random.default_rng(50)
    for trial in range(30):
        n_u = int(rng.integers(1, 9))
        n_v = int(rng.integers(1, 9))
        mask = rng.random((n_u, n_v)) < rng.random()
        g = new_bipartite(n_u, n_v, [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))])
        found = greedy_baseline(g)
        assert verify_biclique(g, found.left, found.right)
        assert found.size <= exact_mbb(g).size
        if g.num_edges > 0:
            assert found.size >= 1


def core_cap(graph):
    return len(common_neighbour_cores(graph))


def test_core_cap_bounds():
    assert core_cap(complete_bipartite(6, 6)) == 6
    assert core_cap(new_bipartite(5, 5, [(0, 0)])) == 1
    # the cap never prunes the planted size: that biclique survives every peel
    for seed in range(8):
        g, planted = planted_instance(12, 3, 0.15, seed=seed)
        assert core_cap(g) >= planted.biclique.size
    # a pure planted block pins the cap exactly
    g, _ = planted_instance(10, 3, 0.0, seed=1)
    assert core_cap(g) == 3


class _FakeVerdicts:
    """Stands in for the k-search's feasibility tester: fixed verdicts, no
    SDP, every query logged."""

    def __init__(self, feasible_ks):
        self.feasible_ks = frozenset(feasible_ks)
        self.queries = []

    def feasible(self, k):
        self.queries.append(k)
        return k in self.feasible_ks


def _check_scan(feasible_ks, k_hi):
    oracle = _FakeVerdicts(feasible_ks)
    k_star = pipeline_module._scan_descending(oracle, k_hi)
    in_range = [k for k in feasible_ks if k <= k_hi]
    assert k_star == (max(in_range) if in_range else None)
    # exactly k_hi, k_hi - 1, ..., k*, top down: nothing below k* is solved
    bottom = 1 if k_star is None else k_star
    assert oracle.queries == list(range(k_hi, bottom - 1, -1))


@pytest.mark.parametrize(
    "feasible_ks, k_hi",
    [
        ({4, 10}, 12),  # a top two steps above the largest feasible k
        ({4, 10}, 40),  # the same verdicts scanned from the side size
    ],
)
def test_scan_descending_stops_at_the_largest_feasible_k(feasible_ks, k_hi):
    _check_scan(feasible_ks, k_hi)


def test_scan_descending_on_every_small_verdict_set():
    ks = range(1, 7)
    for mask in range(1 << len(ks)):
        feasible_ks = {k for k in ks if mask >> (k - 1) & 1}
        for k_hi in ks:
            _check_scan(feasible_ks, k_hi)


def plain_cores(graph):
    """The nonempty plain (k,k)-cores for k = 1, 2, ..., from the reference peel."""
    adj = graph.dense()
    cores = []
    for k in range(1, min(adj.shape) + 1):
        left, right = reference_peel(adj, k, partners=False)
        if not left:
            break
        cores.append((np.array(left, dtype=np.intp), np.array(right, dtype=np.intp)))
    return cores


def test_core_solves_are_certified_on_the_whole_graph():
    # conftest's planted instances, plus a dense graph whose plain (k,k)-cores
    # above k* are nonempty and come back infeasible.  The search is fed the
    # plain cores so that the whole-graph fallback stays exercised: the
    # common-neighbour cap of that graph is its k*.
    graphs = [planted_instance(n, k, p, seed=1000 + n)[0] for n, k, p in PLANTED_CASES]
    graphs.append(planted_instance(20, 4, 0.4, seed=0)[0])
    config = PipelineConfig()
    fallbacks = 0
    for g in graphs:
        cores = plain_cores(g)
        searcher = pipeline_module._KSearch(g, config, cores)
        assert pipeline_module._scan_descending(searcher, len(cores)) is not None
        for rec in searcher.per_k():
            k = rec["k"]
            left, right = cores[k - 1]
            assert rec["core"] == [left.size, right.size]
            whole = build_strong_relaxation(g, k)
            if rec["status"] == FEASIBLE:
                gram = searcher.solutions[k].gram
                assert check_feasibility(whole, gram, config.solver.eps_feas).passed
            core, _, _ = induced_subgraph(g, left, right)
            proper = core.n_u + core.n_v < g.n_u + g.n_v
            core_status = solve_feasibility(build_strong_relaxation(core, k), config.solver).status
            if proper and core_status == FEASIBLE:
                assert rec["solved_on"] == "core" and rec["status"] == FEASIBLE
            else:
                assert rec["solved_on"] == "graph"
                assert rec["status"] == solve_feasibility(whole, config.solver).status
                fallbacks += proper
    assert fallbacks == 2  # k = 5 and 6 on (20, 4, 0.4)


def test_dense_planted_graph_solves_once_on_its_common_neighbour_core():
    # the plain (k,k)-core cap is 6 here, and k = 5 and 6 are infeasible
    g, _ = planted_instance(20, 4, 0.4, seed=0)
    _, report = approximate_mbb(g)
    assert report.search["core_cap"] == report.search["k_star"] == 4
    (row,) = report.search["per_k"]
    assert (row["k"], row["solved_on"], row["core"], row["status"]) == (4, "core", [17, 19], FEASIBLE)


@pytest.mark.parametrize("n, k, p", [(48, 8, 0.3), (64, 8, 0.3), (64, 12, 0.4)])
def test_noisy_planted_graph_solves_once_on_the_planted_block(n, k, p):
    g, _ = planted_instance(n, k, p, seed=0)
    _, report = approximate_mbb(g)
    assert report.search["core_cap"] == k
    assert len(report.search["per_k"]) == 1
    assert report.search["k_star"] >= exact_mbb(g, size_limit=64).size


def test_config_validation():
    with pytest.raises(ValueError, match="k_hi"):
        PipelineConfig(k_hi=0)
    with pytest.raises(ValueError, match="seed"):
        PipelineConfig(seed=-1)
    with pytest.raises(ValueError, match="trials"):
        PipelineConfig(trials=0)
    with pytest.raises(ValueError, match="trials"):
        PipelineConfig(trials=2**32 + 1)
    assert PipelineConfig(trials=None).trials is None


def test_config_rejects_wrong_types_by_key():
    for key, value in (
        ("k_hi", 2.5),
        ("k_hi", True),
        ("trials", 8.0),
        ("trials", False),
        ("seed", "3"),
        ("seed", True),
        ("seed", None),
        ("use_exact", "false"),
        ("use_exact", 1),
    ):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            PipelineConfig(**{key: value})
    for key, value in (("max_iterations", True), ("max_iterations", 500.0), ("eps_feas", "1e-6"), ("eps_feas", False)):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SolverConfig(**{key: value})
    # numpy scalars are integers and numbers too
    assert PipelineConfig(k_hi=np.int64(3), seed=np.int64(1)).k_hi == 3
    assert SolverConfig(eps_feas=np.float64(1e-6), max_iterations=np.int32(10)).max_iterations == 10


def test_pipeline_on_pure_planted_block():
    g, _ = planted_instance(8, 2, 0.0, seed=3)
    best, report = approximate_mbb(g, fast_config(use_exact=True))
    assert best.size == 2
    assert verify_biclique(g, best.left, best.right)
    assert report.search["k_star"] == 2
    assert report.search["anomalies"] == []
    assert report.exact["size"] == 2
    # the core cap pins the search's top to the planted size: nothing above it is solved
    assert report.search["core_cap"] == 2
    assert all(rec["k"] <= 2 for rec in report.search["per_k"])
    assert report.rounding is not None
    assert report.diagnostics is not None
    assert report.diagnostics["pair_mass_ok"]


def test_pipeline_on_complete_graph():
    g = complete_bipartite(6, 6)
    best, report = approximate_mbb(g, fast_config())
    assert best.size == 6
    assert report.search["k_star"] == 6
    assert report.best["method"] == "baseline"  # rounding extraction is capped lower
    assert report.baseline["size"] == 6


def test_pipeline_empty_graph():
    best, report = approximate_mbb(empty_bipartite(5, 5), fast_config())
    assert best.size == 0
    assert report.search["k_star"] is None
    assert report.search["per_k"] == []
    assert report.rounding is None
    assert report.best["method"] == "none"


def test_pipeline_single_edge():
    g = new_bipartite(3, 3, [(1, 2)])
    best, report = approximate_mbb(g, fast_config())
    assert best.size == 1
    assert best.left == (1,) and best.right == (2,)
    assert report.search["k_star"] == 1


def test_pipeline_scan_finds_planted_k():
    for seed in (0, 1, 2):
        g, _ = planted_instance(10, 3, 0.0, seed=seed)
        _, report = approximate_mbb(g, fast_config())
        assert report.search["k_star"] == 3


def test_pipeline_k_hi_limits_search():
    g, _ = planted_instance(8, 2, 0.0, seed=3)
    best, report = approximate_mbb(g, fast_config(k_hi=1))
    assert report.search["k_star"] == 1
    assert all(rec["k"] <= 1 for rec in report.search["per_k"])


def test_report_serialization_schema():
    g, _ = planted_instance(8, 2, 0.0, seed=3)
    best, report = approximate_mbb(g, fast_config(use_exact=True))
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "instance",
        "config",
        "search",
        "rounding",
        "diagnostics",
        "baseline",
        "exact",
        "best",
        "rng_algorithm",
    }
    assert payload == report.to_dict()
    assert "timings" not in payload
    timed = report.to_dict(include_timings=True)
    assert "search" in timed["timings"] and "total" in timed["timings"]
    per_k = timed["timings"]["per_k"]
    assert [row["k"] for row in per_k] == [rec["k"] for rec in payload["search"]["per_k"]]
    assert all(0.0 <= row["seconds"] <= timed["timings"]["search"] for row in per_k)
    assert payload["instance"] == {"n_u": 8, "n_v": 8, "edges": g.num_edges}
    assert payload["config"]["seed"] == 0
    assert payload["best"]["method"] in ("sdp-rounding", "baseline", "exact")
    assert verify_biclique(g, payload["best"]["left"], payload["best"]["right"])


def test_pipeline_deterministic_given_seed():
    g, _ = planted_instance(8, 2, 0.2, seed=5)
    _, first = approximate_mbb(g, fast_config(seed=4))
    _, second = approximate_mbb(g, fast_config(seed=4))
    assert first.to_json() == second.to_json()


def write_spec(path, runs, **extra):
    spec = {"runs": runs}
    spec.update(extra)
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def test_run_experiment_end_to_end(tmp_path):
    graph_file = tmp_path / "tiny.graph"
    graph_file.write_text(serialize_graph(complete_bipartite(3, 3)), encoding="utf-8")
    runs = [
        {
            "name": "planted-a",
            "generator": {"type": "planted", "n": 8, "k": 2, "p": 0.0, "seed": 3},
            "config": {"trials": 64, "eps_feas": 1e-7},
            "exact": True,
        },
        {
            "generator": {"type": "complete", "n_u": 3, "n_v": 4},
            "config": {"trials": 16},
        },
        {
            "name": "from-file",
            "generator": {"type": "file", "path": "tiny.graph"},
            "config": {"trials": 16},
        },
        {
            "name": "void",
            "generator": {"type": "empty", "n_u": 4, "n_v": 4},
            "config": {},
        },
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    csv_path = run_experiment(spec, output_dir=tmp_path / "out")
    assert csv_path.name == "aggregate.csv"
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["instance"] for r in rows] == ["planted-a", "run-1", "from-file", "void"]
    assert rows[0]["planted_k"] == "2"
    assert rows[0]["found_size"] == "2"
    assert rows[0]["exact_size"] == "2"
    assert rows[1]["found_size"] == "3"
    assert rows[2]["found_size"] == "3"
    assert rows[3]["found_size"] == "0"
    assert all(r["time"] == "" for r in rows)
    report = json.loads((tmp_path / "out" / "planted-a.json").read_text(encoding="utf-8"))
    assert report["best"]["size"] == 2
    assert "timings" not in report


def test_run_experiment_reruns_byte_identical(tmp_path):
    runs = [
        {
            "name": "p",
            "generator": {"type": "planted", "n": 8, "k": 2, "p": 0.2, "seed": 7},
            "config": {"trials": 32, "seed": 9, "eps_feas": 1e-7},
        }
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    first = run_experiment(spec, output_dir=tmp_path / "a")
    second = run_experiment(spec, output_dir=tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a" / "p.json").read_bytes() == (tmp_path / "b" / "p.json").read_bytes()


def test_run_experiment_error_rows_do_not_stop_the_batch(tmp_path):
    runs = [
        {
            "name": "good",
            "generator": {"type": "planted", "n": 6, "k": 2, "p": 0.0, "seed": 1},
            "config": {"trials": 16, "eps_feas": 1e-7},
        },
        {"name": "broken", "generator": {"type": "file", "path": "missing.graph"}},
        {
            "name": "also-good",
            "generator": {"type": "complete", "n_u": 2, "n_v": 2},
            "config": {"trials": 8},
        },
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    csv_path = run_experiment(spec, output_dir=tmp_path / "out")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["instance"] for r in rows] == ["good", "broken", "also-good"]
    assert rows[1]["method"] == "error"
    assert rows[1]["found_size"] == ""
    assert rows[0]["found_size"] == "2"
    assert rows[2]["found_size"] == "2"


def test_run_experiment_rejects_infinite_eps_feas(tmp_path):
    runs = [{"name": "loose", "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {"eps_feas": math.inf}}]
    spec = write_spec(tmp_path / "spec.json", runs)
    assert "Infinity" in spec.read_text(encoding="utf-8")
    csv_path = run_experiment(spec, output_dir=tmp_path / "out")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["error"]
    report = json.loads((tmp_path / "out" / "loose.json").read_text(encoding="utf-8"))
    assert "eps_feas must be positive and finite" in report["error"]["message"]


def test_run_experiment_empty_spec(tmp_path):
    spec = write_spec(tmp_path / "spec.json", [])
    csv_path = run_experiment(spec, output_dir=tmp_path / "out")
    text = csv_path.read_text(encoding="utf-8")
    assert text == "instance,n,planted_k,found_size,exact_size,method,time\n"


def test_run_experiment_timings_opt_in(tmp_path):
    runs = [
        {
            "name": "timed",
            "generator": {"type": "complete", "n_u": 2, "n_v": 2},
            "config": {"trials": 8},
        }
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    csv_path = run_experiment(spec, output_dir=tmp_path / "out", include_timings=True)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["time"]) >= 0.0
    report = json.loads((tmp_path / "out" / "timed.json").read_text(encoding="utf-8"))
    assert "timings" in report


def test_run_experiment_records_run_errors(tmp_path, capsys):
    runs = [
        {"name": "broken", "generator": {"type": "file", "path": "missing.graph"}},
        {"name": "bad-kind", "generator": {"type": "nope"}},
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["error", "error"]
    broken = json.loads((out / "broken.json").read_text(encoding="utf-8"))
    assert broken["error"]["type"] == "FileNotFoundError"
    assert "missing.graph" in broken["error"]["message"]
    bad_kind = json.loads((out / "bad-kind.json").read_text(encoding="utf-8"))
    assert bad_kind == {"error": {"type": "ValueError", "message": "unknown generator type 'nope'"}}
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 2
    assert err_lines[0].startswith("mbb: run broken failed: FileNotFoundError: ")
    assert err_lines[1] == "mbb: run bad-kind failed: ValueError: unknown generator type 'nope'"


def _tiny_run(name):
    return {"name": name, "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {"trials": 8}}


def test_run_experiment_rejects_shared_run_names(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", [_tiny_run("a"), _tiny_run("b"), _tiny_run("a")])
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["method"]) for r in rows] == [("a", "error"), ("b", "baseline"), ("a", "error")]
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "b.json"]
    assert capsys.readouterr().err.splitlines() == [
        "mbb: run a failed: ValueError: run name 'a' is shared by 2 runs"
    ] * 2


def test_run_experiment_rejects_path_like_run_names(tmp_path, capsys):
    names = ["../../escaped", "", ".", "..", "sub/x", "back\\slash", "ok"]
    spec = write_spec(tmp_path / "spec.json", [_tiny_run(name) for name in names])
    out = tmp_path / "deep" / "er" / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["instance"] for r in rows] == names
    assert [r["method"] for r in rows] == ["error"] * 6 + ["baseline"]
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "ok.json"]
    assert sorted(p.name for p in (tmp_path / "deep").iterdir()) == ["er"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6
    assert err[0] == "mbb: run ../../escaped failed: ValueError: run name '../../escaped' is not a plain file name"


def test_run_experiment_rejects_unknown_config_keys(tmp_path):
    # settings the config once had and no longer takes
    retired = {
        "backend": "dykstra",
        "k_lo": 1,
        "tau": 0.5,
        "use_baseline": True,
        "exact_size_limit": 24,
        "plateau_window": 1000,
    }
    runs = [
        {"name": key, "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {key: value}}
        for key, value in retired.items()
    ]
    runs.append(
        {
            "name": "known",
            "generator": {"type": "complete", "n_u": 2, "n_v": 2},
            "config": {"trials": 8, "max_iterations": 500, "k_hi": 2},
        }
    )
    spec = write_spec(tmp_path / "spec.json", runs)
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["error"] * len(retired) + ["baseline"]
    for key in retired:
        error = json.loads((out / f"{key}.json").read_text(encoding="utf-8"))["error"]
        assert error == {"type": "ValueError", "message": f"unknown config keys {[key]}"}


def test_run_experiment_turns_a_non_object_run_entry_into_an_error_row(tmp_path, capsys):
    spec = write_spec(tmp_path / "spec.json", [1, _tiny_run("ok"), ["x"]])
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["method"]) for r in rows] == [
        ("run-0", "error"),
        ("ok", "baseline"),
        ("run-2", "error"),
    ]
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "ok.json"]
    assert capsys.readouterr().err.splitlines() == [
        "mbb: run run-0 failed: ValueError: run entry 1 is not a JSON object",
        'mbb: run run-2 failed: ValueError: run entry ["x"] is not a JSON object',
    ]


def test_report_config_echoes_the_spec_keys():
    g, _ = planted_instance(8, 2, 0.2, seed=3)
    config = PipelineConfig(
        k_hi=3,
        solver=SolverConfig(eps_feas=2e-7, max_iterations=9000),
        trials=16,
        seed=5,
        use_exact=True,
    )
    _, report = approximate_mbb(g, config)
    echo = json.loads(report.to_json())["config"]
    assert set(echo) == pipeline_module._SOLVER_KEYS | pipeline_module._PIPELINE_KEYS
    assert pipeline_module._config_from_dict(echo) == config


def test_run_experiment_rejects_solver_settings_that_give_wrong_verdicts(tmp_path):
    runs = [
        {"name": "flat", "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {"max_iterations": 0}},
        {"name": "ok", "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {"trials": 8}},
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["error", "baseline"]
    error = json.loads((out / "flat.json").read_text(encoding="utf-8"))["error"]
    assert error == {"type": "ValueError", "message": "max_iterations must be at least 1, got 0"}


def test_run_experiment_leaves_no_temp_files(tmp_path):
    runs = [
        {"name": "c", "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {"trials": 8}}
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    out = tmp_path / "out"
    run_experiment(spec, output_dir=out)
    run_experiment(spec, output_dir=out)  # rewrites existing files in place
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "c.json"]


def test_write_text_atomic_keeps_old_file_on_failure(tmp_path):
    target = tmp_path / "report.json"
    pipeline_module.write_text_atomic(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        pipeline_module.write_text_atomic(target, "new \ud800\n")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_default_report_bytes_pinned():
    # conftest's (16, 4, 0.2) instance under the default config; digest
    # recorded when the equality projection moved from an LU factor of
    # C C^T to its pseudo-inverse, which moved two floats in their last
    # digits (diagnostics.pair_mass and per_k[0].max_violation) and changed
    # nothing else in the report
    g, _ = planted_instance(16, 4, 0.2, seed=1016)
    _, report = approximate_mbb(g, PipelineConfig())
    assert report.search["k_star"] == 4
    assert report.best == {"method": "baseline", "size": 4, "left": [3, 7, 8, 13], "right": [3, 4, 6, 7]}
    text = report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cddaaec3c445e2c9de2e6805ef5c5bb14099b20fa70be6a78368de8b6c1de74f"
    )


def test_default_tau_clamp_agrees_across_the_report():
    # n = 8 sits below the default tau's floor, so the default run clamps it
    g, _ = planted_instance(8, 2, 0.2, seed=1008)
    _, report = approximate_mbb(g, PipelineConfig())
    assert report.rounding["tau"] == report.diagnostics["tau"] == 0.5
    assert report.rounding["tau_clamped"] is True
    assert report.diagnostics["tau_clamped"] is True


def test_run_experiment_reads_exact_as_a_json_boolean(tmp_path):
    runs = [
        dict(_tiny_run("quoted"), exact="false"),
        {"name": "flag", "generator": {"type": "complete", "n_u": 2, "n_v": 2}, "config": {"use_exact": "false"}},
        dict(_tiny_run("off"), exact=False),
    ]
    spec = write_spec(tmp_path / "spec.json", runs)
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["instance"], r["method"], r["exact_size"]) for r in rows] == [
        ("quoted", "error", ""),
        ("flag", "error", ""),
        ("off", "baseline", ""),
    ]
    assert json.loads((out / "quoted.json").read_text(encoding="utf-8"))["error"] == {
        "type": "ValueError",
        "message": 'exact must be true or false, got "false"',
    }
    assert json.loads((out / "flag.json").read_text(encoding="utf-8"))["error"] == {
        "type": "ValueError",
        "message": "use_exact must be true or false, got 'false'",
    }
    assert json.loads((out / "off.json").read_text(encoding="utf-8"))["config"]["use_exact"] is False


def test_run_experiment_names_a_null_name_by_its_index(tmp_path):
    spec = write_spec(tmp_path / "spec.json", [_tiny_run("first"), dict(_tiny_run("x"), name=None)])
    out = tmp_path / "out"
    csv_path = run_experiment(spec, output_dir=out)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert [r["instance"] for r in csv.DictReader(fh)] == ["first", "run-1"]
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "first.json", "run-1.json"]
