import json

import pytest

from mbb_sdp import parse_graph, verify_biclique
from mbb_sdp.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def make_planted_file(tmp_path, capsys, name="g.graph", n=8, k=2, p=0.0, seed=3):
    path = tmp_path / name
    rc, _, _ = run_cli(
        capsys,
        "generate",
        "--type",
        "planted",
        "--n",
        str(n),
        "--k",
        str(k),
        "--p",
        str(p),
        "--seed",
        str(seed),
        "-o",
        str(path),
    )
    assert rc == 0
    return path


def test_generate_planted_with_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    rc, out, err = run_cli(
        capsys,
        "generate",
        "--n",
        "8",
        "--k",
        "2",
        "--seed",
        "3",
        "--certificate",
        str(cert),
    )
    assert rc == 0
    graph = parse_graph(out)
    assert (graph.n_u, graph.n_v) == (8, 8)
    payload = json.loads(cert.read_text(encoding="utf-8"))
    assert payload["seed"] == 3
    assert verify_biclique(graph, payload["planted"]["left"], payload["planted"]["right"])


def test_generate_complete_and_empty(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "generate", "--type", "complete", "--n-u", "3", "--n-v", "4")
    assert rc == 0
    graph = parse_graph(out)
    assert (graph.n_u, graph.n_v, graph.num_edges) == (3, 4, 12)
    rc, out, _ = run_cli(capsys, "generate", "--type", "empty", "--n", "5")
    assert rc == 0
    graph = parse_graph(out)
    assert (graph.n_u, graph.n_v, graph.num_edges) == (5, 5, 0)


def test_generate_rejects_an_explicit_empty_side(capsys):
    # --n-u 0 is a size, not a missing flag: it must not fall back to --n
    for kind in ("empty", "complete"):
        rc, out, err = run_cli(capsys, "generate", "--type", kind, "--n", "4", "--n-u", "0")
        assert rc == 1
        assert out == ""
        assert "both sides must be nonempty" in err
    rc, out, err = run_cli(capsys, "generate", "--type", "empty", "--n-u", "3")
    assert rc == 1
    assert "needs --n, or --n-u and --n-v" in err


def test_generate_planted_requires_n_and_k(capsys):
    rc, _, err = run_cli(capsys, "generate", "--type", "planted", "--n", "8")
    assert rc == 1
    assert "mbb: error:" in err


def test_exact_command(tmp_path, capsys):
    path = make_planted_file(tmp_path, capsys)
    rc, out, _ = run_cli(capsys, "exact", "--input", str(path))
    assert rc == 0
    assert json.loads(out)["size"] == 2


def test_solve_sdp_feasible_with_artifacts(tmp_path, capsys):
    path = make_planted_file(tmp_path, capsys)
    gram_path = tmp_path / "solution.gram"
    export_path = tmp_path / "problem.txt"
    rc, out, _ = run_cli(
        capsys,
        "solve-sdp",
        "--input",
        str(path),
        "--k",
        "2",
        "--gram-output",
        str(gram_path),
        "--export",
        str(export_path),
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["status"] == "feasible"
    assert payload["label"] == "strong(k=2)"
    assert payload["max_violation"] <= payload["eps_feas"]
    assert "min_eigenvalue" in payload
    assert gram_path.exists()
    assert export_path.read_text(encoding="utf-8").startswith("c sdp-feasibility dim=17")


def test_file_outputs_leave_no_temp_files(tmp_path, capsys):
    graph_path = tmp_path / "g.graph"
    cert = tmp_path / "cert.json"
    args = ("generate", "--n", "6", "--k", "2", "--seed", "1")
    for _ in range(2):  # the second round replaces existing files
        rc, _, _ = run_cli(capsys, *args, "--certificate", str(cert), "-o", str(graph_path))
        assert rc == 0
        rc, _, _ = run_cli(
            capsys,
            "solve-sdp",
            "--input",
            str(graph_path),
            "--k",
            "2",
            "--gram-output",
            str(tmp_path / "solution.gram"),
            "--export",
            str(tmp_path / "problem.txt"),
            "-o",
            str(tmp_path / "outcome.json"),
        )
        assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["cert.json", "g.graph", "outcome.json", "problem.txt", "solution.gram"]
    assert json.loads((tmp_path / "outcome.json").read_text(encoding="utf-8"))["status"] == "feasible"


def test_solve_sdp_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "void.graph"
    rc, _, _ = run_cli(capsys, "generate", "--type", "empty", "--n", "4", "-o", str(path))
    assert rc == 0
    rc, out, _ = run_cli(capsys, "solve-sdp", "--input", str(path), "--k", "1")
    assert rc == 2
    assert json.loads(out)["status"] == "infeasible-at-tolerance"


def test_solve_sdp_budget_exit_code(tmp_path, capsys):
    path = make_planted_file(tmp_path, capsys, p=0.2, seed=5)
    rc, out, _ = run_cli(
        capsys, "solve-sdp", "--input", str(path), "--k", "2", "--max-iterations", "3"
    )
    assert rc == 1
    assert json.loads(out)["status"] == "solver-limit"


def test_solve_sdp_rejects_infinite_eps_feas(tmp_path, capsys):
    path = make_planted_file(tmp_path, capsys, n=8, k=3, p=0.2, seed=1)
    rc, out, err = run_cli(capsys, "solve-sdp", "--input", str(path), "--k", "3", "--eps-feas", "inf")
    assert rc == 1
    assert out == ""
    assert "mbb: error: eps_feas must be positive and finite" in err


def test_round_command_deterministic(tmp_path, capsys):
    path = make_planted_file(tmp_path, capsys)
    gram_path = tmp_path / "solution.gram"
    rc, _, _ = run_cli(
        capsys,
        "solve-sdp",
        "--input",
        str(path),
        "--k",
        "2",
        "--gram-output",
        str(gram_path),
    )
    assert rc == 0
    argv = (
        "round",
        "--input",
        str(path),
        "--gram",
        str(gram_path),
        "--k",
        "2",
        "--trials",
        "64",
        "--seed",
        "11",
    )
    rc, first, _ = run_cli(capsys, *argv)
    assert rc == 0
    rc, second, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert first == second
    payload = json.loads(first)
    assert payload["best"] is not None
    assert payload["extraction_count"] >= 1
    assert payload["pair_mass"] >= payload["pair_mass_floor"] - 1e-3


def test_extract_command_success_without_deletions(tmp_path, capsys):
    path = tmp_path / "complete.graph"
    rc, _, _ = run_cli(
        capsys, "generate", "--type", "complete", "--n-u", "8", "--n-v", "8", "-o", str(path)
    )
    assert rc == 0
    rc, out, _ = run_cli(capsys, "extract", "--input", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["r"] == 4
    assert payload["deleted"] == 0
    assert payload["initial_potential"] == payload["final_potential"] == 64
    assert payload["biclique"]["size"] == 4


def test_extract_command_failure_paths(tmp_path, capsys):
    path = tmp_path / "matching.graph"
    path.write_text("p mbb 4 4 4\ne 0 0\ne 1 1\ne 2 2\ne 3 3\n", encoding="utf-8")
    # no --r and the guarantee bound is zero: a usage error
    rc, _, err = run_cli(capsys, "extract", "--input", str(path))
    assert rc == 1
    assert "pass --r explicitly" in err
    # explicit --r cleans the whole graph away: reported, exit 1, JSON intact
    rc, out, _ = run_cli(capsys, "extract", "--input", str(path), "--r", "1")
    assert rc == 1
    payload = json.loads(out)
    assert payload["biclique"] is None
    assert payload["survivors"] == [0, 0]


def test_pipeline_command(tmp_path, capsys):
    path = make_planted_file(tmp_path, capsys)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = (
        "pipeline",
        "--input",
        str(path),
        "--trials",
        "64",
        "--seed",
        "4",
        "--exact",
    )
    rc, _, _ = run_cli(capsys, *argv, "-o", str(out_a))
    assert rc == 0
    rc, _, _ = run_cli(capsys, *argv, "-o", str(out_b))
    assert rc == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    payload = json.loads(out_a.read_text(encoding="utf-8"))
    assert payload["best"]["size"] == 2
    assert payload["exact"]["size"] == 2
    assert payload["search"]["k_star"] == 2
    assert "timings" not in payload
    rc, out, _ = run_cli(capsys, *argv, "--timings")
    assert rc == 0
    assert "timings" in json.loads(out)


def test_pipeline_rejects_bad_rounding_settings_before_searching(tmp_path, capsys, monkeypatch):
    path = make_planted_file(tmp_path, capsys)
    searched = []
    monkeypatch.setattr("mbb_sdp.cli.approximate_mbb", lambda *args: searched.append(args))
    for flag, value, field in (
        ("--seed", "-1", "seed"),
        ("--trials", "0", "trials"),
        ("--k-hi", "0", "k_hi"),
        ("--max-iterations", "0", "max_iterations"),
        ("--eps-feas", "0", "eps_feas"),
    ):
        rc, out, err = run_cli(capsys, "pipeline", "--input", str(path), flag, value)
        assert rc == 1
        assert out == ""
        assert f"mbb: error: {field} must" in err
    assert searched == []


def test_bench_command(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "runs": [
                    {
                        "name": "tiny",
                        "generator": {"type": "complete", "n_u": 3, "n_v": 3},
                        "config": {"trials": 8},
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "results"
    rc, out, _ = run_cli(capsys, "bench", "--spec", str(spec), "--output-dir", str(out_dir))
    assert rc == 0
    assert out.strip().endswith("aggregate.csv")
    assert (out_dir / "aggregate.csv").exists()
    assert (out_dir / "tiny.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("mbb ")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["exact"])  # missing required --input
    assert info.value.code == 1


def test_missing_file_is_a_clean_error(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "exact", "--input", str(tmp_path / "nope.graph"))
    assert rc == 1
    assert "mbb: error:" in err
