"""Command line interface.

Subcommands mirror the library surface: generate instances, run the exact
solver, solve one relaxation, round a stored solution, run greedy extraction,
run the full pipeline, and drive experiment specs.  All randomized commands
take --seed and produce byte-identical output for identical invocations;
wall-clock timings only appear under --timings.

Exit codes: 0 on success, 1 on any error (including solver budget
exhaustion), and 2 when solve-sdp determines infeasible-at-tolerance, which
is an answer rather than a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .exact import exact_mbb
from .extraction import best_extractable_r, density_clean, greedy_extract
from .graphs import (
    RNG_ALGORITHM,
    BipartiteGraph,
    complete_bipartite,
    empty_bipartite,
    parse_graph,
    planted_instance,
    serialize_graph,
)
from .pipeline import PipelineConfig, approximate_mbb, run_experiment, write_text_atomic
from .rounding import RoundingParams, diagnostics, round_many
from .sdp import (
    FEASIBLE,
    INFEASIBLE,
    SolverConfig,
    build_strong_relaxation,
    build_weak_relaxation,
    check_feasibility,
    export_problem,
    gram_from_text,
    gram_to_text,
    gram_to_vectors,
    solve_feasibility,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for infeasible."""

    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_graph(path: str) -> BipartiteGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _emit_text(text: str, output: str | None) -> None:
    if output:
        write_text_atomic(output, text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output: str | None) -> None:
    _emit_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", output)


def _solver_config(args) -> SolverConfig:
    """SolverConfig from --eps-feas and --max-iterations; an omitted flag keeps its default."""
    flags = {"eps_feas": args.eps_feas, "max_iterations": args.max_iterations}
    return SolverConfig(**{name: value for name, value in flags.items() if value is not None})


def _cmd_generate(args) -> int:
    if args.type == "planted":
        if args.n is None or args.k is None:
            raise ValueError("planted generator needs --n and --k")
        graph, planted = planted_instance(args.n, args.k, args.p, args.seed)
        if args.certificate:
            _emit_json(
                {
                    "planted": planted.biclique.as_dict(),
                    "p": planted.background_p,
                    "seed": planted.seed,
                    "rng_algorithm": RNG_ALGORITHM,
                },
                args.certificate,
            )
    else:
        n_u = args.n if args.n_u is None else args.n_u
        n_v = args.n if args.n_v is None else args.n_v
        if n_u is None or n_v is None:
            raise ValueError(f"{args.type} generator needs --n, or --n-u and --n-v")
        build = empty_bipartite if args.type == "empty" else complete_bipartite
        graph = build(n_u, n_v)
    _emit_text(serialize_graph(graph), args.output)
    return 0


def _cmd_exact(args) -> int:
    graph = _load_graph(args.input)
    best = exact_mbb(graph, size_limit=args.size_limit)
    _emit_json(best.as_dict(), args.output)
    return 0


def _cmd_solve_sdp(args) -> int:
    graph = _load_graph(args.input)
    build = build_weak_relaxation if args.relaxation == "weak" else build_strong_relaxation
    problem = build(graph, args.k)
    if args.export:
        write_text_atomic(args.export, export_problem(problem))
    config = _solver_config(args)
    outcome = solve_feasibility(problem, config)
    payload = {
        "label": problem.label,
        "status": outcome.status,
        "max_violation": outcome.max_violation,
        "iterations": outcome.iterations,
        "eps_feas": config.eps_feas,
    }
    if outcome.gram is not None:
        report = check_feasibility(problem, outcome.gram, eps=config.eps_feas)
        payload["min_eigenvalue"] = report.min_eigenvalue
        if args.gram_output:
            write_text_atomic(args.gram_output, gram_to_text(outcome.gram))
    _emit_json(payload, args.output)
    if outcome.status == FEASIBLE:
        return 0
    if outcome.status == INFEASIBLE:
        return 2
    return 1


def _cmd_round(args) -> int:
    graph = _load_graph(args.input)
    gram = gram_from_text(Path(args.gram).read_text(encoding="utf-8"))
    solution = gram_to_vectors(gram, sides=(graph.n_u, graph.n_v))
    n = max(graph.n_u, graph.n_v)
    params = RoundingParams.for_instance(
        n, args.k, trials=args.trials, seed=args.seed, tau=args.tau
    )
    run = round_many(solution, graph, params)
    diag = diagnostics(solution, graph, params)
    payload = {
        "k": args.k,
        "trials": params.trials,
        "tau": params.tau,
        "tau_clamped": params.tau_clamped,
        "seed": args.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "event_count": run.event_count,
        "extraction_count": run.extraction_count,
        "best": run.best.as_dict() if run.best else None,
        "pair_mass": diag.pair_mass,
        "pair_mass_floor": diag.pair_mass_floor,
        "positive_pairs": diag.positive_pairs,
        "positive_pairs_floor": diag.positive_pairs_floor,
        "guarantee_value": diag.guarantee_value,
    }
    _emit_json(payload, args.output)
    return 0


def _cmd_extract(args) -> int:
    graph = _load_graph(args.input)
    n = args.n if args.n is not None else max(graph.n_u, graph.n_v)
    if args.r is not None:
        r = args.r
    else:
        r = best_extractable_r(graph, n)
        if r < 1:
            raise ValueError("guarantee bound gives no extractable size; pass --r explicitly")
    cleaned, trace = density_clean(graph, r)
    found = greedy_extract(graph, r, n)
    payload = {
        "r": r,
        "n": n,
        "initial_potential": trace.initial_potential,
        "final_potential": trace.potentials[-1] if trace.potentials else trace.initial_potential,
        "deleted": len(trace.deleted),
        "survivors": [len(trace.surviving_left()), len(trace.surviving_right())],
        "biclique": found.as_dict() if found else None,
    }
    _emit_json(payload, args.output)
    return 0 if found is not None else 1


def _cmd_pipeline(args) -> int:
    graph = _load_graph(args.input)
    config = PipelineConfig(
        k_hi=args.k_hi,
        solver=_solver_config(args),
        trials=args.trials,
        seed=args.seed,
        use_exact=args.exact,
    )
    best, report = approximate_mbb(graph, config)
    _emit_text(report.to_json(include_timings=args.timings), args.output)
    return 0


def _cmd_bench(args) -> int:
    csv_path = run_experiment(args.spec, output_dir=args.output_dir, include_timings=args.timings)
    sys.stdout.write(str(csv_path) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mbb", description="Balanced biclique approximation toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph instance")
    p.add_argument("--type", choices=("planted", "empty", "complete"), default="planted")
    p.add_argument("--n", type=int, help="side size (planted, or both sides)")
    p.add_argument("--k", type=int, help="planted biclique size")
    p.add_argument("--p", type=float, default=0.0, help="background edge probability")
    p.add_argument("--n-u", type=int, help="left side size (empty/complete)")
    p.add_argument("--n-v", type=int, help="right side size (empty/complete)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certificate", help="also write the planted certificate JSON here")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("exact", help="exact maximum balanced biclique")
    p.add_argument("--input", required=True)
    p.add_argument("--size-limit", type=int, default=None)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("solve-sdp", help="solve one relaxation feasibility problem")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--relaxation", choices=("weak", "strong"), default="strong")
    p.add_argument("--eps-feas", type=float, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--gram-output", help="write the solution matrix here")
    p.add_argument("--export", help="write the constraint system here")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve_sdp)

    p = sub.add_parser("round", help="round a stored solution matrix")
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--gram", required=True, help="solution matrix file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("extract", help="density cleaning plus greedy construction")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, default=None, help="target order (default: guarantee bound)")
    p.add_argument("--n", type=int, default=None, help="host bound (default: max side)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("pipeline", help="full search, round, extract pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--k-hi", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-feas", type=float, default=None)
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--exact", action="store_true", help="also run the exact solver")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("bench", help="run an experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--output-dir", default=None)
    p.add_argument("--timings", action="store_true", help="record wall-clock column")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover - terminal plumbing
        return 1
    except Exception as exc:
        print(f"mbb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
