"""Run the whole pipeline once on a small planted instance and narrate it.

The run solves the relaxation for k = cap, cap - 1, ... down to the first
feasible k, where cap is the largest k with a nonempty common-neighbour core,
and rounds there.  Each k is solved on its common-neighbour core first, and on
the whole graph when the core gives no certificate.  A greedy baseline
competes with the rounded result, and the report says which method produced
the winner.
"""

from mbb_sdp import PipelineConfig, approximate_mbb, planted_instance, verify_biclique

N = 16
K = 4
P = 0.15
SEED = 11


def main():
    graph, planted = planted_instance(N, K, P, SEED)
    print(f"planted instance: {N}x{N}, K_({K},{K}) hidden, background p={P}")
    print(f"  planted left  {planted.biclique.left}")
    print(f"  planted right {planted.biclique.right}")
    print()

    config = PipelineConfig(trials=256, seed=3)
    best, report = approximate_mbb(graph, config)

    search = report.search
    print("k-search (descending scan) from the core cap "
          f"{search['core_cap']}: k* = {search['k_star']}")
    for entry in search["per_k"]:
        left, right = entry["core"]
        print(f"  k={entry['k']:<2d} {entry['status']}  ({entry['iterations']} iterations "
              f"on the {entry['solved_on']}; core {left}x{right})")
    print()

    if report.rounding is not None:
        rnd = report.rounding
        print(f"rounding at k={search['k_star']}: {rnd['trials']} trials,")
        print(f"  {rnd['extraction_count']} produced a biclique,")
        print(f"  best trial size {rnd['best']['size'] if rnd['best'] else 0}")
    print()

    print(f"baseline size {report.baseline['size']}, pipeline best: "
          f"{report.best['size']} via {report.best['method']}")
    print(f"  left  {tuple(report.best['left'])}")
    print(f"  right {tuple(report.best['right'])}")
    assert verify_biclique(graph, best.left, best.right)
    print()
    recovered = set(best.left) & set(planted.biclique.left)
    print(f"overlap with planted block: {len(recovered)}/{K} left vertices")


if __name__ == "__main__":
    main()
