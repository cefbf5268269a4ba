"""Fig 11 / App D.3 — bound tightness vs baselines across train splits.

Paper: Pitot dominates at every split size; MF is far worse except
without interference at large splits; all methods tighten with more data.
"""

from repro.core import PAPER_QUANTILES
from repro.eval import format_table, percent

from conftest import emit, margin_pair

METHODS = ["Pitot", "Neural Network", "Attention", "Matrix Factorization"]


def test_fig11_tightness_splits(benchmark, zoo, scale):
    eps_grid = (scale.epsilons[0], scale.epsilons[-1])

    def run():
        blocks = []
        for fraction in scale.fractions:
            rows = []
            split = zoo.split(fraction, 0)
            predictors = {
                "Pitot": zoo.conformal(
                    zoo.pitot_quantile(fraction, 0), fraction, 0,
                    "pitot", quantiles=PAPER_QUANTILES),
                "Neural Network": zoo.conformal(
                    zoo.baseline("nn", fraction, 0), fraction, 0, "split"),
                "Attention": zoo.conformal(
                    zoo.baseline("attention", fraction, 0), fraction, 0,
                    "split"),
                "Matrix Factorization": zoo.conformal(
                    zoo.baseline("mf", fraction, 0), fraction, 0, "split"),
            }
            for method in METHODS:
                cells = [method]
                for eps in eps_grid:
                    bound = predictors[method].predict_bound_dataset(
                        split.test, eps
                    )
                    m_iso, m_int = margin_pair(bound, split)
                    cells += [percent(m_iso), percent(m_int)]
                rows.append(cells)
            headers = ["method"]
            for eps in eps_grid:
                headers += [f"iso@{eps}", f"intf@{eps}"]
            blocks.append(
                format_table(
                    headers, rows,
                    title=f"Fig 11: bound tightness, {int(fraction*100)}% split",
                )
            )
        return "\n\n".join(blocks)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig11_tightness_splits", table)
