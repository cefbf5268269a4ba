"""Fig 10 / App D.2 — hyperparameter ablations (q, r, s, β).

Paper: performance is insensitive once capacity suffices — q ≥ 1 matters
a lot (learned features are essential), r saturates by 32, s = 2 is
enough, and β trades isolation error against interference error.
Reported per interference degree, as in the figure's columns.
"""

from repro.eval import format_table, mape, percent

from conftest import emit

SWEEPS = {
    "learned features q": [("q", {"learned_features": v}) for v in (0, 1, 2, 4)],
    "embedding r": [("r", {"embedding_dim": v}) for v in (4, 8, 16, 32)],
    "interference types s": [("s", {"interference_types": v}) for v in (1, 2, 4, 8)],
    "interference weight beta": [
        ("b", {"interference_weight": v}) for v in (0.1, 0.2, 0.5, 1.0)
    ],
}


def _per_degree_mape(model, split):
    test = split.test
    pred = model.predict_runtime(test.w_idx, test.p_idx, test.interferers)
    out = []
    for degree in (1, 2, 3, 4):
        rows = test.degree == degree
        out.append(mape(pred[rows], test.runtime[rows]))
    return out


def test_fig10_hyperparameters(benchmark, zoo, scale):
    fraction = scale.fractions[len(scale.fractions) // 2]

    def run():
        blocks = []
        for sweep_name, points in SWEEPS.items():
            rows = []
            for _, overrides in points:
                model = zoo.pitot(fraction, 0, **overrides)
                split = zoo.split(fraction, 0)
                errors = _per_degree_mape(model, split)
                label = ", ".join(f"{k}={v}" for k, v in overrides.items())
                rows.append([label, *(percent(e) for e in errors)])
            blocks.append(
                format_table(
                    ["config", "isolation", "2-way", "3-way", "4-way"],
                    rows,
                    title=f"Fig 10: {sweep_name} "
                          f"({int(fraction*100)}% split; paper default bolded "
                          "in figure: q=1, r=32, s=2, beta=0.5)",
                )
            )
        return "\n\n".join(blocks)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig10_hyperparameters", table)
