"""Fig 1 — log-histogram of interference slowdowns by degree.

Paper: mass concentrated near 1x with a long tail; more simultaneous
workloads shift mass right; extremes reach ~20x.
"""

from repro.analysis import slowdown_histograms
from repro.eval import format_table

from conftest import emit


def test_fig01_interference_histogram(benchmark, bench_dataset):
    def run():
        hists = slowdown_histograms(bench_dataset, degrees=(2, 3, 4))
        rows = []
        for h in hists:
            rows.append([
                f"{h.degree}-way",
                str(h.n),
                f"{h.median:.2f}x",
                f"{h.p90:.2f}x",
                f"{h.p99:.2f}x",
                f"{h.max:.1f}x",
            ])
        table = format_table(
            ["interference", "n", "median", "p90", "p99", "max"],
            rows,
            title="Fig 1: interference slowdown distribution "
                  "(paper: tails to ~20x, heavier with more co-runners)",
        )
        # Compact log-density sparkline per degree (the histogram shape).
        lines = [table, "", "log10(1+count) per log-spaced bin:"]
        for h in hists:
            dens = h.log_density()
            peak = max(dens.max(), 1e-9)
            bars = "".join(
                " .:-=+*#%@"[min(int(9 * d / peak), 9)] for d in dens
            )
            lines.append(f"  {h.degree}-way |{bars}| 0.8x..30x")
        return "\n".join(lines)

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("fig01_interference_histogram", table)
    assert "4-way" in table
