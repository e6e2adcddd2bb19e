"""Ablation — hidden-layer width (the paper fixes 64 neurons).

Sweeps the hidden width and reports test accuracy and parameter counts,
quantifying whether the paper's 64-neuron choice sits on the accuracy
plateau while keeping the FTL footprint tiny.
"""

import numpy as np

from repro.harness import ablation_model_size, format_table
from repro.nn import paper_network


def test_model_size_ablation_and_bench(benchmark, scale, cache, report):
    data = ablation_model_size(scale, cache=cache)
    table = format_table(
        ["hidden width", "test accuracy", "final loss", "parameters"],
        [
            [w, f"{row['final_accuracy']:.1%}", f"{row['final_loss']:.3f}",
             row["parameters"]]
            for w, row in sorted(data.items(), key=lambda kv: int(kv[0]))
        ],
        title="Hidden-width ablation (Adam-logistic, paper trains width 64)",
    )
    report("ablation_model_size", table)

    accs = {int(w): row["final_accuracy"] for w, row in data.items()}
    # 64 should clearly beat the tiny model; 128 should not be a huge jump.
    assert accs[64] > accs[8]
    assert accs[128] - accs[64] < 0.15

    # Kernel: forward pass of the paper network (FTL inference compute).
    net = paper_network()
    x = np.random.default_rng(0).normal(size=(1, 9))
    benchmark(lambda: net.forward(x))
