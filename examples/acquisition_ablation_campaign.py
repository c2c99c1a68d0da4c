"""Acquisition ablation campaign: epdc vs ts/ucb/mean/random on every space.

PR 8's EPDC subsystem (``docs/acquisitions.md``) adds an acquisition axis
to :class:`~repro.campaign.gridspec.CampaignSpec` and per-iteration front
telemetry to every outcome.  This example closes that loop: it declares one
grid — all five acquisition strategies x all three registered search
spaces — runs it into a resumable store, then compares the strategies with
the exact 3-D hypervolume under a *shared* reference box per space (the
per-run telemetry boxes are progress signals; cross-run comparisons need
one common box, see ``docs/acquisitions.md#hypervolume-telemetry``).

The CLI spelling of the same grid:

    python -m repro campaign --scenario wifi-3mbps/jetson-tx2-gpu \
        --search-space lens-vgg --search-space resnet-v1 \
        --search-space seq-conv1d \
        --acquisition ts --acquisition ucb --acquisition mean \
        --acquisition random --acquisition epdc \
        --batch-size 4 --store runs/acq-ablation
    python -m repro report --store runs/acq-ablation

Run with:  python examples/acquisition_ablation_campaign.py [store-directory]
"""

from __future__ import annotations

import sys
import tempfile

# repro first: it pins BLAS to one thread only if numpy is not loaded yet.
from repro.campaign import CampaignSpec, RunStore, run_campaign
from repro.optim.pareto import hypervolume, pareto_front_mask
from repro.utils.serialization import format_table

import numpy as np

OBJECTIVES = ("error_percent", "latency_s", "energy_j")


def main() -> None:
    spec = CampaignSpec(
        scenarios=("wifi-3mbps/jetson-tx2-gpu",),
        search_spaces=("lens-vgg", "resnet-v1", "seq-conv1d"),
        strategies=("lens",),
        acquisitions=("ts", "ucb", "mean", "random", "epdc"),
        batch_size=4,
        seeds=(0,),
        num_initial=8,
        num_iterations=16,
        candidate_pool_size=32,
        predictor_samples_per_type=60,
    )
    directory = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(
        prefix="repro-acq-ablation-"
    )
    store = RunStore(directory)
    print(f"Ablation campaign: {spec.num_cells} cells into {store.directory}")
    result = run_campaign(spec, store, workers=4)
    print(f"executed {len(result.executed)}, skipped {len(result.skipped)} "
          f"({result.wall_time_s:.1f}s, {result.workers} workers)\n")

    # Group the stored outcomes by search space; one shared reference box
    # per space makes the acquisition hypervolumes directly comparable.
    by_space: dict = {}
    for outcome in store.outcomes():
        by_space.setdefault(outcome.request.search_space, []).append(outcome)

    for space, outcomes in sorted(by_space.items()):
        matrices = {
            o.request.acquisition: o.result.objective_matrix(OBJECTIVES)
            for o in outcomes
        }
        pooled = np.vstack(list(matrices.values()))
        reference = [float(v) * 1.05 for v in pooled.max(axis=0)]
        rows = []
        for acquisition, matrix in sorted(matrices.items()):
            front = matrix[pareto_front_mask(matrix)]
            rows.append(
                [
                    acquisition,
                    matrix.shape[0],
                    int(front.shape[0]),
                    round(hypervolume(front, reference), 4),
                ]
            )
        rows.sort(key=lambda row: -row[3])
        print(f"{space} (shared reference {[round(v, 3) for v in reference]}):")
        print(format_table(
            rows, ["acquisition", "evaluations", "front size", "hypervolume"]
        ))
        print()

    print(f"store persisted at {store.directory} ({len(store)} runs) — "
          f"`repro report --store {store.directory}` adds the per-run "
          "telemetry table")


if __name__ == "__main__":
    main()
