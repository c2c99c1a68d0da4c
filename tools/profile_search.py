#!/usr/bin/env python
"""cProfile harness for one search run, split by search phase.

Runs :func:`repro.api.run_search` under cProfile and prints the hottest
functions plus an aggregate split of where the time went: pool
construction (genotype sampling, mutation, validity and repair, and the
optimizer's pool loop), the surrogate engine (``repro.optim.gp`` /
``gp_bank`` / ``kernels``), acquisition scoring, Pareto bookkeeping, and
candidate evaluation (decoding, predictors + Algorithm 1).  Use
``--gp-update exact-refit`` to profile the pre-bank cold-refit behaviour
and quantify the incremental fast path on a real search::

    PYTHONPATH=src python tools/profile_search.py --evaluations 300
    PYTHONPATH=src python tools/profile_search.py --evaluations 300 \
        --gp-update exact-refit

The harness only flips :data:`repro.optim.mobo.DEFAULT_GP_UPDATE`; request
envelopes and fingerprints are untouched, so profiled runs select exactly
the candidates a normal run would.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
import repro.optim.mobo as mobo  # noqa: E402
from repro.api import run_search  # noqa: E402
from repro.optim.gp import UPDATE_MODES  # noqa: E402

#: Directory of the package's own source files.
PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)

#: Frames of pool construction: the whole genotype encoding, the spaces'
#: sampling, mutation, validity and repair, the evaluator's sampling
#: adapters and the optimizer's pool loop.  A fragment is a path substring,
#: optionally ``path:function`` to match one function of that file.
POOL_FRAGMENTS = (
    "nn/encoding.py",
    *(
        f"nn/:{function}"
        for function in (
            "sample", "sample_batch", "neighbours", "_repair_checked", "is_valid",
            "_satisfies", "_pools_on", "pool_count", "repair", "to_feature_matrix",
        )
    ),
    "core/evaluation.py:sample_fn",
    "core/evaluation.py:neighbor_fn",
    "core/evaluation.py:pool_features_fn",
    "optim/mobo.py:_build_pool",
    "optim/mobo.py:_sample_unseen",
    "optim/mobo.py:_default_key",
)

#: Path substrings used to attribute internal time to search phases.
#: Order matters — first match wins, so pool construction claims its
#: ``core/evaluation.py`` adapters before candidate evaluation does.
BUCKETS = {
    "pool construction": POOL_FRAGMENTS,
    "surrogate (gp/bank/kernels)": ("optim/gp.py", "optim/gp_bank.py", "optim/kernels.py"),
    "acquisition + scalarisation": ("optim/acquisition.py", "optim/scalarization.py"),
    "pareto bookkeeping": ("optim/pareto.py",),
    "candidate evaluation": ("core/evaluation.py", "partition/", "hardware/", "accuracy/", "nn/"),
}

#: Finer attribution inside the evaluation phase (``--phase eval``): which
#: share goes to the per-layer predictors, the partition costing, the channel
#: cost model, decoding/shape inference, the accuracy surrogate and the
#: engine's caching layer.  Pool-construction frames are left out.  Order
#: matters — first match wins.
EVAL_BUCKETS = {
    "layer predictors + features": ("hardware/predictors.py", "hardware/features.py"),
    "partition costing": ("partition/",),
    "channel cost model": ("wireless/",),
    "nn: decode/shapes": ("nn/",),
    "accuracy surrogate": ("accuracy/",),
    "engine caching": ("api/engine.py",),
    "evaluator glue": ("core/evaluation.py",),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strategy", default="lens")
    parser.add_argument("--scenario", default="wifi-3mbps/jetson-tx2-gpu")
    parser.add_argument("--search-space", default="lens-vgg")
    parser.add_argument(
        "--evaluations", type=int, default=300,
        help="Bayesian-optimization iterations (plus --num-initial random ones)",
    )
    parser.add_argument("--num-initial", type=int, default=10)
    parser.add_argument("--pool-size", type=int, default=128)
    parser.add_argument("--predictor-samples", type=int, default=80)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument(
        "--gp-update", choices=UPDATE_MODES, default="incremental",
        help="surrogate conditioning mode to profile",
    )
    parser.add_argument(
        "--phase", choices=("all", "eval"), default="all",
        help=(
            "'eval' adds an evaluation-phase breakdown (predictor vs "
            "partition vs channel vs decode time)"
        ),
    )
    parser.add_argument(
        "--top", type=int, default=25, help="how many rows of the pstats table to print"
    )
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key (cumulative, tottime, ...)"
    )
    return parser.parse_args(argv)


def matches(fragment: str, filename: str, function: str) -> bool:
    """Whether a ``path`` or ``path:function`` fragment matches a frame."""
    path, _, name = fragment.partition(":")
    return path in filename and (not name or name == function)


def bucket_times(
    stats: pstats.Stats, buckets: dict = BUCKETS, exclude: tuple = ()
) -> dict:
    """Total internal time attributed to each bucket of ``buckets``.

    The internal time of a frame outside the package (a built-in, or
    numpy's own Python code) is charged to the frames that called it, since
    cProfile times every caller edge, so numpy work lands in the phase that
    asked for it.  Frames matching a fragment of ``exclude`` are left out
    of every bucket.
    """
    totals = {name: 0.0 for name in buckets}
    for frame, entry in stats.stats.items():  # type: ignore[attr-defined]
        if not frame[0].startswith(PACKAGE_DIR):
            charges = [(caller, timing[2]) for caller, timing in entry[4].items()]
        else:
            charges = [(frame, entry[2])]
        for (filename, _line, function), seconds in charges:
            if any(matches(fragment, filename, function) for fragment in exclude):
                continue
            for name, fragments in buckets.items():
                if any(matches(fragment, filename, function) for fragment in fragments):
                    totals[name] += seconds
                    break
    return totals


def main(argv=None) -> int:
    args = parse_args(argv)
    mobo.DEFAULT_GP_UPDATE = args.gp_update

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    outcome = run_search(
        strategy=args.strategy,
        scenario=args.scenario,
        search_space=args.search_space,
        num_initial=args.num_initial,
        num_iterations=args.evaluations,
        candidate_pool_size=args.pool_size,
        predictor_samples_per_type=args.predictor_samples,
        seed=args.seed,
    )
    profiler.disable()
    elapsed = time.perf_counter() - start

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)

    totals = bucket_times(stats)
    print(
        f"run: {args.strategy} / {args.scenario} / {args.search_space}, "
        f"{len(outcome.candidates)} evaluations, gp_update={args.gp_update}, "
        f"{elapsed:.2f}s wall"
    )
    print("time by subsystem (internal time, seconds):")
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        share = 100.0 * seconds / elapsed if elapsed > 0 else 0.0
        print(f"  {name:<30} {seconds:8.3f}s  ({share:5.1f}% of wall)")

    if args.phase == "eval":
        eval_totals = bucket_times(stats, EVAL_BUCKETS, exclude=POOL_FRAGMENTS)
        phase_total = sum(eval_totals.values())
        print(
            "evaluation-phase breakdown "
            f"(internal time, {phase_total:.3f}s total):"
        )
        for name, seconds in sorted(eval_totals.items(), key=lambda item: -item[1]):
            share = 100.0 * seconds / phase_total if phase_total > 0 else 0.0
            print(f"  {name:<30} {seconds:8.3f}s  ({share:5.1f}% of phase)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
