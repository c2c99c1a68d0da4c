"""One measured unit of work, run in a fresh interpreter by ``run.py``.

    python perfbench/worker.py setup  <workload-json> <seed>
    python perfbench/worker.py search <workload-json> <seed> <traced 0|1>
    python perfbench/worker.py store  <workload-json> <store-dir>...

``<workload-json>`` is a workload of ``workloads.py`` as a JSON object
(``run.py`` passes it, so tests can pass shrunken copies).  Each command
prints one JSON object as its last line.  A fresh interpreter
per unit keeps the process-wide ``default_engine()`` cache and the BLAS
thread state from carrying over between units.  ``PYTHONPATH`` must point
at the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import json
import resource
import statistics
import sys
import time

import checks
import spans

#: Search-phase layers reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_LAYERS = (
    "api.engine.evaluate_batch",
    "nn.sample",
    "nn.neighbor",
    "nn.features",
    "nn.decode",
    "optim.gp_bank.update",
    "optim.acquisition",
    "optim.pareto.front_mask",
    "core.evaluate_pool",
    "hardware.predict_pool",
    "partition.evaluate_batch",
    "partition.evaluate",
    "accuracy.error_percent",
)
#: Search-phase layers reported by self time only.
SELF_ONLY_LAYERS = (
    "optim.gp_bank.refresh",
    "optim.select_batch",
    "optim.pareto.front_history",
)


def environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config.get('name')} {config.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    return {"numpy": numpy.__version__, "blas": blas}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def make_request(workload: dict, seed: int):
    from repro.api import SearchRequest

    return SearchRequest(**workload["request"], seed=seed)


def cmd_setup(workload: dict, seed: int) -> dict:
    from repro.api import build_context

    build_context(make_request(workload, seed))
    return {"ready_monotonic": time.monotonic()}


def step_intervals_ms(stamps, num_initial: int, batch_size: int, budget: int):
    """BO step durations from per-evaluation callback times.

    A step ends at its last evaluation; the first step is measured from the
    end of the random initialisation.
    """
    ends = [num_initial - 1]
    while ends[-1] < budget - 1:
        ends.append(min(ends[-1] + batch_size, budget - 1))
    times = [stamps[i] for i in ends if i in stamps]
    return [1000.0 * (b - a) for a, b in zip(times, times[1:])]


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(recorder, root: int, setup: int, outcome, stamps, request) -> dict:
    recorded = recorder.spans
    totals = spans.layer_totals(recorded, spans.descendants(recorded, root))
    zero = {"calls": 0, "self_s": 0.0}
    metrics = {}
    for name in TIMED_LAYERS:
        entry = totals.get(name, zero)
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
    for name in SELF_ONLY_LAYERS:
        metrics[f"{name}.self_s"] = totals.get(name, zero)["self_s"]
    metrics["optim.glue_s"] = totals["search"]["self_s"]
    metrics["trace.wall_s"] = recorded[root].end - recorded[root].start
    unreported = sorted(set(totals) - set(TIMED_LAYERS) - set(SELF_ONLY_LAYERS) - {"search"})
    if unreported:
        raise RuntimeError(f"spans without a per-layer metric inside the search: {unreported}")

    counts = recorder.counts
    rows = counts.get("optim.acquisition.rows", 0.0)
    drawn = metrics["nn.sample.calls"] + counts.get("nn.neighbor.candidates", 0.0)
    metrics["optim.acquisition.rows"] = rows
    metrics["nn.pool.accept_ratio"] = rows / drawn if drawn else 0.0
    metrics["core.evaluate_pool.candidates"] = counts.get("core.evaluate_pool.candidates", 0.0)

    stats = outcome.engine_stats
    for cache in ("layer", "partition"):
        looked_up = stats[f"{cache}_hits"] + stats[f"{cache}_misses"]
        metrics[f"api.engine.{cache}_hit_ratio"] = stats[f"{cache}_hits"] / looked_up if looked_up else 0.0
    metrics["api.build_context.s"] = recorded[setup].end - recorded[setup].start
    metrics["hardware.train.s"] = sum(s.end - s.start for s in recorded if s.name == "hardware.train")
    metrics["resilience.health_events"] = sum(outcome.health.values())

    steps = []
    if request.strategy != "random":
        steps = step_intervals_ms(stamps, request.num_initial, request.batch_size, request.num_evaluations)
    metrics["optim.step_ms.p50"] = statistics.median(steps) if steps else 0.0
    metrics["optim.step_ms.p95"] = percentile(steps, 0.95)
    return metrics


def cmd_search(workload: dict, seed: int, traced: bool) -> dict:
    from repro.api import SEARCH_SPACES, build_context, run_search

    request = make_request(workload, seed)
    recorder = patches = callback = None
    stamps = {}

    def span(name):  # untraced: no spans, no wrappers
        return contextlib.nullcontext(-1)

    if traced:
        recorder = spans.Recorder()
        span = recorder.span
        patches = spans.instrument(recorder, type(SEARCH_SPACES.create(request.search_space)))

        def callback(index, _evaluation):
            stamps[index] = time.perf_counter()

    with span("api.build_context") as setup:
        context = build_context(request)
    timed_start = time.monotonic()
    start = time.perf_counter()
    with span("search") as root:
        outcome = run_search(request, progress_callback=callback)
    wall = time.perf_counter() - start
    if patches is not None:
        patches.restore()

    candidates = list(outcome.candidates)
    space = context.search_space
    problems = checks.check_search(
        candidates,
        request.num_evaluations,
        graph_of=lambda genotype: space.decode_for_performance(genotype).partition_graph(),
    )
    box = workload["boxes"][request.search_space]
    quarantined = outcome.health.get("H_OBJECTIVE_QUARANTINED", 0)
    result = {
        "seed": seed,
        "timed_start_monotonic": timed_start,
        "search_wall_s": wall,
        "reported_wall_s": outcome.wall_time_s,
        "final_hv": checks.box_hypervolume(checks.objective_rows(candidates), *box),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": request.num_evaluations,
        "failed": request.num_evaluations if problems else quarantined,
        "problems": problems,
        "digest": checks.candidate_digest(candidates),
        "env": environment(),
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, root, setup, outcome, stamps, request)
    return result


def inspect_store(workload: dict, directory: str) -> dict:
    from repro.campaign import open_store

    start = time.perf_counter()
    outcomes = list(open_store(directory).outcomes())
    scan = time.perf_counter() - start
    cells = []
    for outcome in sorted(outcomes, key=lambda o: o.request.fingerprint()):
        candidates = list(outcome.candidates)
        problems = checks.check_search(candidates, outcome.request.num_evaluations)
        box = workload["boxes"][outcome.request.search_space]
        cells.append(
            {
                "fingerprint": outcome.request.fingerprint(),
                "scenario": outcome.scenario.name,
                "search_space": outcome.request.search_space,
                "seed": outcome.request.seed,
                "problems": problems,
                "final_hv": checks.box_hypervolume(checks.objective_rows(candidates), *box),
                "search_s": outcome.wall_time_s,
                "health_events": sum(outcome.health.values()),
                "digest": checks.candidate_digest(candidates),
            }
        )
    return {"store_scan_s": scan, "cells": cells}


def cmd_store(workload: dict, directories) -> dict:
    return {"stores": [inspect_store(workload, d) for d in directories], "env": environment()}


def main(argv) -> int:
    command, payload, *rest = argv
    workload = json.loads(payload)
    if command == "setup":
        result = cmd_setup(workload, int(rest[0]))
    elif command == "search":
        result = cmd_search(workload, int(rest[0]), rest[1] == "1")
    elif command == "store":
        result = cmd_store(workload, rest)
    else:
        raise SystemExit(f"unknown command {command!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
