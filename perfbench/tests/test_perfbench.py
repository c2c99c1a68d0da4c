"""Tests of the benchmark itself, at tiny budgets.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CampaignWorkload  # noqa: E402

TINY_SEARCH = dict(num_initial=4, num_iterations=6, candidate_pool_size=16,
                   predictor_samples_per_type=40)


def tiny(name: str):
    workload = WORKLOADS[name]
    if isinstance(workload, CampaignWorkload):
        return workload._replace(
            grid_seeds=1, campaigns=2,
            budget={"num-initial": 3, "num-iterations": 2, "pool-size": 16,
                    "predictor-samples": 40},
        )
    return workload._replace(request=dict(workload.request, **TINY_SEARCH), searches=1)


# ---------------------------------------------------------------------- spans

def ticking_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    #        root [0, 10]: a [1, 4] holding g [2, 3], then b [5, 7]
    recorder = spans.Recorder(clock=ticking_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    with recorder.span("root") as root:
        with recorder.span("a"):
            with recorder.span("g"):
                pass
        with recorder.span("b"):
            pass
    own = spans.self_times(recorder.spans)
    assert own == [5, 2, 1, 2]
    assert sum(own) == recorder.spans[root].end - recorder.spans[root].start
    totals = spans.layer_totals(recorder.spans, spans.descendants(recorder.spans, root))
    assert totals["a"] == {"calls": 1, "self_s": 2, "total_s": 3}


def test_self_time_counts_overlapping_children_once():
    recorded = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("x", 1.0, 5.0, 0),
        spans.Span("y", 3.0, 6.0, 0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(5.0)


def test_wrapped_method_records_spans_and_restores():
    class Thing:
        def work(self, n):
            return list(range(n))

    recorder = spans.Recorder()
    patches = spans.Patches()
    patches.method(recorder, "thing.work", Thing, "work",
                   counter=lambda args, kwargs, result: {"items": len(result)})
    assert Thing().work(3) == [0, 1, 2]
    patches.restore()
    Thing().work(2)
    assert [s.name for s in recorder.spans] == ["thing.work"]
    assert recorder.counts["items"] == 3


# ---------------------------------------------------------------------- checks

def test_box_hypervolume_matches_the_library():
    from repro.optim.pareto import hypervolume

    rng = np.random.default_rng(0)
    rows = rng.uniform(size=(40, 3))
    ideal, reference = (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
    assert checks.box_hypervolume(rows, ideal, reference) == pytest.approx(
        hypervolume(rows, reference), rel=1e-12
    )
    # scaling: one point in the middle of a stretched box dominates 1/8 of it
    assert checks.box_hypervolume([(25.0, 0.5, 2.0)], (20.0, 0.0, 0.0),
                                  (30.0, 1.0, 4.0)) == pytest.approx(0.125)
    # points beyond the reference add nothing
    assert checks.box_hypervolume([(31.0, 0.5, 2.0)], (20.0, 0.0, 0.0),
                                  (30.0, 1.0, 4.0)) == 0.0


@pytest.fixture(scope="module")
def resnet_outcome():
    from repro.api import run_search

    return run_search(strategy="random", search_space="resnet-v1",
                      num_initial=10, num_iterations=10, seed=3,
                      predictor_samples_per_type=40)


def resnet_graph_of():
    from repro.api import SEARCH_SPACES

    space = SEARCH_SPACES.create("resnet-v1")
    return lambda genotype: space.decode_for_performance(genotype).partition_graph()


def test_clean_search_passes(resnet_outcome):
    candidates = list(resnet_outcome.candidates)
    assert checks.check_search(candidates, 20, resnet_graph_of()) == []


def test_corrupted_search_outputs_fail(resnet_outcome):
    import dataclasses

    from repro.partition.deployment import DeploymentOption

    candidates = list(resnet_outcome.candidates)
    assert checks.check_search(candidates[:-1], 20)  # budget not spent
    assert checks.check_search(candidates[:-1] + candidates[:1], 20)  # duplicate
    nan = dataclasses.replace(candidates[5], latency_s=math.nan)
    assert checks.check_search(candidates[:5] + [nan] + candidates[6:], 20)

    graph_of = resnet_graph_of()
    for i, candidate in enumerate(candidates):
        graph = graph_of(candidate.genotype)
        inside = [k for k in range(graph.num_layers) if not graph.allows_cut_after(k)]
        if inside:
            illegal = dataclasses.replace(
                candidate, best_energy_option=DeploymentOption.split_after(inside[0])
            )
            corrupted = candidates[:i] + [illegal] + candidates[i + 1:]
            assert any("skip edge" in p for p in checks.check_search(corrupted, 20, graph_of))
            break
    else:
        pytest.fail("no resnet-v1 candidate has a skip edge to cut")


def test_report_missing_a_seed_fails():
    grid = {("s", "lens-vgg"): [0, 1]}
    report = {"num_runs": 2, "cells": [{"scenario": "s", "search_space": "lens-vgg",
                                        "seeds": [0, 1]}]}
    assert checks.check_report(report, ["a", "b"], grid) == []
    report["cells"][0]["seeds"] = [0]
    assert checks.check_report(report, ["a", "b"], grid)


def test_digest_follows_the_sequence(resnet_outcome):
    candidates = list(resnet_outcome.candidates)
    assert checks.candidate_digest(candidates) == checks.candidate_digest(list(candidates))
    assert checks.candidate_digest(candidates) != checks.candidate_digest(candidates[::-1])


# ---------------------------------------------------------------------- workloads

DECLARED = run.declared_metrics()


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if not isinstance(w, CampaignWorkload)])
@pytest.mark.parametrize("traced", [False, True])
def test_search_workload_runs(name, traced):
    result = run.run_search_workload(tiny(name), seed=0, seconds=0.0, traced=traced)
    assert result["problems"] == []
    assert result["failed"] == 0
    e2e = result["end_to_end"]
    assert set(e2e) == set(DECLARED["end_to_end"])
    assert all(value > 0 for value in e2e.values())
    if traced:
        layers = result["per_layer"]
        assert set(layers) <= set(DECLARED["per_layer"])
        assert layers["core.evaluate_pool.candidates"] == tiny(name).request["num_initial"] + 6


@pytest.mark.parametrize("traced", [False, True])
def test_campaign_workload_runs(tmp_path, traced):
    workload = tiny("campaign-cli-2w")
    result = run.run_campaign_workload(workload, seed=0, seconds=0.0, traced=traced, work=tmp_path)
    assert result["problems"] == []
    cells = len(workload.scenarios) * len(workload.spaces)
    campaigns = 1 if traced else workload.campaigns
    assert result["attempted"] == cells * campaigns and result["failed"] == 0
    if traced:
        assert result["per_layer"]["campaign.cells.executed"] == cells
    else:
        assert all(value > 0 for value in result["end_to_end"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-vgg-ts", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
