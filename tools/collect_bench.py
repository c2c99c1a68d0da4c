#!/usr/bin/env python
"""Aggregate benchmark result payloads into one ``BENCH_summary.json``.

Every benchmark module under ``benchmarks/`` writes a machine payload into
``benchmarks/results/<name>.json``.  This tool collects them into a single
trajectory file with a headline section (the speedups and parity figures the
CI smoke job and the docs quote), so one artifact tracks the performance
story across runs::

    PYTHONPATH=src python tools/collect_bench.py
    PYTHONPATH=src python tools/collect_bench.py --results-dir benchmarks/results \
        --output benchmarks/results/BENCH_summary.json

The summary is deterministic for a given set of inputs (benchmarks are
sorted by name) and safe to regenerate at any time; it never fails on
missing benchmarks — whatever is present is aggregated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.utils.serialization import dump_json  # noqa: E402

#: (benchmark name, payload key, headline key) triples surfaced at top level.
HEADLINE_FIELDS = (
    ("gp_hotpath", "search300_speedup_vs_legacy", "gp_search300_speedup"),
    ("gp_resilience_overhead", "overhead_fraction", "gp_health_overhead_fraction"),
    ("gp_resilience_overhead", "health_events", "gp_health_events_healthy_run"),
    ("eval_batch", "speedup", "eval_batch_speedup"),
    ("eval_batch", "max_divergence", "eval_batch_parity"),
    ("eval_batch", "batched_us_per_candidate", "eval_batch_us_per_candidate"),
    ("engine_cache", "speedup", "engine_cache_speedup"),
    ("pareto_mask_smoke", "elapsed_s", "pareto_50k_elapsed_s"),
    ("front_history", "speedup", "front_history_speedup"),
    ("front_history", "parity", "front_history_parity"),
    ("campaign_store_index", "index_writes_per_append", "store_index_writes_per_append"),
    ("campaign_store_index", "appends_per_s", "store_appends_per_s"),
    ("campaign_distributed", "pull_worker_wall_s", "distributed_pull_wall_s"),
    ("campaign_distributed", "fingerprints_match", "distributed_parity"),
    ("campaign_supervisor", "supervisor_overhead_fraction",
     "campaign_supervisor_overhead"),
    ("campaign_supervisor", "supervised_claims_per_s",
     "campaign_supervised_claims_per_s"),
    ("epdc", "hv_ratio_epdc_vs_ts", "epdc_hv_ratio_vs_ts"),
    ("epdc", "golden_parity", "epdc_golden_parity"),
    ("serving", "speedup", "serving_speedup"),
    ("serving", "estimate_divergence", "serving_parity"),
    ("serving", "decision_mismatches", "serving_decision_mismatches"),
    ("serving", "decisions_per_s", "serving_decisions_per_s"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results",
        help="directory holding the per-benchmark *.json payloads",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="summary path (default: <results-dir>/BENCH_summary.json)",
    )
    return parser.parse_args(argv)


def collect(results_dir: Path) -> dict:
    """Merge every ``<name>.json`` payload under ``results_dir``."""
    benchmarks = {}
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "BENCH_summary.json":
            continue
        try:
            benchmarks[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            benchmarks[path.stem] = {"error": f"unreadable payload: {error}"}
    headline = {}
    for benchmark, payload_key, headline_key in HEADLINE_FIELDS:
        payload = benchmarks.get(benchmark)
        if isinstance(payload, dict) and payload.get(payload_key) is not None:
            headline[headline_key] = payload[payload_key]
    return {
        "schema": 1,
        "benchmark_count": len(benchmarks),
        "headline": headline,
        "benchmarks": benchmarks,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    results_dir = args.results_dir
    if not results_dir.is_dir():
        print(f"no results directory at {results_dir}; nothing to aggregate")
        return 0
    summary = collect(results_dir)
    output = args.output or results_dir / "BENCH_summary.json"
    dump_json(summary, output)
    names = ", ".join(sorted(summary["benchmarks"])) or "none"
    print(
        f"aggregated {summary['benchmark_count']} benchmark payload(s) "
        f"({names}) -> {output}"
    )
    for key, value in summary["headline"].items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
