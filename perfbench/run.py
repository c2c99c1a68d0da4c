"""End-to-end benchmark of the LENS reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload (``workloads.py``) runs
repeatedly, every unit in a fresh interpreter, for at least ``--seconds``
and at least once per seed the workload derives from ``--seed``.  Every
output is checked.  Detail lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace
0``, its per-layer metrics with ``--trace 1``.  The exit code is 0 only
when every check passed.  ``README.md`` beside this file defines each
metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_SAMPLES,
    WORKLOADS,
    CampaignWorkload,
    campaign_seeds,
    search_seeds,
)

#: Longest any single child process may run.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def declared_metrics() -> Dict[str, Dict[str, Dict[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group, then reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the whole group has already exited
        pass
    proc.wait()


class TreeRss(threading.Thread):
    """Samples the peak resident memory of a process and its descendants.

    Reports the sum over every process seen in the tree of its own peak
    (``VmHWM``), read every ``interval`` seconds from ``/proc``.
    """

    def __init__(self, pid: int, interval: float = 0.05):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peaks_kb: Dict[int, int] = {}
        self._stop_event = threading.Event()

    def _tree(self) -> List[int]:
        parents: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = [self.pid]
        for pid in tree:
            tree.extend(child for child, parent in parents.items() if parent == pid)
        return tree

    def sample(self) -> None:
        for pid in self._tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
            if match:
                self.peaks_kb[pid] = max(self.peaks_kb.get(pid, 0), int(match.group(1)))

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        self._stop_event.set()
        self.join()
        return sum(self.peaks_kb.values()) / 1024.0


def run_child(argv: List[str], sample_rss: bool = False) -> dict:
    """Run a command to completion in its own process group.

    Returns its exit code, stdout, wall time, spawn time (monotonic clock)
    and, with ``sample_rss``, the peak memory of its process tree.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    sampler = TreeRss(proc.pid) if sample_rss else None
    try:
        if sampler is not None:
            sampler.start()
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(argv[1:3])} did not finish in {CHILD_TIMEOUT_S}s")
    finally:
        wall = time.monotonic() - spawned
        stop_group(proc)
        peak = sampler.stop() if sampler is not None else None
    return {"code": proc.returncode, "out": out, "err": err, "wall": wall,
            "spawned": spawned, "peak_rss_mb": peak}


def worker(command: str, workload, *args: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; its JSON result plus spawn time."""
    payload = json.dumps(workload._asdict())
    done = run_child([sys.executable, str(HERE / "worker.py"), command, payload, *args])
    if done["code"] != 0:
        raise BenchError(f"worker {command} {workload.name} {' '.join(args)} exited "
                         f"{done['code']}:\n{done['err'][-2000:]}")
    result = json.loads(done["out"].strip().splitlines()[-1])
    result["spawned_monotonic"] = done["spawned"]
    return result


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def cycles(units: List[int], seconds: float, run_unit) -> list:
    """Run every unit once, then whole further cycles until ``seconds`` pass."""
    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start < seconds:
        results += [run_unit(unit) for unit in units]
    return results


def same_seed_problems(reps: List[dict], key: str) -> List[str]:
    digests: Dict[object, str] = {}
    return [
        f"{key} {r[key]}: output differs between repetitions"
        for r in reps
        if digests.setdefault(r[key], r["digest"]) != r["digest"]
    ]


# ---------------------------------------------------------------------- searches

def run_search_workload(workload, seed: int, seconds: float, traced: bool) -> dict:
    seeds = search_seeds(workload, seed)
    if traced:
        # one untraced and one traced search on the same seed: the per-layer
        # numbers come from the second, the tracing cost from the pair
        reps = [worker("search", workload, str(seeds[0]), flag) for flag in ("0", "1")]
    else:
        reps = cycles(seeds, seconds, lambda s: worker("search", workload, str(s), "0"))
    setups = [r["timed_start_monotonic"] - r["spawned_monotonic"] for r in reps]
    while not traced and len(setups) < SETUP_SAMPLES:
        ready = worker("setup", workload, str(seeds[len(setups) % len(seeds)]))
        setups.append(ready["ready_monotonic"] - ready["spawned_monotonic"])

    for i, r in enumerate(reps):
        print(f"rep {i} seed {r['seed']}: search_wall_s {r['search_wall_s']:.4f} "
              f"(SearchOutcome.wall_time_s {r['reported_wall_s']:.4f}), "
              f"final_hv {r['final_hv']:.6f}, peak_rss_mb {r['peak_rss_mb']:.1f}, "
              f"digest {r['digest']}")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    problems = [f"seed {r['seed']}: {p}" for r in reps for p in r["problems"]]
    problems += same_seed_problems(reps, "seed")
    result = {"env": reps[0]["env"]}
    if traced:
        plain, layered = reps
        layers = dict(layered["layers"])
        layers["trace.overhead_ratio"] = layered["search_wall_s"] / plain["search_wall_s"] - 1.0
        accounted = layers["optim.glue_s"] + sum(
            v for k, v in layers.items() if k.endswith(".self_s")
        )
        print(f"trace: layer self times + optim.glue_s = {accounted:.6f}s, "
              f"traced run_search wall = {layers['trace.wall_s']:.6f}s, "
              f"overhead ratio {layers['trace.overhead_ratio']:.4f}")
        if abs(accounted - layers["trace.wall_s"]) > 1e-6 * max(1.0, layers["trace.wall_s"]):
            problems.append(f"self times add up to {accounted:.6f}s, traced wall is "
                            f"{layers['trace.wall_s']:.6f}s")
        result["per_layer"] = layers
    attempted = sum(r["attempted"] for r in reps)
    failed = attempted if problems else sum(r["failed"] for r in reps)
    wall = median([r["search_wall_s"] for r in reps])
    result.update(
        problems=problems,
        attempted=attempted,
        failed=failed,
        end_to_end={
            "setup_s": median(setups),
            "search_wall_s": wall,
            "cells_per_min": 60.0 / wall,
            "final_hv": statistics.mean(r["final_hv"] for r in reps[: len(seeds)]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
            "ok_ratio": (attempted - failed) / attempted,
        },
    )
    return result


# ---------------------------------------------------------------------- campaign

def campaign_command(workload: CampaignWorkload, store: Path, seeds: List[int]) -> List[str]:
    argv = [sys.executable, "-m", "repro", "campaign", "--store", str(store),
            "--workers", str(nproc()), "--quiet"]
    for scenario in workload.scenarios:
        argv += ["--scenario", scenario]
    for space in workload.spaces:
        argv += ["--search-space", space]
    for s in seeds:
        argv += ["--seed", str(s)]
    for flag, value in workload.budget.items():
        argv += [f"--{flag}", str(value)]
    return argv


_DONE = re.compile(r"campaign done: (\d+) executed, (\d+) skipped, (\d+) cells")


def campaign_counts(done: dict) -> Optional[tuple]:
    match = _DONE.search(done["out"])
    return tuple(int(g) for g in match.groups()) if match else None


def run_campaign_workload(workload: CampaignWorkload, seed: int, seconds: float,
                          traced: bool, work: Path) -> dict:
    units = list(range(1 if traced else workload.campaigns))
    cells = len(workload.scenarios) * len(workload.spaces) * workload.grid_seeds
    problems: List[str] = []
    stores = itertools.count()

    def run_unit(unit: int) -> dict:
        seeds = campaign_seeds(workload, seed, unit)
        store = work / f"store-{next(stores)}"
        done = run_child(campaign_command(workload, store, seeds), sample_rss=True)
        counts = campaign_counts(done)
        if done["code"] != 0 or counts != (cells, 0, cells):
            problems.append(f"campaign on seeds {seeds} exited {done['code']} with counts "
                            f"{counts}, expected ({cells}, 0, {cells}): {done['err'][-500:]}")
        return {"unit": unit, "seeds": seeds, "store": store, "done": done,
                "executed": counts[0] if counts else 0}

    reps = cycles(units, 0.0 if traced else seconds, run_unit)
    inspected = worker("store", workload, *(str(rep["store"]) for rep in reps))
    for i, (rep, store) in enumerate(zip(reps, inspected["stores"])):
        stored = store["cells"]
        bad = [c for c in stored if c["problems"]]
        problems.extend(f"cell {c['fingerprint']}: {p}" for c in bad for p in c["problems"])
        if len(stored) != cells:
            problems.append(f"store for seeds {rep['seeds']} holds {len(stored)} cells, "
                            f"expected {cells}")
        rep.update(cells=stored, store_scan_s=store["store_scan_s"],
                   failed=max(cells - rep["executed"], len(bad)),
                   digest=checks.cells_digest(stored))
        print(f"rep {i} seeds {rep['seeds']}: campaign wall {rep['done']['wall']:.4f}s for "
              f"{cells} cells, peak_rss_mb {rep['done']['peak_rss_mb']:.1f}, "
              f"digest {rep['digest']}")
    problems += same_seed_problems(reps, "unit")

    # set-up: identical re-invocations on the first finished store; then its report
    first = reps[0]
    setups = []
    for _ in range(0 if traced else SETUP_SAMPLES):
        again = run_child(campaign_command(workload, first["store"], first["seeds"]))
        setups.append(again["wall"])
        if again["code"] != 0 or campaign_counts(again) != (0, cells, cells):
            problems.append(f"re-invocation exited {again['code']} with counts "
                            f"{campaign_counts(again)}, expected (0, {cells}, {cells})")
    print(f"setup_s samples (re-invocations): {', '.join(f'{s:.4f}' for s in setups)}")
    report = run_child([sys.executable, "-m", "repro", "report", "--store",
                        str(first["store"]), "--format", "json"])
    if report["code"] != 0:
        problems.append(f"repro report exited {report['code']}: {report['err'][-500:]}")
    else:
        grid = {(sc, sp): first["seeds"] for sc in workload.scenarios for sp in workload.spaces}
        fingerprints = [c["fingerprint"] for c in first["cells"]]
        problems += checks.check_report(json.loads(report["out"]), fingerprints, grid)

    attempted = cells * len(reps)
    failed = attempted if problems else sum(rep["failed"] for rep in reps)
    first_cycle = [c for rep in reps[: len(units)] for c in rep["cells"]]
    wall = median([rep["done"]["wall"] for rep in reps])
    result = {
        "env": inspected["env"],
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": median(setups),
            "search_wall_s": wall,
            "cells_per_min": 60.0 * cells / wall,
            "final_hv": statistics.mean(c["final_hv"] for c in first_cycle) if first_cycle else 0.0,
            "peak_rss_mb": median([rep["done"]["peak_rss_mb"] for rep in reps]),
            "ok_ratio": (attempted - failed) / attempted,
        },
    }
    if traced:
        cell_s = [c["search_s"] for c in first["cells"]]
        result["per_layer"] = {
            "campaign.cell_search_s.p50": median(cell_s),
            "campaign.cell_search_s.max": max(cell_s, default=0.0),
            "campaign.cells": cells,
            "campaign.busy_ratio": sum(cell_s) / (nproc() * first["done"]["wall"]),
            "campaign.cells.executed": first["executed"],
            "campaign.cells.failed": first["failed"],
            "campaign.store_scan_s": first["store_scan_s"],
            "campaign.report_s": report["wall"],
            "resilience.health_events": sum(c["health_events"] for c in first["cells"]),
            # the campaign's layers are read from its store and CLI after it
            # ends, so nothing wraps the campaign itself
            "trace.overhead_ratio": 0.0,
            "trace.wall_s": first["done"]["wall"],
        }
    return result


# ---------------------------------------------------------------------- entry

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if isinstance(workload, CampaignWorkload):
            result = run_campaign_workload(workload, args.seed, args.seconds, traced, work)
        else:
            result = run_search_workload(workload, args.seed, args.seconds, traced)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    env = dict(result["env"], nproc=nproc(), python=sys.version.split()[0],
               blas_threads={k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                             "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
               commit=git_commit(), workload=workload.name, seed=args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    kind = "per_layer" if traced else "end_to_end"
    values = result[kind]
    unknown = sorted(set(values) - set(declared[kind]))
    if unknown:
        print(f"perfbench: metrics not declared in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 2
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
        for name, spec in declared[kind].items()
    }
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
