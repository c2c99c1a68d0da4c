"""The benchmark's workloads: what each one runs, and the fixed boxes its
hypervolume is measured in.

Every input is derived from the ``--seed`` given to ``run.py``; the program
only ever sees the resulting search requests and campaign grids.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Scenario of the search workloads (the paper's WiFi / Jetson TX2 GPU unit).
SEARCH_SCENARIO = "wifi-3mbps/jetson-tx2-gpu"

#: Set-up samples per run: search workloads top their searches up with
#: interpreters that only set up (import + ``build_context``); the campaign
#: re-invokes itself this many times on a finished store.
SETUP_SAMPLES = 3

#: Hypervolume boxes ``(ideal, reference)`` over (error %, latency s,
#: energy J), per search space.  Fixed here, so a value compares across
#: commits whatever candidates a commit picks.  Each reference lies about
#: half the observed range beyond the worst value any candidate of the
#: workload's scenarios reached: every candidate counts, and one lucky
#: extreme point moves the value less than with a tight box.
Box = Tuple[Tuple[float, float, float], Tuple[float, float, float]]
WIFI_BOXES: Dict[str, Box] = {
    "lens-vgg": ((15.0, 0.0, 0.0), (40.0, 0.6, 0.6)),
    "resnet-v1": ((15.0, 0.0, 0.0), (40.0, 0.6, 0.6)),
}
#: The campaign mixes WiFi and LTE cells: its boxes also cover LTE energy.
CAMPAIGN_BOXES: Dict[str, Box] = {
    "lens-vgg": ((15.0, 0.0, 0.0), (40.0, 0.6, 1.5)),
    "seq-conv1d": ((20.0, 0.0, 0.0), (40.0, 0.07, 0.65)),
}


class SearchWorkload(NamedTuple):
    name: str
    request: Dict[str, object]  # SearchRequest fields except the seed
    searches: int  # distinct seeds searched per run, each in a fresh interpreter
    boxes: Dict[str, Box]


class CampaignWorkload(NamedTuple):
    name: str
    scenarios: Tuple[str, ...]
    spaces: Tuple[str, ...]
    grid_seeds: int  # grid seeds of one campaign
    campaigns: int  # campaigns per run, each on its own grid seeds, into a fresh store
    budget: Dict[str, int]  # per-cell `repro campaign` budget flags
    boxes: Dict[str, Box]


PAPER_BUDGET = {"num_initial": 30, "num_iterations": 270}

WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            "search-vgg-ts",
            dict(strategy="lens", search_space="lens-vgg", acquisition="ts",
                 batch_size=1, scenario=SEARCH_SCENARIO, **PAPER_BUDGET),
            searches=1,
            boxes=WIFI_BOXES,
        ),
        SearchWorkload(
            "search-resnet-epdc4",
            dict(strategy="lens", search_space="resnet-v1", acquisition="epdc",
                 batch_size=4, scenario=SEARCH_SCENARIO, **PAPER_BUDGET),
            searches=1,
            boxes=WIFI_BOXES,
        ),
        SearchWorkload(
            "search-random-resnet",
            dict(strategy="random", search_space="resnet-v1", num_initial=30,
                 num_iterations=1970, scenario=SEARCH_SCENARIO),
            searches=2,
            boxes=WIFI_BOXES,
        ),
        CampaignWorkload(
            "campaign-cli-2w",
            scenarios=("wifi-3mbps/jetson-tx2-gpu", "lte-3mbps/jetson-tx2-gpu"),
            spaces=("lens-vgg", "seq-conv1d"),
            grid_seeds=2,
            campaigns=2,
            budget={"num-initial": 10, "num-iterations": 15},
            boxes=CAMPAIGN_BOXES,
        ),
    )
}


def search_seeds(workload: SearchWorkload, seed: int) -> List[int]:
    """Request seeds of one run: ``searches`` consecutive seeds per run seed."""
    return [seed * workload.searches + i for i in range(workload.searches)]


def campaign_seeds(workload: CampaignWorkload, seed: int, campaign: int) -> List[int]:
    """Grid seeds of one run's ``campaign``-th campaign."""
    n = workload.grid_seeds
    first = (seed * workload.campaigns + campaign) * n
    return list(range(first, first + n))
