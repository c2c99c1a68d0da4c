"""Output checks, the fixed-box hypervolume and the candidate digest.

Everything here is computed by the benchmark itself from the program's
outputs, so a change to the program cannot also change how its results are
judged.  The functions take plain candidate records (anything with the
``CandidateEvaluation`` attributes) and return lists of problems: an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

#: Objective order of every hypervolume box: (error %, latency s, energy J).
OBJECTIVES = ("error_percent", "latency_s", "energy_j")


def objective_rows(candidates: Iterable) -> List[Tuple[float, float, float]]:
    return [tuple(float(getattr(c, name)) for name in OBJECTIVES) for c in candidates]


def candidate_digest(candidates: Iterable) -> str:
    """Short hash of the genotype sequence, in evaluation order."""
    h = hashlib.sha256()
    for candidate in candidates:
        h.update(",".join(str(int(g)) for g in candidate.genotype).encode())
        h.update(b";")
    return h.hexdigest()[:16]


def cells_digest(cells: Iterable[dict]) -> str:
    """Short hash of a campaign's stored cells: fingerprints and sequences."""
    h = hashlib.sha256()
    for cell in sorted(cells, key=lambda c: c["fingerprint"]):
        h.update(f"{cell['fingerprint']}:{cell['digest']};".encode())
    return h.hexdigest()[:16]


def _area_2d(points: Sequence[Tuple[float, float]]) -> float:
    """Area dominated by 2-D points inside the unit box (reference (1, 1))."""
    area = 0.0
    best_y = 1.0
    ordered = sorted(points)
    for i, (x, y) in enumerate(ordered):
        best_y = min(best_y, y)
        next_x = ordered[i + 1][0] if i + 1 < len(ordered) else 1.0
        area += (next_x - x) * (1.0 - best_y)
    return area


def _non_dominated(points: List[List[float]]) -> List[List[float]]:
    """Points no other point weakly dominates (dominated ones add no volume)."""
    kept: List[List[float]] = []
    for point in sorted(points):  # every dominator sorts before what it dominates
        if not any(all(k <= p for k, p in zip(other, point)) for other in kept):
            kept.append(point)
    return kept


def box_hypervolume(
    rows: Sequence[Sequence[float]], ideal: Sequence[float], reference: Sequence[float]
) -> float:
    """Share of the box ``[ideal, reference]`` dominated by ``rows`` (3 objectives).

    Each objective is scaled so the box is the unit cube; points outside the
    reference contribute only their part inside it.  Exact, by slicing along
    the last objective and sweeping the first two.
    """
    scaled = []
    for row in rows:
        point = [
            (min(v, r) - lo) / (r - lo) for v, lo, r in zip(row, ideal, reference)
        ]
        if all(0.0 <= p < 1.0 for p in point):
            scaled.append(point)
        elif any(p < 0.0 for p in point):
            raise ValueError(f"point {tuple(row)} lies below the ideal corner {tuple(ideal)}")
    scaled = _non_dominated(scaled)
    scaled.sort(key=lambda p: p[2])
    volume = 0.0
    for i, point in enumerate(scaled):
        next_z = scaled[i + 1][2] if i + 1 < len(scaled) else 1.0
        if next_z > point[2]:
            volume += _area_2d([(p[0], p[1]) for p in scaled[: i + 1]]) * (next_z - point[2])
    return volume


def check_search(
    candidates: Sequence,
    budget: int,
    graph_of: Optional[Callable] = None,
) -> List[str]:
    """Problems with one search's output (empty when it is correct).

    The search must spend its whole ``budget`` on distinct genotypes with
    finite objectives.  With ``graph_of(genotype) -> PartitionGraph`` given
    (residual spaces), no best-latency or best-energy deployment may cut
    inside a skip edge.
    """
    problems = []
    if len(candidates) != budget:
        problems.append(f"{len(candidates)} candidates evaluated, budget is {budget}")
    genotypes = [tuple(int(g) for g in c.genotype) for c in candidates]
    if len(set(genotypes)) != len(genotypes):
        problems.append(f"{len(genotypes) - len(set(genotypes))} duplicate genotypes")
    bad = [i for i, row in enumerate(objective_rows(candidates)) if not all(map(math.isfinite, row))]
    if bad:
        problems.append(f"{len(bad)} candidates with non-finite objectives (first #{bad[0]})")
    if graph_of is not None:
        for i, candidate in enumerate(candidates):
            options = [candidate.best_latency_option, candidate.best_energy_option]
            splits = [o.split_index for o in options if o.is_split]
            if splits:
                graph = graph_of(candidate.genotype)
                illegal = [s for s in splits if not graph.allows_cut_after(s)]
                if illegal:
                    problems.append(f"candidate #{i} splits a skip edge after layer {illegal[0]}")
                    break
    return problems


def check_report(report: dict, fingerprints: Sequence[str], grid: dict) -> List[str]:
    """Problems with a ``repro report --format json`` payload for a campaign.

    ``grid`` maps ``(scenario, search_space)`` to the seeds expected there.
    """
    problems = []
    if report.get("num_runs") != len(fingerprints):
        problems.append(f"report lists {report.get('num_runs')} runs, store holds {len(fingerprints)}")
    listed = {}
    for cell in report.get("cells", []):
        key = (cell.get("scenario"), cell.get("search_space"))
        listed[key] = sorted(cell.get("seeds", []))
    for key, seeds in grid.items():
        if listed.get(key) != sorted(seeds):
            problems.append(f"report cell {key} lists seeds {listed.get(key)}, expected {sorted(seeds)}")
    return problems
