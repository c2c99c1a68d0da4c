"""The process-wide BLAS thread policy, and determinism across thread counts.

``import repro`` pins OpenBLAS/OpenMP/MKL to one thread unless the user set
any of the three variables.  Each check runs in a fresh interpreter whose
environment has none of them, because this test process has already
imported both numpy and ``repro``.

The determinism check is the guarantee the policy leans on: one request
selects the same candidates under one or two BLAS threads, and under the
serial and pull-worker campaign executors.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import SearchOutcome
from repro.campaign import CampaignSpec, open_store

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_env(**variables: str) -> dict:
    """This process's environment without BLAS variables, plus ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    env.update(variables)
    return env


def python(args, env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def finish(process: subprocess.Popen) -> str:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return out


# ------------------------------------------------------------------ the policy

PROBE = """
import json, os
import repro
import numpy
a = numpy.ones((512, 512))
a @ a
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"env": {k: os.environ.get(k) for k in %r}, "threads": tasks}))
""" % (BLAS_VARIABLES,)


def probe(**variables: str) -> dict:
    return json.loads(finish(python(["-c", PROBE], fresh_env(**variables))))


@pytest.fixture(scope="module")
def default_probe() -> dict:
    return probe()


def test_import_pins_every_blas_variable_to_one_thread(default_probe):
    assert default_probe["env"] == dict.fromkeys(BLAS_VARIABLES, "1")


def test_a_user_set_variable_leaves_all_three_alone():
    # OpenBLAS reads OPENBLAS_NUM_THREADS first, so setting it here would
    # override the user's OMP_NUM_THREADS.
    assert probe(OMP_NUM_THREADS="2")["env"] == {
        "OPENBLAS_NUM_THREADS": None,
        "OMP_NUM_THREADS": "2",
        "MKL_NUM_THREADS": None,
    }


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="BLAS worker threads only show in /proc/self/task on a multi-core Linux box",
)
def test_a_matmul_after_import_starts_no_blas_threads(default_probe):
    assert default_probe["threads"] == 1


# ---------------------------------------------------------------- determinism

SPEC = CampaignSpec(
    scenarios=("wifi-3mbps/jetson-tx2-gpu",),
    seeds=(0, 1),
    acquisition="epdc",
    batch_size=2,
    num_initial=4,
    num_iterations=4,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)
CAMPAIGN_FLAGS = [
    "--scenario", "wifi-3mbps/jetson-tx2-gpu", "--seed", "0", "--seed", "1",
    "--acquisition", "epdc", "--batch-size", "2", "--num-initial", "4",
    "--num-iterations", "4", "--pool-size", "16", "--predictor-samples", "40", "--quiet",
]  # fmt: skip

SEARCH = """
import json, sys
from repro.api import SearchRequest, run_search
print(json.dumps(run_search(SearchRequest.from_dict(json.loads(sys.argv[1]))).to_dict()))
"""


def sequence(outcome) -> list:
    return [[list(c.genotype), c.error_percent, c.latency_s, c.energy_j] for c in outcome.candidates]


def test_candidates_are_identical_across_blas_threads_and_executors(tmp_path):
    request = SPEC.requests()[0]
    assert request.acquisition == "epdc" and request.batch_size == 2 and request.seed == 0
    payload = json.dumps(request.to_dict())
    serial, pulled = tmp_path / "serial", tmp_path / "pulled"
    processes = [
        python(["-c", SEARCH, payload], fresh_env()),
        python(["-c", SEARCH, payload], fresh_env(OPENBLAS_NUM_THREADS="2")),
        python(
            ["-m", "repro", "campaign", *CAMPAIGN_FLAGS, "--store", str(serial), "--executor", "serial"],
            fresh_env(),
        ),
        python(
            ["-m", "repro", "campaign", *CAMPAIGN_FLAGS, "--store", str(pulled),
             "--executor", "pull-worker", "--workers", "2", "--poll", "0.1"],
            fresh_env(),
        ),
    ]  # fmt: skip
    try:
        one_thread, two_threads, _, _ = [finish(p) for p in processes]
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()

    expected = sequence(SearchOutcome.from_dict(json.loads(one_thread)))
    assert len(expected) == request.num_evaluations
    assert sequence(SearchOutcome.from_dict(json.loads(two_threads))) == expected

    fingerprints = sorted(r.fingerprint() for r in SPEC.requests())
    for directory in (serial, pulled):
        store = open_store(directory)
        assert sorted(store.fingerprints()) == fingerprints
        assert sequence(store.get(request.fingerprint())) == expected
    other = SPEC.requests()[1].fingerprint()
    assert sequence(open_store(serial).get(other)) == sequence(open_store(pulled).get(other))
