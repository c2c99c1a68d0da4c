"""Run-store persistence: fingerprints, round-trips, torn tails, old stores."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.api.envelopes import SearchOutcome, SearchRequest, request_fingerprint
from repro.api.session import run_search
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.store import (
    INDEX_FILENAME,
    RUNS_FILENAME,
    SHARDS_DIRNAME,
    RunStore,
    StoreError,
    fsck_store,
    merge_stores,
)

#: Budgets small enough that one run is milliseconds.
FAST = dict(
    num_initial=4,
    num_iterations=2,
    candidate_pool_size=16,
    predictor_samples_per_type=40,
)


def _request(**overrides) -> SearchRequest:
    fields = dict(FAST, scenario="wifi-3mbps/jetson-tx2-gpu", strategy="random", seed=0)
    fields.update(overrides)
    return SearchRequest(**fields)


def _shard(directory: Path) -> Path:
    """The single shard file of a store holding one context."""
    (path,) = (directory / SHARDS_DIRNAME).glob("*.jsonl")
    return path


class TestRequestFingerprint:
    def test_deterministic_and_tag_independent(self):
        base = _request()
        assert base.fingerprint() == _request().fingerprint()
        tagged = _request(tags={"note": "metadata must not change the key"})
        assert tagged.fingerprint() == base.fingerprint()

    def test_sensitive_to_computational_fields(self):
        base = _request()
        for changed in (
            _request(seed=1),
            _request(strategy="lens"),
            _request(scenario="lte-3mbps/jetson-tx2-gpu"),
            _request(num_iterations=3),
            _request(acquisition="ucb"),
        ):
            assert changed.fingerprint() != base.fingerprint()

    def test_survives_serialization_round_trip(self):
        base = _request(tags={"run": "a"})
        restored = SearchRequest.from_dict(json.loads(json.dumps(base.to_dict())))
        assert request_fingerprint(restored) == base.fingerprint()


class TestRunStore:
    def test_append_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        fingerprint = store.append(outcome)
        assert fingerprint == outcome.request.fingerprint()
        assert fingerprint in store
        assert len(store) == 1
        restored = store.get(fingerprint)
        assert restored.to_dict() == outcome.to_dict()

    def test_reopen_recovers_index(self, tmp_path):
        directory = tmp_path / "store"
        store = RunStore(directory)
        fingerprints = [
            store.append(run_search(_request(seed=seed))) for seed in (0, 1, 2)
        ]
        (directory / INDEX_FILENAME).unlink()  # the JSONL is the source of truth

        reopened = RunStore(directory)
        assert reopened.fingerprints() == fingerprints
        # opening for reading never writes; the next append refreshes the index
        assert not (directory / INDEX_FILENAME).exists()
        for fingerprint in fingerprints:
            assert reopened.get(fingerprint).request.fingerprint() == fingerprint
        reopened.append(run_search(_request(seed=3)))
        assert (directory / INDEX_FILENAME).exists()

    def test_open_for_reading_creates_nothing(self, tmp_path):
        directory = tmp_path / "absent"
        store = RunStore(directory)
        assert len(store) == 0
        assert list(store.outcomes()) == []
        assert not directory.exists()  # only the first append creates it

    def test_duplicate_append_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        outcome = run_search(_request())
        store.append(outcome)
        with pytest.raises(StoreError, match="already stored"):
            store.append(outcome)

    def test_torn_tail_is_ignored_on_open_and_fenced_by_append(self, tmp_path):
        directory = tmp_path / "store"
        store = RunStore(directory)
        store.append(run_search(_request(seed=0)))
        kept = store.append(run_search(_request(seed=1)))
        shard_path = _shard(directory)
        # simulate a process killed mid-append: half a record, no newline
        torn = shard_path.read_bytes() + b'{"fingerprint": "dead", "outco'
        shard_path.write_bytes(torn)

        reopened = RunStore(directory)
        assert len(reopened) == 2
        assert list(o.request.seed for o in reopened.outcomes()) == [0, 1]
        # opening read-only leaves the file alone (a concurrent writer may
        # still be flushing that tail)
        assert shard_path.read_bytes() == torn
        # the next append ends the fragment's line before its own record:
        # no byte is destroyed, and the fragment is one counted corrupt line
        appended = reopened.append(run_search(_request(seed=2)))
        assert shard_path.read_bytes().startswith(torn + b"\n")
        assert reopened.fingerprints() == RunStore(directory).fingerprints()
        assert reopened.fingerprints()[-1] == appended
        assert kept in reopened
        assert RunStore(directory).summary()["corrupt_lines"] == 1

    def test_parseable_tail_without_newline_is_still_torn(self, tmp_path):
        """Durability requires the newline: a flushed prefix that happens to
        parse as complete JSON is not indexed until its line is ended."""
        directory = tmp_path / "store"
        store = RunStore(directory)
        store.append(run_search(_request(seed=0)))
        last = store.append(run_search(_request(seed=1)))
        shard_path = _shard(directory)
        shard_path.write_bytes(shard_path.read_bytes().rstrip(b"\n"))  # kill ate \n

        reopened = RunStore(directory)
        assert len(reopened) == 1  # the newline-less record is torn, not stored
        assert last not in reopened
        readded = reopened.append(run_search(_request(seed=1)))
        assert readded == last
        assert RunStore(directory).fingerprints() == reopened.fingerprints()

    def test_corrupt_middle_record_raises(self, tmp_path):
        """A damaged record is never served (reading it raises), but the
        store still opens: the damage is counted for fsck to quarantine."""
        directory = tmp_path / "store"
        store = RunStore(directory)
        damaged = store.append(run_search(_request(seed=0)))
        kept = store.append(run_search(_request(seed=1)))
        shard_path = _shard(directory)
        lines = shard_path.read_bytes().splitlines(keepends=True)
        shard_path.write_bytes(b"not json\n" + lines[1])

        reopened = RunStore(directory)
        assert reopened.fingerprints() == [kept]
        assert reopened.summary()["corrupt_lines"] == 1
        with pytest.raises(KeyError, match=damaged):
            reopened.get(damaged)

    def test_outcomes_stream_in_append_order(self, tmp_path):
        store = RunStore(tmp_path / "store")
        expected = []
        for seed in (3, 1, 2):
            outcome = run_search(_request(seed=seed))
            store.append(outcome)
            expected.append(outcome.request.seed)
        assert [o.request.seed for o in store.outcomes()] == expected

    def test_summary_aggregates_records(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(run_search(_request(seed=0)))
        store.append(run_search(_request(seed=0, strategy="lens")))
        summary = store.summary()
        assert summary["num_runs"] == 2
        assert summary["scenarios"] == ["wifi-3mbps/jetson-tx2-gpu"]
        assert summary["strategies"] == ["lens", "random"]

    def test_outcomes_paginate_with_offset_and_limit(self, tmp_path):
        store = RunStore(tmp_path / "store")
        expected = []
        for seed in (0, 1, 2, 3):
            store.append(run_search(_request(seed=seed)))
            expected.append(seed)
        assert [o.request.seed for o in store.outcomes(offset=1, limit=2)] == [1, 2]
        assert [o.request.seed for o in store.outcomes(offset=3)] == [3]
        assert [o.request.seed for o in store.outcomes(offset=9)] == []
        with pytest.raises(ValueError, match="non-negative"):
            list(store.outcomes(offset=-1))
        with pytest.raises(ValueError, match="non-negative"):
            list(store.outcomes(limit=-1))

    def test_index_write_is_atomic(self, tmp_path):
        """No temp droppings, and never a torn index file on disk."""
        directory = tmp_path / "store"
        store = RunStore(directory)
        store.append(run_search(_request(seed=0)))
        leftovers = [
            p.name for p in directory.iterdir()
            if ".tmp." in p.name
        ]
        assert leftovers == []
        json.loads((directory / INDEX_FILENAME).read_text(encoding="utf-8"))

    def test_index_flush_is_deferred_past_small_threshold(self, tmp_path):
        """Large stores write O(n) index bytes, not O(n^2): flushes happen
        at geometric sizes, with flush()/close() persisting the rest."""
        from repro.campaign.store import INDEX_FLUSH_SMALL

        directory = tmp_path / "store"
        directory.mkdir(parents=True)
        outcome = run_search(_request(seed=0))
        record = json.dumps(
            {"fingerprint": "f", "outcome": outcome.to_dict()}
        )
        # simulate a long campaign cheaply: write raw records into the
        # pre-sharding file (read like any shard), then reopen
        with (directory / RUNS_FILENAME).open("a", encoding="utf-8") as handle:
            for i in range(INDEX_FLUSH_SMALL + 100):
                handle.write(record.replace('"f"', f'"f{i:08d}"', 1) + "\n")
        big = RunStore(directory)
        assert len(big) == INDEX_FLUSH_SMALL + 100
        writes_before = big.index_writes
        for i in range(40):
            big.append(run_search(_request(seed=100 + i)))
        # 40 appends past the threshold trigger at most a couple of flushes
        assert big.index_writes - writes_before <= 2
        big.flush()
        reopened = RunStore(directory)
        assert len(reopened) == len(big)
        # the persisted index is current after flush()
        index = json.loads((directory / INDEX_FILENAME).read_text("utf-8"))
        assert len(index["records"]) == len(big)

    def test_context_manager_flushes_on_close(self, tmp_path):
        directory = tmp_path / "store"
        with RunStore(directory) as store:
            store.append(run_search(_request(seed=0)))
        json.loads((directory / INDEX_FILENAME).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- old stores

#: A store written by the pre-sharding single-file format: one root
#: ``runs.jsonl`` (whose first record predates per-record checksums), its
#: ``index.json`` and a root ``audit.jsonl`` holding one failure envelope.
LEGACY_STORE = Path(__file__).parent / "data" / "legacy_store"

#: The grid that store was written from, and its fingerprints in file order.
LEGACY_SPEC = CampaignSpec(
    scenarios=("wifi-3mbps/jetson-tx2-gpu",),
    strategies=("random",),
    seeds=(0, 1, 2),
    **FAST,
)
LEGACY_FINGERPRINTS = ["fb321cf4785230f1", "3279de8932a32a87", "a038495d2e102a3e"]


@pytest.fixture
def legacy_store(tmp_path) -> Path:
    directory = tmp_path / "legacy"
    shutil.copytree(LEGACY_STORE, directory)
    return directory


class TestLegacyStore:
    def test_serves_the_stored_records_and_audit(self, legacy_store):
        store = RunStore(legacy_store)
        assert store.fingerprints() == LEGACY_FINGERPRINTS
        lines = (legacy_store / RUNS_FILENAME).read_bytes().splitlines()
        assert "crc32" not in json.loads(lines[0])  # the pre-CRC record
        for fingerprint, line in zip(LEGACY_FINGERPRINTS, lines):
            expected = SearchOutcome.from_dict(json.loads(line)["outcome"])
            assert store.get(fingerprint).to_dict() == expected.to_dict()
        assert [o.request.fingerprint() for o in store.outcomes()] == LEGACY_FINGERPRINTS
        assert [e.code for e in store.audit_records()] == ["E_EXECUTION"]
        assert store.summary()["audit"]["num_records"] == 1

    def test_campaign_on_the_same_grid_skips_every_cell(self, legacy_store):
        result = run_campaign(LEGACY_SPEC, RunStore(legacy_store))
        assert result.executed == ()
        assert sorted(result.skipped) == sorted(LEGACY_FINGERPRINTS)

    def test_new_appends_go_to_shards(self, legacy_store):
        runs = (legacy_store / RUNS_FILENAME).read_bytes()
        fingerprint = RunStore(legacy_store).append(run_search(_request(seed=3)))
        assert (legacy_store / RUNS_FILENAME).read_bytes() == runs
        record = json.loads(_shard(legacy_store).read_bytes())
        assert record["fingerprint"] == fingerprint
        assert RunStore(legacy_store).fingerprints() == [*LEGACY_FINGERPRINTS, fingerprint]

    def test_fsck_compact_and_merge(self, legacy_store, tmp_path):
        report = fsck_store(legacy_store)
        assert report["clean"]
        assert (report["legacy"], report["intact"]) == (1, 2)
        assert RunStore(legacy_store).compact()["kept"] == 3
        assert RunStore(legacy_store).fingerprints() == LEGACY_FINGERPRINTS
        dest = RunStore(tmp_path / "merged")
        stats = merge_stores([RunStore(legacy_store)], dest)
        assert stats == {"merged": 3, "skipped": 0}
        assert sorted(dest.fingerprints()) == sorted(LEGACY_FINGERPRINTS)
