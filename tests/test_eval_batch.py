"""Correctness of the one candidate-costing path.

The batched engine (`predict_batch` / `PartitionAnalyzer.evaluate_batch` /
`EvaluationEngine.evaluate_batch` / `PartitionAwareEvaluator.evaluate_pool`)
must reproduce the scalar Algorithm 1 oracle below to <= 1e-9 for any
architecture of any registered search space under any channel mix, must give
bit-identical records however a pool is grouped or ordered, and the engine's
hit/miss counters must account for every pool position.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import EvaluationEngine
from repro.api.registry import SEARCH_SPACES
from repro.core.evaluation import PartitionAwareEvaluator, space_partition_graph
from repro.accuracy.surrogate import AccuracySurrogate
from repro.hardware.device import cloud_server, jetson_tx2_gpu
from repro.hardware.predictors import (
    LayerPerformancePredictor,
    OracleLayerPredictor,
)
from repro.optim.mobo import MultiObjectiveBayesianOptimizer
from repro.partition.deployment import DeploymentMetrics, DeploymentOption
from repro.partition.partitioner import (
    PartitionAnalyzer,
    PartitionEvaluation,
    identify_partition_points,
)
from repro.wireless.channel import WirelessChannel

PARITY = 1e-9

METRIC_FIELDS = (
    "latency_s",
    "energy_j",
    "edge_latency_s",
    "edge_energy_j",
    "comm_latency_s",
    "comm_energy_j",
    "transferred_bytes",
)

SPACE_NAMES = ("lens-vgg", "resnet-v1", "seq-conv1d")


@functools.lru_cache(maxsize=None)
def _space(name):
    return SEARCH_SPACES.create(name)


@functools.lru_cache(maxsize=1)
def _oracle():
    return OracleLayerPredictor(jetson_tx2_gpu())


@functools.lru_cache(maxsize=1)
def _trained():
    return LayerPerformancePredictor.train_for_device(
        jetson_tx2_gpu(), samples_per_type=40, seed=7
    )


@functools.lru_cache(maxsize=1)
def _trained_cloud():
    return LayerPerformancePredictor.train_for_device(
        cloud_server(), samples_per_type=40, seed=7
    )


def scalar_costing_oracle(analyzer, architecture, predictions=None, graph=None):
    """Algorithm 1 for one architecture as a plain loop over its cut points.

    The reference the batched costing is checked against: per-layer prefix
    sums, then one ``channel.cost`` per deployment option, with the cloud
    compute of the offloaded suffix (when the analyzer has a cloud
    predictor) re-summed per cut.
    """
    summaries = architecture.summarize()
    if predictions is None:
        predictions = analyzer.predictor.predict_architecture(architecture)
    assert len(predictions) == len(summaries)
    channel = analyzer.channel
    latencies = np.array([p.latency_s for p in predictions])
    energies = np.array([p.energy_j for p in predictions])
    cumulative_latency = np.cumsum(latencies)
    cumulative_energy = np.cumsum(energies)
    input_bytes = architecture.input_bytes
    # cloud_suffix[i]: cloud compute latency of layers i..end.
    cloud_suffix = [0.0] * (len(summaries) + 1)
    if analyzer.cloud_predictor is not None:
        cloud = [
            p.latency_s
            for p in analyzer.cloud_predictor.predict_architecture(architecture)
        ]
        cloud_suffix = [sum(cloud[first:]) for first in range(len(cloud) + 1)]

    cloud_cost = channel.cost(input_bytes)
    options = [
        DeploymentMetrics(
            option=DeploymentOption.all_cloud(),
            latency_s=cloud_cost.latency_s + cloud_suffix[0],
            energy_j=cloud_cost.energy_j,
            edge_latency_s=0.0,
            edge_energy_j=0.0,
            comm_latency_s=cloud_cost.latency_s,
            comm_energy_j=cloud_cost.energy_j,
            transferred_bytes=float(input_bytes),
        ),
        DeploymentMetrics(
            option=DeploymentOption.all_edge(),
            latency_s=float(cumulative_latency[-1]),
            energy_j=float(cumulative_energy[-1]),
            edge_latency_s=float(cumulative_latency[-1]),
            edge_energy_j=float(cumulative_energy[-1]),
            comm_latency_s=0.0,
            comm_energy_j=0.0,
            transferred_bytes=0.0,
        ),
    ]
    partition_points = identify_partition_points(
        summaries,
        input_bytes,
        require_shrinkage=analyzer.require_shrinkage,
        graph=graph if graph is not None else architecture.partition_graph(),
    )
    for index in partition_points:
        transfer_bytes = float(summaries[index].output_bytes)
        comm_cost = channel.cost(transfer_bytes)
        edge_latency = float(cumulative_latency[index])
        edge_energy = float(cumulative_energy[index])
        options.append(
            DeploymentMetrics(
                option=DeploymentOption.split_after(index, summaries[index].name),
                latency_s=edge_latency + comm_cost.latency_s + cloud_suffix[index + 1],
                energy_j=edge_energy + comm_cost.energy_j,
                edge_latency_s=edge_latency,
                edge_energy_j=edge_energy,
                comm_latency_s=comm_cost.latency_s,
                comm_energy_j=comm_cost.energy_j,
                transferred_bytes=transfer_bytes,
            )
        )
    return PartitionEvaluation(
        architecture_name=architecture.name,
        options=tuple(options),
        layer_latencies_s=tuple(float(v) for v in latencies),
        layer_energies_j=tuple(float(v) for v in energies),
        layer_output_bytes=tuple(int(s.output_bytes) for s in summaries),
        partition_point_indices=tuple(partition_points),
    )


def _assert_evaluations_match(scalar_eval, batched_eval, tolerance=PARITY):
    assert scalar_eval.architecture_name == batched_eval.architecture_name
    assert (
        scalar_eval.partition_point_indices == batched_eval.partition_point_indices
    )
    assert [m.option for m in scalar_eval.options] == [
        m.option for m in batched_eval.options
    ]
    for field in ("layer_latencies_s", "layer_energies_j", "layer_output_bytes"):
        np.testing.assert_allclose(
            getattr(scalar_eval, field), getattr(batched_eval, field),
            rtol=0, atol=tolerance,
        )
    for scalar_metrics, batched_metrics in zip(
        scalar_eval.options, batched_eval.options
    ):
        for field in METRIC_FIELDS:
            assert abs(
                getattr(scalar_metrics, field) - getattr(batched_metrics, field)
            ) <= tolerance


# ---------------------------------------------------------------------- property tests

@settings(max_examples=20, deadline=None)
@given(
    space_name=st.sampled_from(SPACE_NAMES),
    seed=st.integers(0, 2**31 - 1),
    pool_size=st.integers(1, 5),
    uplinks=st.lists(
        st.floats(0.2, 60.0, allow_nan=False), min_size=1, max_size=3
    ),
    round_trip=st.floats(0.0, 0.2, allow_nan=False),
)
def test_analyzer_batch_matches_scalar_across_spaces(
    space_name, seed, pool_size, uplinks, round_trip
):
    """analyzer.evaluate_batch matches the scalar oracle for random candidates."""
    space = _space(space_name)
    predictor = _oracle()
    rng = np.random.default_rng(seed)
    genotypes = [space.sample(rng) for _ in range(pool_size)]
    architectures = [space.decode_for_performance(g) for g in genotypes]
    graphs = [space_partition_graph(space, a) for a in architectures]
    channels = [
        WirelessChannel.create("wifi", uplink_mbps=u, round_trip_s=round_trip)
        for u in uplinks
    ]
    analyzer = PartitionAnalyzer(predictor, channels[0])
    batched = analyzer.evaluate_batch(architectures, channels=channels, graphs=graphs)
    for i, architecture in enumerate(architectures):
        predictions = tuple(
            predictor.predict_layer(s) for s in architecture.summarize()
        )
        for ci, channel in enumerate(channels):
            scalar = scalar_costing_oracle(
                analyzer.with_channel(channel),
                architecture,
                predictions=predictions,
                graph=graphs[i],
            )
            _assert_evaluations_match(scalar, batched[i][ci])


@settings(max_examples=15, deadline=None)
@given(
    space_name=st.sampled_from(SPACE_NAMES),
    seed=st.integers(0, 2**31 - 1),
    pool_size=st.integers(1, 4),
)
def test_predict_batch_matches_predict_layer(space_name, seed, pool_size):
    """The vectorised per-family predictor equals predict_layer exactly."""
    space = _space(space_name)
    predictor = _trained()
    rng = np.random.default_rng(seed)
    architectures = [
        space.decode_for_performance(space.sample(rng)) for _ in range(pool_size)
    ]
    batched = predictor.predict_batch(architectures)
    for architecture, predictions in zip(architectures, batched):
        reference = [
            predictor.predict_layer(s) for s in architecture.summarize()
        ]
        assert list(predictions) == reference


@settings(max_examples=10, deadline=None)
@given(space_name=st.sampled_from(SPACE_NAMES), seed=st.integers(0, 2**31 - 1))
def test_evaluate_pool_matches_evaluate_genotype(space_name, seed):
    """evaluate_pool produces exactly the records evaluate_genotype would."""
    space = _space(space_name)
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0)
    analyzer = PartitionAnalyzer(_oracle(), channel)
    rng = np.random.default_rng(seed)
    genotypes = [space.sample(rng) for _ in range(4)]

    pool_evaluator = PartitionAwareEvaluator(
        space, AccuracySurrogate(), analyzer, engine=EvaluationEngine()
    )
    scalar_evaluator = PartitionAwareEvaluator(
        space, AccuracySurrogate(), analyzer, engine=None
    )
    pooled = pool_evaluator.evaluate_pool(genotypes)
    for genotype, (objectives, metadata) in zip(genotypes, pooled):
        ref_objectives, ref_metadata = scalar_evaluator.evaluate_genotype(genotype)
        assert np.array_equal(objectives, ref_objectives)
        assert metadata["evaluation"] == ref_metadata["evaluation"]


# ---------------------------------------------------------------------- cloud suffix

def test_cloud_suffix_reversed_cumsum_matches_per_cut_resum():
    """Cloud compute in evaluate equals the per-cut re-walk of the suffix."""
    space = _space("lens-vgg")
    rng = np.random.default_rng(3)
    architecture = space.decode_for_performance(space.sample(rng))
    cloud = OracleLayerPredictor(cloud_server())
    channel = WirelessChannel.create("wifi", uplink_mbps=3.0)
    analyzer = PartitionAnalyzer(_oracle(), channel, cloud_predictor=cloud)

    evaluation = analyzer.evaluate(architecture)
    summaries = architecture.summarize()
    cloud_latencies = [cloud.predict_layer(s).latency_s for s in summaries]
    for metrics in evaluation.options:
        if metrics.option.is_split:
            offloaded = cloud_latencies[metrics.option.split_index + 1 :]
        elif metrics.option == DeploymentOption.all_cloud():
            offloaded = cloud_latencies
        else:
            offloaded = []
        cloud_compute = (
            metrics.latency_s - metrics.edge_latency_s - metrics.comm_latency_s
        )
        assert abs(cloud_compute - sum(offloaded)) <= PARITY
    _assert_evaluations_match(
        scalar_costing_oracle(analyzer, architecture), evaluation
    )
    assert evaluation.all_cloud.latency_s > channel.cost(architecture.input_bytes).latency_s


# ---------------------------------------------------------------------- pool composition

@settings(max_examples=25, deadline=None)
@given(
    space_name=st.sampled_from(SPACE_NAMES),
    seed=st.integers(0, 2**31 - 1),
    pool_size=st.integers(2, 12),
    with_cloud=st.booleans(),
)
def test_costing_is_independent_of_pool_composition(
    space_name, seed, pool_size, with_cloud
):
    """A pool, its shuffle and each pool-of-one give identical records."""
    space = _space(space_name)
    rng = np.random.default_rng(seed)
    architectures = [
        space.decode_for_performance(space.sample(rng)) for _ in range(pool_size)
    ]
    graphs = [space_partition_graph(space, a) for a in architectures]
    channels = [
        WirelessChannel.create("wifi", uplink_mbps=3.0),
        WirelessChannel.create("lte", uplink_mbps=1.1, round_trip_s=0.05),
    ]
    analyzer = PartitionAnalyzer(
        _trained(),
        channels[0],
        cloud_predictor=_trained_cloud() if with_cloud else None,
    )
    pooled = analyzer.evaluate_batch(architectures, channels=channels, graphs=graphs)
    order = rng.permutation(pool_size)
    shuffled = analyzer.evaluate_batch(
        [architectures[i] for i in order],
        channels=channels,
        graphs=[graphs[i] for i in order],
    )
    for position, i in enumerate(order):
        assert shuffled[position] == pooled[i]
    for i, (architecture, graph) in enumerate(zip(architectures, graphs)):
        alone = analyzer.evaluate_batch([architecture], channels=channels, graphs=[graph])
        assert alone[0] == pooled[i]
        for ci, channel in enumerate(channels):
            single = analyzer.with_channel(channel).evaluate(architecture, graph=graph)
            assert single == pooled[i][ci]


# ---------------------------------------------------------------------- engine stats

class TestEngineBatchStats:
    @pytest.fixture()
    def engine(self):
        return EvaluationEngine()

    @pytest.fixture()
    def pool(self):
        space = _space("lens-vgg")
        rng = np.random.default_rng(11)
        a1 = space.decode_for_performance(space.sample(rng))
        a2 = space.decode_for_performance(space.sample(rng))
        return [a1, a2, a1]  # duplicate on purpose

    @pytest.fixture()
    def channels(self):
        return [
            WirelessChannel.create("wifi", uplink_mbps=3.0),
            WirelessChannel.create("lte", uplink_mbps=1.0, round_trip_s=0.05),
        ]

    def test_cold_pool_counts_unique_misses_and_duplicate_hits(
        self, engine, pool, channels
    ):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        results = engine.evaluate_batch(pool, analyzer, channels=channels)
        assert len(results) == 3 and all(len(row) == 2 for row in results)
        # Two unique architectures were predicted once each...
        assert engine.stats.layer_misses == 2
        assert engine.stats.layer_hits == 0
        # ...and costed once per channel; the duplicate is pure cache re-use.
        assert engine.stats.partition_misses == 4
        assert engine.stats.partition_hits == 2
        # The duplicate positions share the cached records.
        assert results[0][0] is results[2][0]
        assert results[0][1] is results[2][1]

    def test_warm_pool_is_all_hits_and_skips_the_layer_cache(
        self, engine, pool, channels
    ):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        engine.evaluate_batch(pool, analyzer, channels=channels)
        before = engine.stats.snapshot()
        again = engine.evaluate_batch(pool, analyzer, channels=channels)
        delta = engine.stats.since(before)
        assert delta == {
            "predictor_hits": 0,
            "predictor_misses": 0,
            "layer_hits": 0,  # fully cached pools never touch the layer cache
            "layer_misses": 0,
            "partition_hits": 6,
            "partition_misses": 0,
        }
        assert again[1][1] is engine.evaluate_batch(pool, analyzer, channels=channels)[1][1]

    def test_batch_results_match_scalar_engine_path(self, engine, pool, channels):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        batched = engine.evaluate_batch(pool, analyzer, channels=channels)
        scalar_engine = EvaluationEngine()
        for i, architecture in enumerate(pool):
            for ci, channel in enumerate(channels):
                scalar = scalar_engine.evaluate_partitions(
                    architecture, analyzer.with_channel(channel)
                )
                _assert_evaluations_match(scalar, batched[i][ci])

    def test_batch_backfills_caches_for_scalar_callers(self, engine, pool, channels):
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        batched = engine.evaluate_batch(pool, analyzer, channels=channels)
        before = engine.stats.snapshot()
        scalar = engine.evaluate_partitions(pool[0], analyzer)
        assert scalar is batched[0][0]
        assert engine.stats.since(before)["partition_hits"] == 1
        assert engine.stats.since(before)["partition_misses"] == 0

    def test_partial_cache_overlap_computes_only_missing_cells(
        self, engine, channels
    ):
        """Ragged warm cells are served from cache, not recomputed."""
        space = _space("lens-vgg")
        rng = np.random.default_rng(21)
        a, b = (
            space.decode_for_performance(space.sample(rng)) for _ in range(2)
        )
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        warm_a0 = engine.evaluate_partitions(a, analyzer)
        warm_b1 = engine.evaluate_partitions(
            b, analyzer.with_channel(channels[1])
        )
        before = engine.stats.snapshot()
        rows = engine.evaluate_batch([a, b], analyzer, channels=channels)
        delta = engine.stats.since(before)
        # The two warm cells come back as the cached records themselves...
        assert rows[0][0] is warm_a0
        assert rows[1][1] is warm_b1
        # ...and only the two genuinely missing cells were computed.
        assert delta["partition_hits"] == 2
        assert delta["partition_misses"] == 2
        for architecture, row in ((a, rows[0]), (b, rows[1])):
            for channel, evaluation in zip(channels, row):
                scalar = analyzer.with_channel(channel).evaluate(architecture)
                _assert_evaluations_match(scalar, evaluation)

    def test_duplicate_channels_are_computed_once(self, engine, pool, channels):
        """A repeated channel column is cache re-use, not recomputation."""
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        rows = engine.evaluate_batch(
            pool, analyzer, channels=[channels[0], channels[1], channels[0]]
        )
        assert all(len(row) == 3 for row in rows)
        for row in rows:
            assert row[0] is row[2]
        # 2 unique archs x 2 unique channels computed; the rest are hits.
        assert engine.stats.partition_misses == 4
        assert engine.stats.partition_hits == 9 - 4

    def test_cloud_predictor_batch_matches_scalar(self, channels):
        """Batched cloud-suffix costing matches the scalar oracle."""
        space = _space("lens-vgg")
        rng = np.random.default_rng(13)
        architectures = [
            space.decode_for_performance(space.sample(rng)) for _ in range(3)
        ]
        analyzer = PartitionAnalyzer(
            _oracle(), channels[0], cloud_predictor=_trained()
        )
        batched = analyzer.evaluate_batch(architectures, channels=channels)
        for i, architecture in enumerate(architectures):
            for ci, channel in enumerate(channels):
                scalar = scalar_costing_oracle(
                    analyzer.with_channel(channel), architecture
                )
                _assert_evaluations_match(scalar, batched[i][ci])

    def test_graph_override_isolated_in_batch_cache(self, engine, channels):
        space = _space("resnet-v1")
        rng = np.random.default_rng(5)
        architecture = space.decode_for_performance(space.sample(rng))
        analyzer = PartitionAnalyzer(_oracle(), channels[0])
        own = engine.evaluate_batch([architecture], analyzer)[0][0]
        from repro.nn.graph import PartitionGraph

        linear = PartitionGraph(num_layers=len(architecture.layers))
        overridden = engine.evaluate_batch(
            [architecture], analyzer, graphs=[linear]
        )[0][0]
        assert own is not overridden
        # The linear override can only widen the cut set.
        assert set(own.partition_point_indices) <= set(
            overridden.partition_point_indices
        )


def test_totals_single_pass_and_engine_layer_cache():
    """total_latency/total_energy derive from one prediction pass."""
    space = _space("lens-vgg")
    rng = np.random.default_rng(1)
    architecture = space.decode_for_performance(space.sample(rng))
    predictor = _oracle()
    predictions = predictor.predict_architecture(architecture)
    latency, energy = predictor.totals(architecture, predictions)
    assert latency == pytest.approx(sum(p.latency_s for p in predictions))
    assert energy == pytest.approx(sum(p.energy_j for p in predictions))
    assert predictor.total_latency(architecture) == pytest.approx(latency)
    assert predictor.total_energy(architecture, predictions) == pytest.approx(energy)

    engine = EvaluationEngine()
    first = engine.architecture_totals(predictor, architecture)
    second = engine.architecture_totals(predictor, architecture)
    assert first == second == (latency, energy)
    # One miss for the initial prediction pass, then pure layer-cache hits.
    assert engine.stats.layer_misses == 1
    assert engine.stats.layer_hits == 1


def test_prediction_error_report_engine_routing_matches_direct():
    """The engine-routed error report equals the direct batched one."""
    from repro.hardware.predictors import prediction_error_report

    space = _space("lens-vgg")
    rng = np.random.default_rng(4)
    pool = [space.decode_for_performance(space.sample(rng)) for _ in range(3)]
    predictor = _trained()
    direct = prediction_error_report(predictor, pool)
    engine = EvaluationEngine()
    routed = prediction_error_report(predictor, pool, engine=engine)
    assert routed == pytest.approx(direct)
    before = engine.stats.snapshot()
    prediction_error_report(predictor, pool, engine=engine)
    delta = engine.stats.since(before)
    # Second engine-routed report is pure layer-cache hits (both predictors).
    assert delta["layer_misses"] == 0
    assert delta["layer_hits"] == 6


# ---------------------------------------------------------------------- MOBO pool path

def _toy_problem():
    grid = 17

    def sample(rng):
        return np.array([rng.integers(0, grid), rng.integers(0, grid)])

    def features(candidate):
        return np.asarray(candidate, dtype=float) / (grid - 1)

    def objectives(candidate):
        x = np.asarray(candidate, dtype=float) / (grid - 1)
        return np.array([x[0], (1 - x[0]) * (1 + x[1])]), {"tag": int(x.sum() * 10)}

    return sample, features, objectives


def test_mobo_batch_objective_fn_is_sequence_identical():
    """Pool-level evaluation changes neither candidates nor bookkeeping."""
    sample, features, objectives = _toy_problem()

    def run(batch):
        calls = {"batched": 0}

        def batch_objective(candidates):
            calls["batched"] += 1
            return [objectives(c) for c in candidates]

        optimizer = MultiObjectiveBayesianOptimizer(
            sample_fn=sample,
            feature_fn=features,
            objective_fn=objectives,
            batch_objective_fn=batch_objective if batch else None,
            num_objectives=2,
            num_initial=6,
            num_iterations=8,
            candidate_pool_size=24,
            seed=42,
        )
        return optimizer.run(), calls["batched"]

    scalar_result, _ = run(batch=False)
    batched_result, batched_calls = run(batch=True)
    # One batched call for the init pool, one per BO iteration.
    assert batched_calls == 1 + 8
    assert [list(map(int, p.candidate)) for p in batched_result.points] == [
        list(map(int, p.candidate)) for p in scalar_result.points
    ]
    assert [p.iteration for p in batched_result.points] == [
        p.iteration for p in scalar_result.points
    ]
    assert [p.phase for p in batched_result.points] == [
        p.phase for p in scalar_result.points
    ]
    np.testing.assert_allclose(
        batched_result.objective_matrix(), scalar_result.objective_matrix()
    )
