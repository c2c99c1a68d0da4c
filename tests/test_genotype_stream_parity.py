"""Stream parity of the genotype pipeline against a scalar oracle.

The vectorised sampling, mutation, validity and repair paths of the search
spaces must reproduce the original scalar algorithms draw for draw: the same
genotypes *and* the same generator state afterwards, so every seeded search
selects the same candidates.  The scalar algorithms live here, in the tests,
as the reference:

* sampling draws one ``integers(0, cardinality)`` per gene;
* mutation resamples a gene with ``choice`` over its other indices;
* validity and repair work through the ``{gene name: value}`` dict.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import SEARCH_SPACES
from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.search_space import LensSearchSpace
from repro.nn.seq_space import SeqConv1DSearchSpace

SPACES = ("lens-vgg", "resnet-v1", "seq-conv1d")
CONSTRAINED = ("lens-vgg", "seq-conv1d")
NUM_SEEDS = 200


# ---------------------------------------------------------------------- scalar oracle

def ref_sample_indices(scheme: EncodingScheme, rng) -> np.ndarray:
    return np.array([rng.integers(0, gene.cardinality) for gene in scheme.genes], dtype=int)


def ref_resample_gene(current: int, gene: Gene, rng) -> int:
    options = [i for i in range(gene.cardinality) if i != current]
    return int(rng.choice(options))


def ref_mutate(scheme: EncodingScheme, indices, rng, mutation_probability=0.15):
    arr = np.array(indices, dtype=int)
    mutable = [i for i, gene in enumerate(scheme.genes) if gene.cardinality > 1]
    if not mutable:
        return arr
    changed = False
    for i in mutable:
        if rng.random() < mutation_probability:
            arr[i] = ref_resample_gene(arr[i], scheme.genes[i], rng)
            changed = True
    if not changed:
        i = int(rng.choice(mutable))
        arr[i] = ref_resample_gene(arr[i], scheme.genes[i], rng)
    return arr


def _pool_positions(space):
    return [
        space.encoding.gene_position(f"block{block}_pool")
        for block in range(1, space.num_blocks + 1)
    ]


def ref_is_valid(space, indices) -> bool:
    if space.space_name == "resnet-v1":
        return True
    values = space.encoding.values(indices)
    pools = sum(
        1 for block in range(1, space.num_blocks + 1) if values[f"block{block}_pool"]
    )
    if pools < space.min_pool_layers:
        return False
    if space.space_name == "lens-vgg":
        return bool(values["fc1_present"] or values["fc2_present"])
    return True


def ref_repair(space, indices, rng) -> np.ndarray:
    if space.space_name == "resnet-v1":
        return np.asarray(indices, dtype=int)
    arr = space.encoding.validate_indices(indices).copy()
    values = space.encoding.values(arr)
    positions = _pool_positions(space)
    on_index = space.encoding.gene("block1_pool").index_of(True)
    current = [pos for pos in positions if arr[pos] == on_index]
    missing = space.min_pool_layers - len(current)
    if missing > 0:
        off_positions = [pos for pos in positions if arr[pos] != on_index]
        chosen = rng.choice(len(off_positions), size=missing, replace=False)
        for choice in np.atleast_1d(chosen):
            arr[off_positions[int(choice)]] = on_index
    if space.space_name == "lens-vgg" and not (
        values["fc1_present"] or values["fc2_present"]
    ):
        fc1 = space.encoding.gene("fc1_present")
        arr[space.encoding.gene_position("fc1_present")] = fc1.index_of(True)
    return arr


def ref_to_unit(scheme: EncodingScheme, indices) -> np.ndarray:
    arr = scheme.validate_indices(indices).astype(float)
    cards = np.array([gene.cardinality for gene in scheme.genes], dtype=float)
    return np.where(cards > 1, arr / np.maximum(cards - 1.0, 1.0), 0.5)


def ref_sample(space, rng) -> np.ndarray:
    indices = ref_sample_indices(space.encoding, rng)
    if not ref_is_valid(space, indices):
        indices = ref_repair(space, indices, rng)
    return indices


def ref_sample_batch(space, count, rng) -> np.ndarray:
    return np.stack([ref_sample(space, rng) for _ in range(count)])


def ref_neighbours(space, indices, count, rng) -> np.ndarray:
    result = []
    for _ in range(count):
        mutated = ref_mutate(space.encoding, indices, rng)
        if not ref_is_valid(space, mutated):
            mutated = ref_repair(space, mutated, rng)
        result.append(mutated)
    return np.stack(result)


# ---------------------------------------------------------------------- helpers

@pytest.fixture(scope="module", params=SPACES)
def space(request):
    return SEARCH_SPACES.create(request.param)


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_stream(actual, expected, rng, ref_rng):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def any_genotype(space, seed):
    """A uniformly random, possibly invalid, in-range genotype."""
    return ref_sample_indices(space.encoding, np.random.default_rng(seed + 10**6))


# ---------------------------------------------------------------------- stream parity

class TestStreamParity:
    def test_sample_matches_oracle_over_seeds(self, space):
        for seed in range(NUM_SEEDS):
            rng, ref_rng = _pair(seed)
            for _ in range(3):
                assert_same_stream(
                    space.sample(rng), ref_sample(space, ref_rng), rng, ref_rng
                )

    def test_sample_batch_matches_oracle_over_seeds(self, space):
        for seed in range(NUM_SEEDS):
            rng, ref_rng = _pair(seed)
            count = 1 + seed % 9
            assert_same_stream(
                space.sample_batch(count, rng),
                ref_sample_batch(space, count, ref_rng),
                rng,
                ref_rng,
            )

    def test_neighbours_match_oracle_over_seeds(self, space):
        for seed in range(NUM_SEEDS):
            rng, ref_rng = _pair(seed)
            origin = ref_sample(space, np.random.default_rng(seed + 10**6))
            count = 1 + seed % 7
            assert_same_stream(
                space.neighbours(origin, count, rng),
                ref_neighbours(space, origin, count, ref_rng),
                rng,
                ref_rng,
            )

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
    def test_property_every_operation_matches_oracle(self, space, seed, count):
        rng, ref_rng = _pair(seed)
        assert_same_stream(space.sample(rng), ref_sample(space, ref_rng), rng, ref_rng)
        assert_same_stream(
            space.sample_batch(count, rng),
            ref_sample_batch(space, count, ref_rng),
            rng,
            ref_rng,
        )
        origin = any_genotype(space, seed)
        assert_same_stream(
            space.neighbours(origin, count, rng),
            ref_neighbours(space, origin, count, ref_rng),
            rng,
            ref_rng,
        )

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_property_validity_and_repair_match_oracle(self, space, seed):
        genotype = any_genotype(space, seed)
        assert space.is_valid(genotype) == ref_is_valid(space, genotype)
        rng, ref_rng = _pair(seed)
        assert_same_stream(
            space.repair(genotype, rng), ref_repair(space, genotype, ref_rng), rng, ref_rng
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cards=st.lists(st.integers(1, 9), min_size=1, max_size=8),
        probability=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    )
    def test_property_mutate_matches_oracle_on_any_scheme(self, seed, cards, probability):
        """Covers single-choice and two-choice genes and the forced-mutation path."""
        scheme = EncodingScheme(
            [Gene(f"g{i}", tuple(range(card))) for i, card in enumerate(cards)]
        )
        rng, ref_rng = _pair(seed)
        origin = ref_sample_indices(scheme, np.random.default_rng(seed))
        assert_same_stream(
            scheme.sample_indices(rng), ref_sample_indices(scheme, ref_rng), rng, ref_rng
        )
        assert_same_stream(
            scheme.mutate(origin, rng, probability),
            ref_mutate(scheme, origin, ref_rng, probability),
            rng,
            ref_rng,
        )


# ---------------------------------------------------------------------- retained checks

class TestRetainedChecks:
    @pytest.mark.parametrize("name", CONSTRAINED)
    @pytest.mark.parametrize("bad", [-1, 99])
    def test_out_of_range_raises_from_is_valid_and_repair(self, name, bad):
        space = SEARCH_SPACES.create(name)
        genotype = space.sample(0)
        genotype[0] = bad
        with pytest.raises(ValueError, match="out of range"):
            space.is_valid(genotype)
        with pytest.raises(ValueError, match="out of range"):
            space.repair(genotype, 0)

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_out_of_range_raises_from_to_unit(self, space, bad):
        genotype = space.sample(0)
        genotype[-1] = bad
        with pytest.raises(ValueError, match="out of range"):
            space.encoding.to_unit(genotype)
        matrix = np.stack([space.sample(1), genotype])
        with pytest.raises(ValueError, match="out of range"):
            space.encoding.to_unit(matrix)
        with pytest.raises(ValueError, match="out of range"):
            space.to_feature_matrix(matrix)

    def test_matrix_to_unit_is_bitwise_row_by_row(self, space):
        matrix = space.sample_batch(64, 5)
        rows = np.vstack([space.encoding.to_unit(row) for row in matrix])
        reference = np.vstack([ref_to_unit(space.encoding, row) for row in matrix])
        projected = space.encoding.to_unit(matrix)
        assert projected.dtype == rows.dtype == reference.dtype
        assert rows.tobytes() == reference.tobytes()
        assert projected.tobytes() == rows.tobytes()
        assert space.to_feature_matrix(list(matrix)).tobytes() == rows.tobytes()

    def test_to_unit_rejects_wrong_width(self, space):
        with pytest.raises(ValueError):
            space.encoding.to_unit(np.zeros((2, space.num_genes + 1), dtype=int))

    def test_cardinalities_copy_cannot_corrupt_the_cache(self, space):
        scheme = space.encoding
        cards = scheme.cardinalities
        cards[:] = 1
        assert np.array_equal(
            scheme.cardinalities, [gene.cardinality for gene in scheme.genes]
        )
        rng, ref_rng = _pair(3)
        assert_same_stream(
            space.sample(rng), ref_sample(space, ref_rng), rng, ref_rng
        )

    def test_repair_contract_is_still_enforced(self):
        class BrokenRepair(LensSearchSpace):
            def repair(self, indices, rng=None):
                return np.asarray(indices, dtype=int)

        space = BrokenRepair()
        with pytest.raises(ValueError, match="repair returned an invalid genotype"):
            for seed in range(20):
                space.sample(seed)

    def test_custom_to_features_keeps_per_row_pool_features(self):
        class Doubled(SeqConv1DSearchSpace):
            def to_features(self, indices):
                return 2.0 * super().to_features(indices)

        space = Doubled()
        matrix = space.sample_batch(5, 0)
        expected = np.vstack([space.to_features(row) for row in matrix])
        assert np.array_equal(space.to_feature_matrix(matrix), expected)
