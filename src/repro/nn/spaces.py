"""The pluggable search-space protocol and its encoding-backed base class.

Every workload the library can search over is a *search space*: an object
that can sample genotypes, project them into the optimizer's unit cube,
mutate them into neighbours, decode them into concrete
:class:`~repro.nn.architecture.Architecture` objects, and describe the
partition legality of what it decodes.  :class:`SearchSpace` pins that
protocol down; :class:`EncodedSearchSpace` implements the generic half of it
on top of an :class:`~repro.nn.encoding.EncodingScheme`, so a new workload
only has to declare its genes, its validity rule and its ``decode``.

Spaces are addressable by name through
:data:`repro.api.registry.SEARCH_SPACES` (``search_space="resnet-v1"`` on a
:class:`~repro.api.envelopes.SearchRequest`); the three built-ins are

* ``"lens-vgg"`` — the paper's VGG-derived CNN space
  (:class:`~repro.nn.search_space.LensSearchSpace`, Fig. 4);
* ``"resnet-v1"`` — residual stages whose skip edges constrain partitioning
  (:class:`~repro.nn.resnet_space.ResNetSearchSpace`);
* ``"seq-conv1d"`` — a 1-D convolutional sequence workload
  (:class:`~repro.nn.seq_space.SeqConv1DSearchSpace`).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.architecture import Architecture
from repro.nn.encoding import EncodingScheme, Gene
from repro.nn.graph import PartitionGraph
from repro.utils.rng import SeedLike, ensure_rng

#: Name of the search space every request uses unless it says otherwise —
#: the paper's own VGG-derived space.  Schema-v1 request envelopes (which
#: predate the ``search_space`` field) upgrade to this value.
DEFAULT_SEARCH_SPACE = "lens-vgg"


class SearchSpace(abc.ABC):
    """Protocol every searchable workload implements.

    A space owns four responsibilities:

    * **sample** — draw valid genotypes (:meth:`sample`, :meth:`sample_batch`)
      and propose valid neighbours (:meth:`neighbours`);
    * **encode** — project genotypes into the optimizer's unit cube
      (:meth:`to_features`);
    * **decode** — turn genotypes into concrete architectures, once with the
      accuracy input shape and once with the performance input shape
      (:meth:`decode_for_accuracy` / :meth:`decode_for_performance`);
    * **partition legality** — describe which layer boundaries of a decoded
      architecture are cut-legal (:meth:`partition_graph`), so the
      partitioner never proposes a split that the workload's dataflow graph
      cannot express as a single-tensor transfer.

    ``space_name`` is the registry key the space answers to; decoded
    architectures and candidate names carry it for provenance.
    """

    #: Registry key and display name of the space.
    space_name: str = "custom"

    # ------------------------------------------------------------------ sampling
    @abc.abstractmethod
    def sample(self, rng: SeedLike = None) -> np.ndarray:
        """Sample one uniformly random *valid* genotype."""

    @abc.abstractmethod
    def sample_batch(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Sample ``count`` valid genotypes as a ``(count, num_genes)`` array."""

    @abc.abstractmethod
    def neighbours(
        self, indices: Sequence[int], count: int, rng: SeedLike = None
    ) -> np.ndarray:
        """Propose ``count`` valid neighbours of a genotype (mutate + repair)."""

    # ------------------------------------------------------------------ encoding
    @property
    @abc.abstractmethod
    def num_genes(self) -> int:
        """Dimensionality of the genotype."""

    @abc.abstractmethod
    def to_features(self, indices: Sequence[int]) -> np.ndarray:
        """Unit-cube feature vector for the Gaussian-process surrogates."""

    def to_feature_matrix(self, genotypes: Sequence[Sequence[int]]) -> np.ndarray:
        """``(n, d)`` matrix whose rows are :meth:`to_features` of each genotype."""
        return np.vstack([self.to_features(genotype) for genotype in genotypes])

    # ------------------------------------------------------------------ validity
    def is_valid(self, indices: Sequence[int]) -> bool:
        """Whether the genotype satisfies the space's constraints."""
        return True

    def repair(self, indices: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        """Return a valid genotype obtained by minimally editing ``indices``.

        The default returns the input unchanged, which is only correct for
        spaces whose :meth:`is_valid` never rejects (every genotype valid by
        construction).  A space that overrides :meth:`is_valid` MUST also
        override :meth:`repair`; the sampling helpers check the repaired
        genotype and raise if the contract is broken, rather than feeding
        invalid genotypes into the search.
        """
        return np.asarray(indices, dtype=int)

    # ------------------------------------------------------------------ decoding
    @abc.abstractmethod
    def decode_for_accuracy(
        self, indices: Sequence[int], name: Optional[str] = None
    ) -> Architecture:
        """Decode with the input shape used for accuracy estimation."""

    @abc.abstractmethod
    def decode_for_performance(
        self, indices: Sequence[int], name: Optional[str] = None
    ) -> Architecture:
        """Decode with the input shape used for latency/energy estimation."""

    # ------------------------------------------------------------------ partitioning
    def partition_graph(self, architecture: Architecture) -> PartitionGraph:
        """Cut-legality graph of a decoded architecture.

        The default trusts the skip edges the space baked into the decoded
        architecture; spaces with out-of-band constraints may override.
        """
        return architecture.partition_graph()

    # ------------------------------------------------------------------ misc
    @staticmethod
    def genotype_digest(indices: Sequence[int]) -> str:
        """Deterministic 8-hex-digit digest of a genotype.

        Shared by every space's :meth:`candidate_name`, so candidate naming
        can only change for all spaces at once.
        """
        digest = 0
        for value in np.asarray(indices, dtype=int):
            digest = (digest * 31 + int(value) + 1) % (16 ** 8)
        return f"{digest:08x}"

    def candidate_name(self, indices: Sequence[int]) -> str:
        """Deterministic short name for a genotype."""
        return f"{self.space_name}-{self.genotype_digest(indices)}"

    def describe(self) -> str:
        """Human-readable description of the space."""
        return f"{type(self).__name__} ({self.space_name}): {self.num_genes} genes"


class EncodedSearchSpace(SearchSpace):
    """Generic :class:`SearchSpace` machinery over an :class:`EncodingScheme`.

    Subclasses must set four instance attributes in ``__init__`` —
    ``self.encoding`` (the gene layout, one
    :class:`~repro.nn.encoding.Gene` per decision variable) plus
    ``self.accuracy_input_shape`` and ``self.performance_input_shape``
    (the channels-first input shapes :meth:`decode_for_accuracy` /
    :meth:`decode_for_performance` decode with) — and implement
    :meth:`decode`, plus — when the unconstrained genotype space contains
    invalid points — :meth:`~SearchSpace.is_valid` and
    :meth:`~SearchSpace.repair`.  Sampling, batch sampling, mutation-based
    neighbourhoods and the unit-cube projection all come for free and behave
    identically across every space, which keeps strategies space-agnostic.
    """

    #: Required instance attributes (set them in ``__init__``).
    encoding: EncodingScheme
    accuracy_input_shape: Tuple[int, ...]
    performance_input_shape: Tuple[int, ...]

    # ------------------------------------------------------------------ encoding
    @property
    def num_genes(self) -> int:
        """Dimensionality of the genotype."""
        return self.encoding.num_genes

    def total_combinations(self) -> int:
        """Size of the unconstrained genotype space."""
        return self.encoding.total_combinations()

    def to_features(self, indices: Sequence[int]) -> np.ndarray:
        """Unit-cube feature vector for the Gaussian-process surrogates."""
        return self.encoding.to_unit(indices)

    def to_feature_matrix(self, genotypes: Sequence[Sequence[int]]) -> np.ndarray:
        """All genotypes' unit-cube features from one matrix projection."""
        if type(self).to_features is not EncodedSearchSpace.to_features:
            return super().to_feature_matrix(genotypes)  # custom features: per row
        return self.encoding.to_unit(np.asarray(genotypes, dtype=int))

    # ------------------------------------------------------------------ sampling
    def _repair_checked(self, indices: np.ndarray, rng) -> np.ndarray:
        """Repair an invalid genotype, enforcing the repair contract."""
        repaired = self.repair(indices, rng)
        if not self.is_valid(repaired):
            raise ValueError(
                f"{type(self).__name__}.repair returned an invalid genotype; "
                "spaces overriding is_valid must implement a matching repair"
            )
        return repaired

    def sample(self, rng: SeedLike = None) -> np.ndarray:
        """Sample a uniformly random *valid* genotype."""
        rng = ensure_rng(rng)
        indices = self.encoding.sample_indices(rng)
        if not self.is_valid(indices):
            indices = self._repair_checked(indices, rng)
        return indices

    def sample_batch(self, count: int, rng: SeedLike = None) -> np.ndarray:
        """Sample ``count`` valid genotypes as a ``(count, num_genes)`` array."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        rng = ensure_rng(rng)
        return np.stack([self.sample(rng) for _ in range(count)])

    def neighbours(
        self, indices: Sequence[int], count: int, rng: SeedLike = None
    ) -> np.ndarray:
        """Sample ``count`` valid neighbours of a genotype (mutation + repair)."""
        rng = ensure_rng(rng)
        result = []
        for _ in range(count):
            mutated = self.encoding.mutate(indices, rng)
            if not self.is_valid(mutated):
                mutated = self._repair_checked(mutated, rng)
            result.append(mutated)
        return np.stack(result)

    # ------------------------------------------------------------------ decoding
    @abc.abstractmethod
    def decode(
        self,
        indices: Sequence[int],
        input_shape: Optional[Tuple[int, ...]] = None,
        num_classes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Architecture:
        """Decode a genotype into a concrete :class:`Architecture`."""

    def decode_for_accuracy(
        self, indices: Sequence[int], name: Optional[str] = None
    ) -> Architecture:
        """Decode with the accuracy-estimation input shape."""
        return self.decode(
            indices, input_shape=self.accuracy_input_shape, name=name
        )

    def decode_for_performance(
        self, indices: Sequence[int], name: Optional[str] = None
    ) -> Architecture:
        """Decode with the performance-analysis input shape."""
        return self.decode(
            indices, input_shape=self.performance_input_shape, name=name
        )

    # ------------------------------------------------------------------ misc
    def candidate_name(self, indices: Sequence[int]) -> str:
        """Deterministic short name for a genotype."""
        arr = self.encoding.validate_indices(indices)
        return super().candidate_name(arr)


class PooledBlockSearchSpace(EncodedSearchSpace):
    """Encoded space of convolutional blocks, each with an optional pool.

    Every block has four genes — ``block{i}_layers``, ``block{i}_kernel``,
    ``block{i}_filters`` and ``block{i}_pool`` (``False``/``True``) — and
    the head genes of :meth:`_head_genes` follow.  A valid genotype switches
    on at least ``min_pool_layers`` of the pools.  Validity and repair work
    on the pool genes' positions, looked up once here, not through a
    ``{name: value}`` dict per call.  Subclasses add their own head
    constraints on top (:meth:`_satisfies`, :meth:`repair`) and decode.
    """

    def __init__(
        self,
        num_blocks: int,
        layers_per_block: Sequence[int],
        kernel_sizes: Sequence[int],
        filter_counts: Sequence[int],
        fc_units: Sequence[int],
        min_pool_layers: int,
        num_classes: int,
        accuracy_input_shape: Tuple[int, ...],
        performance_input_shape: Tuple[int, ...],
    ):
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        if min_pool_layers > num_blocks:
            raise ValueError(
                f"min_pool_layers ({min_pool_layers}) cannot exceed num_blocks ({num_blocks})"
            )
        self.num_blocks = int(num_blocks)
        self.layers_per_block = tuple(int(v) for v in layers_per_block)
        self.kernel_sizes = tuple(int(v) for v in kernel_sizes)
        self.filter_counts = tuple(int(v) for v in filter_counts)
        self.fc_units = tuple(int(v) for v in fc_units)
        self.min_pool_layers = int(min_pool_layers)
        self.num_classes = int(num_classes)
        self.accuracy_input_shape = tuple(accuracy_input_shape)
        self.performance_input_shape = tuple(performance_input_shape)
        genes: List[Gene] = []
        for block in range(1, self.num_blocks + 1):
            genes.append(Gene(f"block{block}_layers", self.layers_per_block))
            genes.append(Gene(f"block{block}_kernel", self.kernel_sizes))
            genes.append(Gene(f"block{block}_filters", self.filter_counts))
            genes.append(Gene(f"block{block}_pool", (False, True)))
        self.encoding = EncodingScheme(genes + self._head_genes())
        self._pool_positions = [
            self.encoding.gene_position(f"block{block}_pool")
            for block in range(1, self.num_blocks + 1)
        ]
        self._pool_on = self.encoding.gene("block1_pool").index_of(True)

    @abc.abstractmethod
    def _head_genes(self) -> List[Gene]:
        """Genes after the blocks (the fully-connected head)."""

    def pool_count(self, indices: Sequence[int]) -> int:
        """Number of pooling layers encoded by the given genotype."""
        return self._pools_on(self.encoding.validate_indices(indices).tolist())

    def _pools_on(self, values: List[int]) -> int:
        return [values[pos] for pos in self._pool_positions].count(self._pool_on)

    def is_valid(self, indices: Sequence[int]) -> bool:
        """Whether the genotype satisfies the space's constraints."""
        return self._satisfies(self.encoding.validate_indices(indices).tolist())

    def _satisfies(self, values: List[int]) -> bool:
        """Constraint check on a validated genotype given as a list: enough pools."""
        return self._pools_on(values) >= self.min_pool_layers

    def repair(self, indices: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        """Switch on pooling at uniformly random blocks until the constraint holds."""
        rng = ensure_rng(rng)
        arr = self.encoding.validate_indices(indices).copy()
        values = arr.tolist()
        off = [pos for pos in self._pool_positions if values[pos] != self._pool_on]
        missing = self.min_pool_layers - (len(self._pool_positions) - len(off))
        if missing > 0:
            chosen = rng.choice(len(off), size=missing, replace=False)
            for choice in chosen.tolist():
                arr[off[choice]] = self._pool_on
        return arr
