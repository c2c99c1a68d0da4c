"""The LENS experimental search space (Fig. 4 of the paper).

The space is derived from VGG-16 and consists of five convolutional blocks,
each followed by an *optional* 2x2 max-pooling layer.  For every block the
search varies

* the number of convolutional layers: 1, 2 or 3,
* the kernel size: 3, 5 or 7,
* the number of filters: 24, 36, 64, 96, 128 or 256.

After the convolutional blocks, at least one of two fully-connected layers
exists, each with a width drawn from {256, 512, 1024, 2048, 4096, 8192}.  All
layers use ReLU except the final softmax classifier, batch normalisation is
applied at every convolutional layer, and every architecture must contain at
least four pooling layers (the paper adds this constraint "to highlight cases
that can benefit from layer distribution").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.architecture import Architecture
from repro.nn.encoding import Gene
from repro.nn.layers import Conv2D, Dense, Flatten, LayerSpec, MaxPool2D
from repro.nn.spaces import PooledBlockSearchSpace
from repro.utils.rng import SeedLike

#: Default choices, exactly as given in the paper's Fig. 4 description.
DEFAULT_LAYERS_PER_BLOCK = (1, 2, 3)
DEFAULT_KERNEL_SIZES = (3, 5, 7)
DEFAULT_FILTER_COUNTS = (24, 36, 64, 96, 128, 256)
DEFAULT_FC_UNITS = (256, 512, 1024, 2048, 4096, 8192)
DEFAULT_NUM_BLOCKS = 5
DEFAULT_MIN_POOL_LAYERS = 4


class LensSearchSpace(PooledBlockSearchSpace):
    """VGG-derived search space used by the LENS experiments.

    Registered as ``"lens-vgg"`` in :data:`repro.api.registry.SEARCH_SPACES`;
    the generic sampling/encoding machinery, the block genes and the pooling
    constraint live in :class:`~repro.nn.spaces.PooledBlockSearchSpace`,
    this class only declares the paper's fully-connected head, its
    constraint and decoding.  Decoded architectures are plain chains (no
    skip edges), so every layer boundary is cut-legal and the partitioner's
    graph-aware enumeration reduces to the paper's linear-chain rule.

    Parameters
    ----------
    num_blocks:
        Number of convolutional blocks (5 in the paper).
    layers_per_block / kernel_sizes / filter_counts / fc_units:
        Admissible values for the per-block and fully-connected genes.
    min_pool_layers:
        Minimum number of pooling layers any valid architecture must contain.
    num_classes:
        Width of the final softmax classifier (CIFAR-10 -> 10).
    accuracy_input_shape:
        Input shape used when decoding models for *training / accuracy*
        estimation (CIFAR-10 32x32 RGB images in the paper).
    performance_input_shape:
        Input shape used when decoding models for *latency / energy*
        estimation (224x224x3, i.e. 147 kB, "to reflect realistic scenarios").
    """

    space_name = "lens-vgg"

    def __init__(
        self,
        num_blocks: int = DEFAULT_NUM_BLOCKS,
        layers_per_block: Sequence[int] = DEFAULT_LAYERS_PER_BLOCK,
        kernel_sizes: Sequence[int] = DEFAULT_KERNEL_SIZES,
        filter_counts: Sequence[int] = DEFAULT_FILTER_COUNTS,
        fc_units: Sequence[int] = DEFAULT_FC_UNITS,
        min_pool_layers: int = DEFAULT_MIN_POOL_LAYERS,
        num_classes: int = 10,
        accuracy_input_shape: Tuple[int, int, int] = (3, 32, 32),
        performance_input_shape: Tuple[int, int, int] = (3, 224, 224),
    ):
        super().__init__(
            num_blocks,
            layers_per_block,
            kernel_sizes,
            filter_counts,
            fc_units,
            min_pool_layers,
            num_classes,
            accuracy_input_shape,
            performance_input_shape,
        )
        self._fc_positions = (
            self.encoding.gene_position("fc1_present"),
            self.encoding.gene_position("fc2_present"),
        )
        self._fc_on = self.encoding.gene("fc1_present").index_of(True)

    # ------------------------------------------------------------------ encoding
    def _head_genes(self) -> List[Gene]:
        return [
            Gene("fc1_present", (False, True)),
            Gene("fc1_units", self.fc_units),
            Gene("fc2_present", (False, True)),
            Gene("fc2_units", self.fc_units),
        ]

    # ------------------------------------------------------------------ validity
    def _satisfies(self, values: List[int]) -> bool:
        """The paper's two constraints on a validated genotype given as a list.

        At least ``min_pool_layers`` pooling layers, and at least one of the
        two fully-connected layers present.
        """
        fc1, fc2 = self._fc_positions
        return super()._satisfies(values) and (
            values[fc1] == self._fc_on or values[fc2] == self._fc_on
        )

    def repair(self, indices: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        """Return a valid genotype obtained by minimally editing ``indices``.

        Missing pooling layers are switched on at uniformly random blocks and
        the first fully-connected layer is enabled if neither is present.
        """
        arr = super().repair(indices, rng)
        fc1, fc2 = self._fc_positions
        if arr[fc1] != self._fc_on and arr[fc2] != self._fc_on:
            arr[fc1] = self._fc_on
        return arr

    # ------------------------------------------------------------------ decoding
    def decode(
        self,
        indices: Sequence[int],
        input_shape: Optional[Tuple[int, int, int]] = None,
        num_classes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Architecture:
        """Decode a genotype into a concrete :class:`Architecture`.

        Parameters
        ----------
        indices:
            Valid genotype (use :meth:`repair` beforehand if necessary).
        input_shape:
            Channels-first input shape; defaults to the accuracy input shape.
        num_classes:
            Classifier width; defaults to the space's ``num_classes``.
        name:
            Architecture name; defaults to a hash-like identifier.
        """
        if not self.is_valid(indices):
            raise ValueError(
                "genotype violates the search-space constraints; call repair() first"
            )
        values = self.encoding.values(indices)
        input_shape = tuple(input_shape or self.accuracy_input_shape)
        num_classes = int(num_classes if num_classes is not None else self.num_classes)
        name = name or self.candidate_name(indices)

        layers: List[LayerSpec] = []
        for block in range(1, self.num_blocks + 1):
            depth = int(values[f"block{block}_layers"])
            kernel = int(values[f"block{block}_kernel"])
            filters = int(values[f"block{block}_filters"])
            for layer_idx in range(1, depth + 1):
                layers.append(
                    Conv2D(
                        name=f"conv{block}_{layer_idx}",
                        out_channels=filters,
                        kernel_size=kernel,
                        stride=1,
                        padding="same",
                        batch_norm=True,
                    )
                )
            if values[f"block{block}_pool"]:
                layers.append(MaxPool2D(name=f"pool{block}", pool_size=2))
        layers.append(Flatten(name="flatten"))
        fc_index = 0
        if values["fc1_present"]:
            fc_index += 1
            layers.append(Dense(name=f"fc{fc_index}", units=int(values["fc1_units"])))
        if values["fc2_present"]:
            fc_index += 1
            layers.append(Dense(name=f"fc{fc_index}", units=int(values["fc2_units"])))
        layers.append(Dense(name="classifier", units=num_classes, activation="softmax"))
        return Architecture(name, input_shape, layers)

    # ------------------------------------------------------------------ misc
    def candidate_name(self, indices: Sequence[int]) -> str:
        """Deterministic short name for a genotype.

        Keeps the historical ``lens-`` prefix (rather than the registry key
        ``lens-vgg``) so names in previously stored outcomes stay stable.
        """
        arr = self.encoding.validate_indices(indices)
        return f"lens-{self.genotype_digest(arr)}"

    def describe(self) -> str:
        """Human-readable description of the space and its constraints."""
        lines = [
            f"LensSearchSpace: {self.num_blocks} conv blocks, "
            f"{self.total_combinations():,} unconstrained genotypes",
            f"  layers per block: {list(self.layers_per_block)}",
            f"  kernel sizes: {list(self.kernel_sizes)}",
            f"  filter counts: {list(self.filter_counts)}",
            f"  fc units: {list(self.fc_units)}",
            f"  constraints: >= {self.min_pool_layers} pooling layers, >= 1 FC layer",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """Serialisable configuration of the space."""
        return {
            "num_blocks": self.num_blocks,
            "layers_per_block": list(self.layers_per_block),
            "kernel_sizes": list(self.kernel_sizes),
            "filter_counts": list(self.filter_counts),
            "fc_units": list(self.fc_units),
            "min_pool_layers": self.min_pool_layers,
            "num_classes": self.num_classes,
            "accuracy_input_shape": list(self.accuracy_input_shape),
            "performance_input_shape": list(self.performance_input_shape),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LensSearchSpace":
        """Reconstruct a search space from :meth:`to_dict` output."""
        return cls(
            num_blocks=data["num_blocks"],
            layers_per_block=data["layers_per_block"],
            kernel_sizes=data["kernel_sizes"],
            filter_counts=data["filter_counts"],
            fc_units=data["fc_units"],
            min_pool_layers=data["min_pool_layers"],
            num_classes=data["num_classes"],
            accuracy_input_shape=tuple(data["accuracy_input_shape"]),
            performance_input_shape=tuple(data["performance_input_shape"]),
        )
