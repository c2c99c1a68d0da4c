"""1-D convolutional sequence search space (``"seq-conv1d"``).

A non-vision workload: multi-channel sensor/audio streams classified with a
stack of 1-D convolutional blocks — the kind of model deployed for keyword
spotting or IMU activity recognition on edge devices.  Each block varies

* the number of :class:`~repro.nn.layers.Conv1D` layers (1 or 2),
* the kernel size (3, 5 or 9 taps),
* the number of filters,
* whether a 4x max-pool follows the block.

Heads mirror the CNN spaces: an optional hidden fully-connected layer plus
the softmax classifier.  At least ``min_pool_layers`` pooling layers are
required so the sequence shrinks enough for edge/cloud splits to exist —
the same role the pooling constraint plays in the ``lens-vgg`` space.

Accuracy is estimated on short training windows
(``accuracy_input_shape=(6, 256)``), while latency/energy analysis uses a
full streaming window (``performance_input_shape=(6, 16000)``, 16k samples
of 6-channel 8-bit input = 96 kB uploaded under All-Cloud).  Decoded
architectures are plain chains, so every boundary is cut-legal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.nn.architecture import Architecture
from repro.nn.encoding import Gene
from repro.nn.layers import Conv1D, Dense, Flatten, LayerSpec, MaxPool1D
from repro.nn.spaces import PooledBlockSearchSpace

#: Default gene choices of the sequence space.
DEFAULT_LAYERS_PER_BLOCK = (1, 2)
DEFAULT_KERNEL_SIZES = (3, 5, 9)
DEFAULT_FILTER_COUNTS = (16, 32, 64, 128)
DEFAULT_FC_UNITS = (64, 128, 256)
DEFAULT_NUM_BLOCKS = 4
DEFAULT_MIN_POOL_LAYERS = 3
DEFAULT_POOL_SIZE = 4


class SeqConv1DSearchSpace(PooledBlockSearchSpace):
    """Sequence-model search space over 1-D convolutional blocks.

    Parameters
    ----------
    num_blocks:
        Number of convolutional blocks.
    layers_per_block / kernel_sizes / filter_counts / fc_units:
        Admissible values for the per-block and head genes.
    min_pool_layers:
        Minimum number of pooling layers any valid genotype must enable.
    pool_size:
        Window (and stride) of each pooling layer.
    num_classes:
        Width of the final softmax classifier (e.g. 12 keywords).
    accuracy_input_shape / performance_input_shape:
        ``(channels, length)`` input shapes for accuracy estimation and for
        latency/energy analysis.
    """

    space_name = "seq-conv1d"

    def __init__(
        self,
        num_blocks: int = DEFAULT_NUM_BLOCKS,
        layers_per_block: Sequence[int] = DEFAULT_LAYERS_PER_BLOCK,
        kernel_sizes: Sequence[int] = DEFAULT_KERNEL_SIZES,
        filter_counts: Sequence[int] = DEFAULT_FILTER_COUNTS,
        fc_units: Sequence[int] = DEFAULT_FC_UNITS,
        min_pool_layers: int = DEFAULT_MIN_POOL_LAYERS,
        pool_size: int = DEFAULT_POOL_SIZE,
        num_classes: int = 12,
        accuracy_input_shape: Tuple[int, int] = (6, 256),
        performance_input_shape: Tuple[int, int] = (6, 16000),
    ):
        self.pool_size = int(pool_size)
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

    # ------------------------------------------------------------------ encoding
    def _head_genes(self) -> List[Gene]:
        return [Gene("fc_present", (False, True)), Gene("fc_units", self.fc_units)]

    # ------------------------------------------------------------------ decoding
    def decode(
        self,
        indices: Sequence[int],
        input_shape: Optional[Tuple[int, ...]] = None,
        num_classes: Optional[int] = None,
        name: Optional[str] = None,
    ) -> Architecture:
        """Decode a genotype into a concrete 1-D :class:`Architecture`."""
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
                    Conv1D(
                        name=f"conv{block}_{layer_idx}",
                        out_channels=filters,
                        kernel_size=kernel,
                        padding="same",
                        batch_norm=True,
                    )
                )
            if values[f"block{block}_pool"]:
                layers.append(
                    MaxPool1D(name=f"pool{block}", pool_size=self.pool_size)
                )
        layers.append(Flatten(name="flatten"))
        if values["fc_present"]:
            layers.append(Dense(name="fc1", units=int(values["fc_units"])))
        layers.append(Dense(name="classifier", units=num_classes, activation="softmax"))
        return Architecture(name, input_shape, layers)

    # ------------------------------------------------------------------ misc
    def describe(self) -> str:
        """Human-readable description of the space and its constraints."""
        lines = [
            f"SeqConv1DSearchSpace: {self.num_blocks} conv1d blocks, "
            f"{self.total_combinations():,} unconstrained genotypes",
            f"  layers per block: {list(self.layers_per_block)}",
            f"  kernel sizes: {list(self.kernel_sizes)}",
            f"  filter counts: {list(self.filter_counts)}",
            f"  fc units: {list(self.fc_units)}",
            f"  constraints: >= {self.min_pool_layers} pooling layers",
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
            "pool_size": self.pool_size,
            "num_classes": self.num_classes,
            "accuracy_input_shape": list(self.accuracy_input_shape),
            "performance_input_shape": list(self.performance_input_shape),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SeqConv1DSearchSpace":
        """Reconstruct a search space from :meth:`to_dict` output."""
        return cls(
            num_blocks=data["num_blocks"],
            layers_per_block=data["layers_per_block"],
            kernel_sizes=data["kernel_sizes"],
            filter_counts=data["filter_counts"],
            fc_units=data["fc_units"],
            min_pool_layers=data["min_pool_layers"],
            pool_size=data["pool_size"],
            num_classes=data["num_classes"],
            accuracy_input_shape=tuple(data["accuracy_input_shape"]),
            performance_input_shape=tuple(data["performance_input_shape"]),
        )
