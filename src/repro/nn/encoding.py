"""Genotype encoding for architecture search spaces.

A candidate architecture is represented as an integer vector (one entry per
*gene*), where each gene indexes into a finite, ordered list of admissible
values.  The encoding serves three consumers:

* the search space, which decodes index vectors into concrete
  :class:`~repro.nn.architecture.Architecture` objects;
* the Bayesian optimizer, which works on the unit-cube projection of the
  index vector (ordinal genes map naturally onto a continuous kernel);
* serialization, where a candidate is stored as its integer vector.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class Gene:
    """One discrete decision variable of the search space.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"block3_filters"``.
    choices:
        Ordered tuple of admissible values.  Ordering matters: the Bayesian
        optimizer treats genes as ordinal, so choices should be sorted from
        "smallest" to "largest" architectural effect where that is meaningful
        (e.g. filter counts ascending).
    """

    name: str
    choices: Tuple

    def __post_init__(self) -> None:
        if len(self.choices) == 0:
            raise ValueError(f"gene {self.name!r} must have at least one choice")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"gene {self.name!r} has duplicate choices: {self.choices}")

    @property
    def cardinality(self) -> int:
        """Number of admissible values."""
        return len(self.choices)

    def value(self, index: int) -> object:
        """Value at the given index (raises ``IndexError`` when out of range)."""
        if not 0 <= index < self.cardinality:
            raise IndexError(
                f"gene {self.name!r}: index {index} out of range [0, {self.cardinality})"
            )
        return self.choices[index]

    def index_of(self, value: object) -> int:
        """Index of ``value`` within the gene's choices."""
        try:
            return self.choices.index(value)
        except ValueError as exc:
            raise ValueError(
                f"gene {self.name!r}: {value!r} is not one of {self.choices}"
            ) from exc


class EncodingScheme:
    """A fixed, ordered collection of genes defining the genotype layout."""

    def __init__(self, genes: Sequence[Gene]):
        if not genes:
            raise ValueError("an encoding scheme requires at least one gene")
        names = [gene.name for gene in genes]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate gene names: {duplicates}")
        self.genes: Tuple[Gene, ...] = tuple(genes)
        self._index_by_name = {gene.name: i for i, gene in enumerate(self.genes)}
        # Derived once: sampling, validation, projection and mutation run per
        # candidate and would otherwise rebuild these from the genes per call.
        self._cards = np.array([gene.cardinality for gene in self.genes], dtype=int)
        self._unit_divisor = np.maximum(self._cards - 1.0, 1.0)
        self._card_list = self._cards.tolist()
        self._mutable = [i for i, card in enumerate(self._card_list) if card > 1]

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return len(self.genes)

    @property
    def num_genes(self) -> int:
        """Number of genes (length of an index vector)."""
        return len(self.genes)

    @property
    def cardinalities(self) -> np.ndarray:
        """Per-gene number of choices as an integer array (a fresh copy)."""
        return self._cards.copy()

    def total_combinations(self) -> int:
        """Size of the unconstrained Cartesian product of all genes."""
        total = 1
        for gene in self.genes:
            total *= gene.cardinality
        return total

    def gene(self, name: str) -> Gene:
        """Look up a gene by name."""
        try:
            return self.genes[self._index_by_name[name]]
        except KeyError as exc:
            raise KeyError(f"no gene named {name!r}") from exc

    def gene_position(self, name: str) -> int:
        """Position of the named gene within the index vector."""
        try:
            return self._index_by_name[name]
        except KeyError as exc:
            raise KeyError(f"no gene named {name!r}") from exc

    # ------------------------------------------------------------------ vectors
    def validate_indices(self, indices: Sequence[int]) -> np.ndarray:
        """Check bounds and return the indices as an integer array."""
        arr = np.asarray(indices, dtype=int)
        if arr.shape != (self.num_genes,):
            raise ValueError(
                f"expected an index vector of length {self.num_genes}, got shape {arr.shape}"
            )
        values = arr.tolist()
        if min(values) < 0 or not all(map(operator.lt, values, self._card_list)):
            self._raise_out_of_range(arr)
        return arr

    def _raise_out_of_range(self, arr: np.ndarray) -> None:
        """Raise ``ValueError`` naming every out-of-range gene of ``arr``'s rows."""
        bad = [
            f"{gene.name}={idx} (cardinality {gene.cardinality})"
            for row in arr.reshape(-1, self.num_genes).tolist()
            for gene, idx in zip(self.genes, row)
            if idx < 0 or idx >= gene.cardinality
        ]
        raise ValueError(f"gene indices out of range: {', '.join(bad)}")

    def sample_indices(self, rng: SeedLike = None) -> np.ndarray:
        """Sample a uniformly random (unconstrained) index vector.

        One vector draw: it yields the same values and leaves the generator
        in the same state as one scalar ``integers`` draw per gene.
        """
        return ensure_rng(rng).integers(0, self._cards)

    def values(self, indices: Sequence[int]) -> Dict[str, object]:
        """Map an index vector to a ``{gene name: value}`` dictionary."""
        arr = self.validate_indices(indices)
        return {
            gene.name: gene.choices[idx] for gene, idx in zip(self.genes, arr.tolist())
        }

    def indices_from_values(self, values: Dict[str, object]) -> np.ndarray:
        """Inverse of :meth:`values`; all genes must be present."""
        missing = [gene.name for gene in self.genes if gene.name not in values]
        if missing:
            raise ValueError(f"missing values for genes: {missing}")
        return np.array(
            [gene.index_of(values[gene.name]) for gene in self.genes], dtype=int
        )

    # ------------------------------------------------------------------ continuous view
    def to_unit(self, indices: Sequence[int]) -> np.ndarray:
        """Project an index vector to the unit cube ``[0, 1]^d``.

        An ``(n, num_genes)`` matrix is projected row by row in one call,
        bitwise equal to projecting each row on its own.  A gene with a
        single choice maps to 0.5 so it carries no information for the
        Gaussian-process kernel.
        """
        arr = np.asarray(indices, dtype=int)
        if arr.ndim not in (1, 2) or arr.shape[-1] != self.num_genes:
            raise ValueError(
                f"expected index vectors of length {self.num_genes}, got shape {arr.shape}"
            )
        if arr.size and (arr.min() < 0 or (arr >= self._cards).any()):
            self._raise_out_of_range(arr)
        return np.where(self._cards > 1, arr / self._unit_divisor, 0.5)

    def from_unit(self, unit: Sequence[float]) -> np.ndarray:
        """Snap a unit-cube point back onto the nearest valid index vector."""
        arr = np.clip(np.asarray(unit, dtype=float), 0.0, 1.0)
        if arr.shape != (self.num_genes,):
            raise ValueError(
                f"expected a unit vector of length {self.num_genes}, got shape {arr.shape}"
            )
        indices = np.rint(arr * np.maximum(self._cards - 1.0, 0.0)).astype(int)
        return self.validate_indices(indices)

    # ------------------------------------------------------------------ neighbourhood
    def mutate(
        self,
        indices: Sequence[int],
        rng: SeedLike = None,
        mutation_probability: float = 0.15,
    ) -> np.ndarray:
        """Return a neighbouring index vector.

        Each gene is independently resampled with ``mutation_probability``; at
        least one gene is always changed so the result differs from the input
        whenever any gene has more than one choice.  A resampled gene draws
        uniformly from its other choices: ``j = integers(0, card - 1)``
        shifted past the current index, which consumes the generator exactly
        like ``choice`` over the list of other indices.
        """
        rng = ensure_rng(rng)
        values = self.validate_indices(indices).tolist()
        if not self._mutable:
            return np.array(values, dtype=int)
        cards = self._card_list
        changed = False
        for i in self._mutable:
            if rng.random() < mutation_probability:
                j = int(rng.integers(0, cards[i] - 1))
                values[i] = j + (j >= values[i])
                changed = True
        if not changed:
            i = int(rng.choice(self._mutable))
            j = int(rng.integers(0, cards[i] - 1))
            values[i] = j + (j >= values[i])
        return np.array(values, dtype=int)

    def hamming_distance(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Number of genes on which two index vectors differ."""
        va = self.validate_indices(a)
        vb = self.validate_indices(b)
        return int(np.sum(va != vb))

    def describe(self) -> str:
        """Human-readable listing of genes and their choices."""
        lines: List[str] = [f"EncodingScheme with {self.num_genes} genes:"]
        for gene in self.genes:
            lines.append(f"  {gene.name}: {list(gene.choices)}")
        return "\n".join(lines)
