"""Feature extraction for the per-layer performance regression models.

Following the prediction-model construction of Neurosurgeon (Kang et al.,
ASPLOS'17), which the paper adopts ("Each prediction model would have its
input features constructed as in [3]"), each layer family has its own small
feature vector built from the layer's configuration and its input/output
feature-map sizes.  Features are expressed in "mega" units (1e6 elements /
operations / bytes) so the regression design matrices are well conditioned.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.architecture import LayerSummary

#: Scaling applied to raw counts before regression.
MEGA = 1e6

#: Layer types costed through another family's prediction models.  1-D
#: convolutions and poolings have the same arithmetic structure as their 2-D
#: counterparts (MACs, parameter and traffic counts are computed the same
#: way), so they share the ``conv`` / ``pool`` regression models and compute
#: rates rather than requiring their own profiling sweeps.
FAMILY_ALIASES = {
    "conv1d": "conv",
    "pool1d": "pool",
}


def prediction_family(layer_type: str) -> str:
    """Prediction-model family a layer type is costed with."""
    return FAMILY_ALIASES.get(layer_type, layer_type)


# Column builders, one per prediction family.  Each gathers the *raw* counts
# of a whole family group column-by-column (plain list comprehensions, no
# per-layer array or tuple allocation); :func:`family_feature_matrix`
# converts them in one ``np.array`` call and applies one matrix-wide
# ``/ MEGA``.

def _conv_columns(summaries: List[LayerSummary]) -> tuple:
    """Convolutions: ``[input elements, output elements, MACs, parameters,
    weight bytes, total activation+weight traffic]``."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
        [s.macs for s in summaries],
        [s.params for s in summaries],
        [s.weight_bytes for s in summaries],
        [
            s.weight_bytes + s.output_bytes + 4 * s.input_elements
            for s in summaries
        ],
    )


def _fc_columns(summaries: List[LayerSummary]) -> tuple:
    """Fully-connected layers: ``[input features, output features, MACs,
    weight bytes]``."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
        [s.macs for s in summaries],
        [s.weight_bytes for s in summaries],
    )


def _pool_columns(summaries: List[LayerSummary]) -> tuple:
    """Poolings: ``[input elements, output elements, ops]``."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
        [s.macs for s in summaries],
    )


def _generic_columns(summaries: List[LayerSummary]) -> tuple:
    """Fallback for structural layers (flatten, dropout):
    ``[input elements, output elements]``."""
    return (
        [s.input_elements for s in summaries],
        [s.output_elements for s in summaries],
    )


_COLUMN_BUILDERS = {
    "conv": _conv_columns,
    "fc": _fc_columns,
    "pool": _pool_columns,
}


def family_feature_matrix(family: str, summaries: List[LayerSummary]) -> np.ndarray:
    """``(len(summaries), d)`` design matrix for one prediction family.

    The family must be the summaries' shared :func:`prediction_family`;
    building the matrix in one pass is the featurization half of the
    batched predictor hot path.
    """
    builder = _COLUMN_BUILDERS.get(family, _generic_columns)
    matrix = np.array(builder(summaries), dtype=float).T
    matrix /= MEGA
    return matrix


def feature_dimension(layer_type: str) -> int:
    """Dimensionality of the feature vector used for a layer family."""
    dims: Dict[str, int] = {"conv": 6, "fc": 4, "pool": 3}
    return dims.get(prediction_family(layer_type), 2)


def layer_features(summary: LayerSummary) -> np.ndarray:
    """Feature vector of one layer: its row of :func:`family_feature_matrix`."""
    return family_feature_matrix(prediction_family(summary.layer_type), [summary])[0]


def stack_features(summaries: List[LayerSummary]) -> Dict[str, np.ndarray]:
    """Group summaries by prediction family and build each family's matrix."""
    grouped: Dict[str, List[LayerSummary]] = {}
    for summary in summaries:
        grouped.setdefault(prediction_family(summary.layer_type), []).append(summary)
    return {
        family: family_feature_matrix(family, members)
        for family, members in grouped.items()
    }
