"""Rolling-window biofeature extraction for the six raw modalities.

catalog, gaze and windowing (FeatureRow too) need numpy only and load with
the package. The extraction stack (extract, and through it beats and hrv,
which import SciPy) loads in the feature worker that simulate and extract
fork (features.worker), and elsewhere on the first use of one of its names.
"""

from .catalog import BIO_TOPICS, FEATURE_CATALOG
from .gaze import DEFAULT_THRESHOLDS, GazeThresholds
from .windowing import FeatureRow

_EXTRACT_NAMES = frozenset({"FeaturePipeline", "MIN_QUALITY"})


def __getattr__(name):
    if name in _EXTRACT_NAMES:
        from . import extract

        return getattr(extract, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
