"""Rolling-window biofeature extraction for the six raw modalities.

catalog and gaze need numpy only and load with the package. The extraction
stack (extract, and through it beats and hrv, which import SciPy) loads on
the first use of one of its names, so building a plan or reading a bag
never pays for it.
"""

from .catalog import BIO_TOPICS, FEATURE_CATALOG
from .gaze import DEFAULT_THRESHOLDS, GazeThresholds

_EXTRACT_NAMES = frozenset({"FeaturePipeline", "FeatureRow", "MIN_QUALITY", "extract_window"})


def __getattr__(name):
    if name in _EXTRACT_NAMES:
        from . import extract

        return getattr(extract, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
