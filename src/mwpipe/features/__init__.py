"""Rolling-window biofeature extraction for the six raw modalities."""

from .catalog import BIO_TOPICS, FEATURE_CATALOG
from .windowing import Window, SlidingWindower, make_windows
from .beats import BeatSeries, detect_beats
from .hrv import hrv_stat_features, hrv_frequency
from .respiration import resp_features
from .eda import EDADecomposition, eda_decompose, eda_features
from .skintemp import st_features
from .ppg import ppg_features
from .gaze import DEFAULT_THRESHOLDS, GazeEventRec, GazeThresholds, classify_gaze, gaze_features
from .extract import FeatureRow, FeaturePipeline, extract_window, MIN_QUALITY

__all__ = [
    "BIO_TOPICS",
    "FEATURE_CATALOG",
    "Window",
    "SlidingWindower",
    "make_windows",
    "BeatSeries",
    "detect_beats",
    "hrv_stat_features",
    "hrv_frequency",
    "resp_features",
    "EDADecomposition",
    "eda_decompose",
    "eda_features",
    "st_features",
    "ppg_features",
    "GazeEventRec",
    "GazeThresholds",
    "DEFAULT_THRESHOLDS",
    "classify_gaze",
    "gaze_features",
    "FeatureRow",
    "FeaturePipeline",
    "extract_window",
    "MIN_QUALITY",
]
