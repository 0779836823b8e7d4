"""Fixed per-modality feature catalogs.

Every FeatureRow draws its keys from these tuples; absent values are omitted
from the row (never encoded as 0 or NaN). CSV export emits every catalog
column for each modality present in a bag.

BIO_TOPICS holds the one definition of each raw bio topic (bio.<modality>):
its sensor-native sampling rate and the f64 fields of its payload.
"""

from typing import NamedTuple


class BioTopic(NamedTuple):
    rate_hz: float
    fields: tuple


BIO_TOPICS = {
    "ecg": BioTopic(252.0, ("v",)),
    "ppg": BioTopic(64.0, ("v",)),
    "resp": BioTopic(1.008, ("v",)),
    "eda": BioTopic(4.0, ("v",)),
    "st": BioTopic(4.0, ("v",)),
    "gaze": BioTopic(120.0, ("x_deg", "y_deg", "d_mm")),
}

FEATURE_CATALOG = {
    "ecg": (
        "hf_power_ms2",
        "lf_power_ms2",
        "pnn10",
        "pnn25",
        "pnn50",
        "rmssd_ms",
        "rr_max_ms",
        "rr_mean_ms",
        "rr_min_ms",
        "rr_std_ms",
        "sd1_ms",
        "sd1_sd2",
        "sd2_ms",
        "sdell_ms2",
        "sdsd_ms",
        "total_power_ms2",
        "tri_index",
        "vlf_power_ms2",
    ),
    "resp": (
        "hf_power",
        "lf_power",
        "power_ratio",
        "rate_bpm",
    ),
    "eda": (
        "peak_max_us",
        "peak_mean_duration_s",
        "peak_mean_slope_us_s",
        "peak_mean_us",
        "peak_min_us",
        "peak_quantity",
        "phasic_auc_uss",
        "phasic_mean_us",
        "phasic_range_us",
        "phasic_std_us",
        "tonic_auc_uss",
        "tonic_mean_us",
        "tonic_range_us",
        "tonic_std_us",
    ),
    "st": (
        "max_c",
        "mean_c",
        "median_c",
        "min_c",
        "std_c",
    ),
    "ppg": (
        "auc",
        "digital_pa",
        "ipa",
        "prv_ms",
        "r2r_ms",
        "reflection_index",
        "svri",
    ),
    "gaze": (
        "fixation_duration_ms",
        "fixation_freq_hz",
        "pso_freq_hz",
        "pupil_diameter_mm",
        "pursuit_freq_hz",
        "saccade_amp_mean_deg",
        "saccade_freq_hz",
    ),
}
