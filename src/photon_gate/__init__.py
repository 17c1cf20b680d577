"""Photon click statistics behind a saturable two-detector stage, and
the single-emitter test built on them."""

from .analytic import (
    SourceDistribution,
    binomial_source,
    expected_stats,
    g2_zero_estimate,
    hbt_transform,
    poisson_source,
    sbr_from_stats,
    single_with_background_stats,
)
from .criterion import (
    CriticalValues,
    boundary_eta,
    classify,
    classify_counts,
    corrected_critical_values,
    sbr_threshold,
    setup_sbr,
    uncorrected_bounds,
)
from .deviations import (
    relative_deviations,
    sampling_fluctuation,
    systematic_deviation,
)
from .model import (
    ClickCounts,
    Coherent,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    FormatError,
    GateError,
    IdealEmitters,
    PhotonStats,
    RangeError,
    SbrNotApplicable,
    SourceModel,
    Verdict,
    stats_from_counts,
)
from .simulate import (
    SimConfig,
    counts_from_click_arrays,
    simulate_click_arrays,
    simulate_pulses,
)
from .timetags import (
    GateConfig,
    ingest_arrays,
    is_counts_block,
    read_counts_block,
    read_sim_config,
    read_timetags_binary,
    read_timetags_csv,
    records_from_click_arrays,
    write_counts_block,
    write_timetags_binary,
    write_timetags_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
