"""Photon click statistics behind a saturable two-detector stage, and
the single-emitter test built on them."""

from types import ModuleType as _ModuleType

from .analytic import expected_stats, g2_zero_estimate, sbr_from_stats
from .criterion import (
    boundary_eta,
    classify,
    classify_counts,
    corrected_critical_values,
    relative_deviations,
    sbr_threshold,
    setup_sbr,
    systematic_deviation,
)
from .model import (
    ClickCounts,
    Coherent,
    CriticalValues,
    Decision,
    DetectionParams,
    EmitterWithBackground,
    FormatError,
    IdealEmitters,
    PhotonStats,
    RangeError,
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
    fold_timetags,
    is_counts_block,
    iter_timetags_binary,
    iter_timetags_csv,
    read_counts_block,
    read_sim_config,
    records_from_click_arrays,
    write_counts_block,
    write_timetags_binary,
    write_timetags_csv,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
