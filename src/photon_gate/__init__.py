"""Photon click statistics behind a saturable two-detector stage, and
the single-emitter test built on them.

Importing the package loads no numpy: the names of simulate and
timetags, the two modules built on numpy arrays, are imported with them
on first access.
"""

from importlib import import_module as _import_module
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
from .kvfile import read_counts_block, read_sim_config, write_counts_block
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
    SimConfig,
    SourceModel,
    Verdict,
    stats_from_counts,
)

__version__ = "0.1.0"

# module -> the names the package takes from it on first access
_LAZY = {
    "simulate": ("counts_from_click_arrays", "simulate_click_arrays", "simulate_pulses"),
    "timetags": (
        "GateConfig",
        "fold_timetags",
        "iter_timetags_binary",
        "iter_timetags_csv",
        "records_from_click_arrays",
        "write_timetags_binary",
        "write_timetags_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
] + list(_MODULE_OF)


def __getattr__(name: str):
    """simulate or timetags, or one of their names, imported now."""
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(__getattr__(_MODULE_OF[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
