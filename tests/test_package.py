"""The package's public surface, which imports no numpy until a name
built on numpy arrays is used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import photon_gate

SRC = Path(photon_gate.__file__).resolve().parents[1]

PUBLIC = [
    "ClickCounts", "Coherent", "CriticalValues", "Decision", "DetectionParams",
    "EmitterWithBackground", "FormatError", "GateConfig", "IdealEmitters", "PhotonStats",
    "RangeError", "SimConfig", "SourceModel", "Verdict", "boundary_eta", "classify",
    "classify_counts", "corrected_critical_values", "counts_from_click_arrays", "expected_stats",
    "fold_timetags", "g2_zero_estimate", "iter_timetags_binary", "iter_timetags_csv",
    "read_counts_block", "read_sim_config", "records_from_click_arrays", "relative_deviations",
    "sbr_from_stats", "sbr_threshold", "setup_sbr", "simulate_click_arrays", "simulate_pulses",
    "stats_from_counts", "systematic_deviation", "write_counts_block", "write_timetags_binary",
    "write_timetags_csv",
]


def fresh_stdout(code: str) -> str:
    """The stdout of python -c code, in a new process with the package's src on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return done.stdout


def test_public_names_are_pinned():
    assert sorted(photon_gate.__all__) == PUBLIC


def test_import_and_dir_load_no_numpy():
    out = fresh_stdout("import sys, photon_gate\n"
                       "listed = set(photon_gate.__all__) <= set(dir(photon_gate))\n"
                       "print('numpy' in sys.modules, listed)")
    assert out.split() == ["False", "True"]


def test_star_import_binds_every_name():
    # in a fresh process, so the names of simulate and timetags are not yet bound
    out = fresh_stdout("namespace = {}\n"
                       "exec('from photon_gate import *', namespace)\n"
                       "import photon_gate\n"
                       "print(sorted(name for name in photon_gate.__all__\n"
                       "             if namespace.get(name) is not getattr(photon_gate, name)))")
    assert out.strip() == "[]"


def test_every_name_resolves():
    for name in PUBLIC:
        assert getattr(photon_gate, name) is not None, name


def test_sim_config_is_one_class():
    assert photon_gate.SimConfig is photon_gate.simulate.SimConfig
    assert photon_gate.SimConfig is photon_gate.model.SimConfig


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        photon_gate.no_such_name
