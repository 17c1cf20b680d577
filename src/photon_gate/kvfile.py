"""Key = value files: simulation configs and counts blocks.

Aggregated tallies travel as a flat ``key = value`` text block that
echoes the producing configuration, so a classification re-run needs no
side channel.  A simulation config is the same lines without the
tallies and the ``photon-gate-counts v1`` magic line that leads a
block.  Both are read as bytes and split into lines at LF, CRLF or a
lone CR (bytes.splitlines), so a vertical tab, form feed or 0x1c-0x1e
separator stays within its line and no later line number moves.  A
line is decoded as ASCII and ``#`` starts a comment.  A file is a
counts block when its first line, up to its first KiB and stripped of
ASCII whitespace, equals the magic line, compared once, as bytes; the
rest of a longer first line is read as a line of its own.  A bad line
or value fails as FormatError naming ``file:line``, a missing or
inconsistent one naming the file.

This module works on plain ints, floats and strings, and imports no
numpy, so a counts-block classify loads none.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .model import (
    ClickCounts,
    Coherent,
    DetectionParams,
    EmitterWithBackground,
    FormatError,
    IdealEmitters,
    RangeError,
    SimConfig,
)

COUNTS_MAGIC = "photon-gate-counts v1"
_COUNTS_MAGIC_BYTES = COUNTS_MAGIC.encode("ascii")


# each object a file describes, as fields (name, type, default); a field
# without a default is required.  source.kind -> (model, its fields)
_SOURCE_KINDS = {
    "ideal_emitters": (IdealEmitters, (("s", int, 1),)),
    "emitter_with_background": (EmitterWithBackground, ()),
    "coherent": (Coherent, (("mu", float, None),)),
}
_KIND_OF = {model: kind for kind, (model, _) in _SOURCE_KINDS.items()}
_PARAM_FIELDS = (("eta", float, None), ("delta", float, 0.0), ("gamma", float, 0.0),
                 ("cycles", int, None))
_RUN_FIELDS = (("seed", int, None), ("block_size", int, SimConfig.block_size))
_COUNT_FIELDS = tuple((key, int, None) for key in ("n_all", "n_00", "n_10", "n_01", "n_11"))


def _field_lines(obj: object, fields, prefix: str = "") -> list[str]:
    """``key = value`` lines of the fields of obj, each value the repr
    of its field type, so a numpy scalar is written as a plain number."""
    return [f"{prefix}{name} = {field_type(getattr(obj, name))!r}"
            for name, field_type, _ in fields]


def _config_lines(config: SimConfig) -> list[str]:
    kind = _KIND_OF[type(config.source)]
    return (_field_lines(config, _RUN_FIELDS) + [f"source.kind = {kind}"]
            + _field_lines(config.source, _SOURCE_KINDS[kind][1], "source.")
            + _field_lines(config.params, _PARAM_FIELDS, "params."))


def _kv_lines(path: str | Path, lines: Iterable[bytes]) -> dict:
    """key -> (line number, value, key as written) of the ``key = value``
    lines of a file, each decoded as ASCII, so a non-ASCII byte fails
    here, with its file:line."""
    kv = {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.isascii():
            raise FormatError(f"{path}:{lineno}: line is not ASCII")
        raw = raw.decode("ascii")
        key, eq, value = raw.partition("#")[0].partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            if key:
                raise FormatError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            continue  # a blank or comment line
        if not key or not value:
            raise FormatError(f"{path}:{lineno}: empty key or value")
        if key in kv:
            raise FormatError(f"{path}:{lineno}: duplicate key {key!r}")
        kv[key] = (lineno, value, key)
    return kv


def _build(path: str | Path, kv: dict, model, fields, prefix: str = "", **given):
    """model(**given), plus each field of the table popped from kv at key
    prefix + name, in table order; a field without a default is required.
    A value out of its range fails with the file:line of its key, or the
    file alone when no one key of this table is at fault."""
    taken = {}
    for name, field_type, default in fields:
        given[name] = default
        if prefix + name in kv:
            lineno, raw, written = taken[name] = kv.pop(prefix + name)
            try:
                given[name] = field_type(raw)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: {written} must be {field_type.__name__}, "
                                  f"got {raw!r}") from None
        elif default is None:
            raise FormatError(f"{path}: missing required key {prefix + name!r}")
    try:
        return model(**given)
    except RangeError as exc:
        if exc.field not in taken:
            raise FormatError(f"{path}: {exc}") from None
        lineno, _, written = taken[exc.field]
        # the message starts with the field, which the file may name otherwise
        raise FormatError(f"{path}:{lineno}: {written}{str(exc)[len(exc.field):]}") from None


def _sim_config_from(path: str | Path, kv: dict) -> SimConfig:
    """The SimConfig of the keys left in kv, which must be all its keys."""
    kind = _build(path, kv, dict, (("kind", str, None),), "source.")["kind"]
    if kind not in _SOURCE_KINDS:
        raise FormatError(f"{path}: unknown source.kind {kind!r}")
    source = _build(path, kv, *_SOURCE_KINDS[kind], "source.")
    params = _build(path, kv, DetectionParams, _PARAM_FIELDS, "params.")
    config = _build(path, kv, SimConfig, _RUN_FIELDS, source=source, params=params)
    if kv:
        key, (lineno, *_) = next(iter(kv.items()))
        raise FormatError(f"{path}:{lineno}: unknown key {key!r}")
    return config


def read_sim_config(path: str | Path) -> SimConfig:
    """Parse a simulation config file (flat ``key = value`` lines,
    ``#`` comments allowed)."""
    kv = _kv_lines(path, Path(path).read_bytes().splitlines())
    # accept 'cycles' as shorthand for params.cycles; its errors name cycles
    if "cycles" in kv and "params.cycles" not in kv:
        kv["params.cycles"] = kv.pop("cycles")
    return _sim_config_from(path, kv)


def write_counts_block(path: str | Path, counts: ClickCounts, config: SimConfig) -> None:
    """Persist tallies plus the full producing configuration.  Output
    bytes depend only on (counts, config)."""
    lines = [COUNTS_MAGIC, *_field_lines(counts, _COUNT_FIELDS), *_config_lines(config)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_counts_block(path: str | Path) -> tuple[ClickCounts, SimConfig]:
    """The tallies and producing configuration of a counts block; a file
    whose first line is not the magic line fails as FormatError naming
    ``file:1``."""
    block = _read_if_counts_block(path)
    if block is None:
        raise FormatError(f"{path}:1: expected {COUNTS_MAGIC!r} header")
    return block


def _read_if_counts_block(path: str | Path) -> tuple[ClickCounts, SimConfig] | None:
    """read_counts_block(path), or None when the file is not a counts block,
    with one open; of a file that is none, at most its first KiB is read."""
    with open(path, "rb") as fh:
        head = fh.readline(1 << 10)  # a binary file is not read to its first LF
        first = (head.splitlines() or [b""])[0]
        if first.strip() != _COUNTS_MAGIC_BYTES:
            return None
        lines = (head + fh.read()).splitlines()
    # a first line longer than the head goes on past the magic: read that rest as line 1
    kv = _kv_lines(path, [lines[0][len(first):], *lines[1:]])
    return _build(path, kv, ClickCounts, _COUNT_FIELDS), _sim_config_from(path, kv)
