"""Key = value files: simulation configs and counts blocks.

Aggregated tallies travel as a flat ``key = value`` text block that
echoes the producing configuration, so a classification re-run needs no
side channel.  A simulation config is the same lines without the
tallies and the ``photon-gate-counts v1`` magic line that leads a
block.  A line is read as ASCII and ``#`` starts a comment.  A bad
line or value fails as FormatError naming ``file:line``, a missing or
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


def _kv_lines(path: str | Path, lines: Iterable[str], start: int = 1) -> dict:
    """key -> (line number, value, key as written) of the ``key = value``
    lines of a file, read as ASCII with errors="surrogateescape", so a
    non-ASCII byte fails here, with its file:line."""
    kv = {}
    for lineno, raw in enumerate(lines, start=start):
        if not raw.isascii():
            raise FormatError(f"{path}:{lineno}: line is not ASCII")
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
    text = Path(path).read_text(encoding="ascii", errors="surrogateescape")
    kv = _kv_lines(path, text.splitlines())
    # accept 'cycles' as shorthand for params.cycles; its errors name cycles
    if "cycles" in kv and "params.cycles" not in kv:
        kv["params.cycles"] = kv.pop("cycles")
    return _sim_config_from(path, kv)


def write_counts_block(path: str | Path, counts: ClickCounts, config: SimConfig) -> None:
    """Persist tallies plus the full producing configuration.  Output
    bytes depend only on (counts, config)."""
    lines = [COUNTS_MAGIC, *_field_lines(counts, _COUNT_FIELDS), *_config_lines(config)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _counts_block_bytes(path: str | Path, whole: bool) -> bytes | None:
    """The bytes of the file at path, or only its first line unless whole,
    when that line, compared as bytes, is the counts-block magic; else None,
    also when the file cannot be opened or that line read."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        try:
            # 1 KiB holds the magic line; a binary file is not read to its first LF
            head = fh.readline(1 << 10)
        except OSError:
            return None
        first = head.splitlines()
        if not first or first[0].strip() != _COUNTS_MAGIC_BYTES:
            return None
        return head + fh.read() if whole else head


def is_counts_block(path: str | Path) -> bool:
    """Whether the first line, compared as bytes, is the counts-block
    magic; nothing after that line can change the answer."""
    return _counts_block_bytes(path, whole=False) is not None


def read_counts_block(path: str | Path) -> tuple[ClickCounts, SimConfig]:
    with open(path, "rb") as fh:
        return _counts_block_from(path, fh.read())


def _read_if_counts_block(path: str | Path) -> tuple[ClickCounts, SimConfig] | None:
    """read_counts_block(path) if is_counts_block(path), else None, with one open."""
    data = _counts_block_bytes(path, whole=True)
    return None if data is None else _counts_block_from(path, data)


def _counts_block_from(path: str | Path, data: bytes) -> tuple[ClickCounts, SimConfig]:
    """The block of a file's bytes, read as ASCII with errors="surrogateescape"."""
    lines = data.decode("ascii", "surrogateescape").splitlines()
    if not lines or lines[0].strip() != COUNTS_MAGIC:
        raise FormatError(f"{path}:1: expected {COUNTS_MAGIC!r} header")
    kv = _kv_lines(path, lines[1:], start=2)
    return _build(path, kv, ClickCounts, _COUNT_FIELDS), _sim_config_from(path, kv)
