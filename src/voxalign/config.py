"""Plain ``key=value`` run configuration.

Files hold one ``key=value`` pair per line; blank lines and ``#`` comments
are ignored. Unknown keys are hard errors (anti-typo contract), and every
command writes the fully resolved configuration, defaults included, next
to its outputs so a run is reconstructible from its output directory.
Schemas are read off the config dataclasses, so each default lives only
on its dataclass field.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

from .errors import UsageError


def _parse_int(text: str) -> int:
    return int(text)


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # no key has a meaningful nan or inf
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_float_list(text: str) -> tuple:
    return tuple(_parse_float(part) for part in text.split(",") if part.strip())


def _parse_int_or_auto(text: str):
    stripped = text.strip().lower()
    if stripped == "auto":
        return None
    return int(text)


PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": _parse_str,
    "float_list": _parse_float_list,
    "int_or_auto": _parse_int_or_auto,
}


def _parser_name(default) -> str:
    if default is None:
        return "int_or_auto"
    if isinstance(default, tuple):
        return "float_list"
    return type(default).__name__  # bool, int, float or str


def schema(defaults, names=None) -> dict:
    """Schema ``key -> (parser name, default as it appears in a file)`` read
    off a dataclass instance's fields (all but ``seed``, or just ``names``)."""
    keys = names or [f.name for f in fields(defaults) if f.name != "seed"]
    return {
        key: (_parser_name(getattr(defaults, key)), format_value(getattr(defaults, key)))
        for key in keys
    }


def read_config_file(path) -> dict:
    """Parse raw key=value lines; duplicates are usage errors."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file {p} does not exist")
    raw = {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"{p}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in raw:
            raise UsageError(f"{p}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve(raw: dict, schema: dict) -> dict:
    """Apply defaults and type the values; unknown keys are errors."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, (parser_name, default) in schema.items():
        text = raw.get(key, default)
        try:
            resolved[key] = PARSERS[parser_name](text)
        except ValueError as exc:
            raise UsageError(f"config key {key!r}: {exc}") from exc
    return resolved


def format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_resolved(resolved: dict, path) -> None:
    """Write the fully resolved configuration, sorted by key."""
    lines = [f"{key}={format_value(resolved[key])}" for key in sorted(resolved)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
