"""Plain ``key=value`` run configuration.

Files hold one ``key=value`` pair per line; blank lines and ``#`` comments
are ignored. Unknown keys are hard errors (anti-typo contract), and every
command writes the fully resolved configuration, defaults included, next
to its outputs so a run is reconstructible from its output directory.
Schemas are read off the config dataclasses, so each default lives only
on its dataclass field, and each field declares the values it may take
with :func:`setting`, checked by :func:`check_fields`. Every text file the
package writes goes through :func:`write_lines`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, field, fields
from pathlib import Path

from .errors import DegenerateInput, FormatError, UsageError


def setting(default=MISSING, *, low=None, high=None, above=None, below=None, choices=None):
    """A dataclass field that declares its domain next to its default:
    ``low``/``high`` are inclusive bounds, ``above``/``below`` exclusive
    ones, and ``choices`` lists the allowed values."""
    domain = dict(low=low, high=high, above=above, below=below, choices=choices)
    return field(default=default, metadata={"domain": {k: v for k, v in domain.items() if v is not None}})


_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def check(name: str, value, *, low=None, high=None, above=None, below=None, choices=None) -> None:
    """Raise :class:`DegenerateInput` naming `name` for a non-finite float or
    a value outside the domain. None (``auto``) always passes; a tuple is
    checked entry by entry."""
    if value is None:
        return
    if isinstance(value, tuple):
        for entry in value:
            check(name, entry, low=low, high=high, above=above, below=below, choices=choices)
        return
    if isinstance(value, float) and not math.isfinite(value):
        raise DegenerateInput(f"{name}: expected a finite number, got {value!r}")
    if choices is not None and value not in choices:
        raise DegenerateInput(f"{name} must be one of {choices}, got {value!r}")
    bounds = [(op, bound) for op, bound in ((">=", low), (">", above), ("<=", high), ("<", below))
              if bound is not None]  # lower bounds first
    if all(_HOLDS[op](value, bound) for op, bound in bounds):
        return
    if len(bounds) == 2:
        (op_lo, lo), (op_hi, hi) = bounds
        span = f"lie in {'[' if op_lo == '>=' else '('}{lo:g}, {hi:g}{']' if op_hi == '<=' else ')'}"
    else:
        span = f"be {bounds[0][0]} {bounds[0][1]:g}"
    raise DegenerateInput(f"{name} must {span}, got {value!r}")


def check_fields(obj) -> None:
    """Check every field of a dataclass instance against its declared domain."""
    for f in fields(obj):
        check(f.name, getattr(obj, f.name), **f.metadata.get("domain", {}))


def read_text(path) -> str:
    """A UTF-8 text file's contents; an unreadable or undecodable file is a
    :class:`FormatError` naming it."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{p}: cannot read ({exc.strerror or exc})", offset=0) from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{p}: not UTF-8 text", offset=exc.start) from None


def write_lines(path, lines) -> None:
    """Write `lines` as UTF-8 text, each ending in a newline."""
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


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


def _parse_float_list(text: str) -> tuple:
    return tuple(_parse_float(part) for part in text.split(",") if part.strip())


def _parse_int_or_auto(text: str):
    return None if text.strip().lower() == "auto" else int(text)


PARSERS = {
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": str.strip,
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
    raw = {}
    for lineno, line in enumerate(read_text(p).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"{p}: line {lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in raw:
            raise UsageError(f"{p}: line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve(raw: dict, schema: dict) -> dict:
    """Apply defaults and type the values; unknown keys are errors, and so
    is a missing key whose schema default is None."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for key, (parser_name, default) in schema.items():
        text = raw.get(key, default)
        if text is None:
            raise UsageError(f"missing config key {key!r}")
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
    write_lines(path, [f"{key}={format_value(resolved[key])}" for key in sorted(resolved)])
