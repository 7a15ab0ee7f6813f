"""Flat key = value run configuration.

One key per line, # comments and blank lines allowed, no nesting.
Every command has a fixed key schema; unknown keys and type errors are
reported with file/line diagnostics; a file that cannot be read or
decoded raises fileio's IoFailure. Values are formatted so that
parse(format(x)) == x, which is what makes echoed configs replayable
byte for byte.
"""

import math

from .errors import ConfigParseError
from .fileio import _read


def parse_config_file(path) -> dict:
    return parse_config_text(_read(path), source=str(path))


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Raw string->string mapping, before any schema typing."""
    out: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigParseError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigParseError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigParseError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_float(token: str, key: str) -> float:
    try:
        v = float(token)
    except ValueError as exc:
        raise ConfigParseError(f"{key}: not a number: {token!r}") from exc
    if math.isnan(v):
        raise ConfigParseError(f"{key}: nan is not a valid value")
    return v


def _parse_int(token: str, key: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ConfigParseError(f"{key}: not an integer: {token!r}") from exc


def _parse_bool(token: str, key: str) -> bool:
    low = token.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigParseError(f"{key}: not a boolean: {token!r}")


def _parse_sparsity_token(token: str, key: str):
    """"3" -> 3; "3-6" -> (3, 6)."""
    if "-" in token[1:]:
        lo_s, _, hi_s = token.partition("-")
        lo, hi = _parse_int(lo_s, key), _parse_int(hi_s, key)
        if lo > hi:
            raise ConfigParseError(f"{key}: empty range {token!r}")
        return (lo, hi)
    return _parse_int(token, key)


def parse_value(kind: str, token: str, key: str):
    if kind == "int":
        return _parse_int(token, key)
    if kind == "float":
        return _parse_float(token, key)
    if kind == "bool":
        return _parse_bool(token, key)
    if kind == "str":
        return token
    if kind == "int_list":
        return [_parse_int(t, key) for t in token.split()]
    if kind == "float_list":
        return [_parse_float(t, key) for t in token.split()]
    if kind == "sparsity_list":
        return [_parse_sparsity_token(t, key) for t in token.split()]
    raise AssertionError(f"unknown kind {kind}")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    if isinstance(v, tuple):
        return f"{v[0]}-{v[1]}"
    if isinstance(v, list):
        return " ".join(format_value(t) for t in v)
    return str(v)


REQUIRED = object()


def resolve(schema: dict, file_values: dict, flag_values: dict,
            source: str = "<config>") -> dict:
    """Layer defaults, config file, then flags; returns a typed dict.

    schema maps key -> (kind, default); REQUIRED as the default marks a
    key that must come from the file or a flag. Unknown file keys are
    rejected with the source name.
    """
    for key in file_values:
        if key not in schema:
            raise ConfigParseError(f"{source}: unknown key {key!r}")
    resolved = {}
    for key, (kind, default) in schema.items():
        if key in flag_values and flag_values[key] is not None:
            raw = str(flag_values[key])
        elif key in file_values:
            raw = file_values[key]
        elif default is not REQUIRED:
            raw = default
        else:
            raise ConfigParseError(f"{source}: missing required key {key!r}")
        resolved[key] = parse_value(kind, raw, key)
    return resolved


def render_config(resolved: dict) -> str:
    lines = [f"{key} = {format_value(resolved[key])}"
             for key in sorted(resolved)]
    return "\n".join(lines) + "\n"
