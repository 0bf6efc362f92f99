"""Runtime caps, loadable from an optional JSON config file.

The config path can be overridden with the REGSEP_CONFIG environment
variable.  Unknown keys are rejected so typos do not silently fall back
to defaults; so are repeated keys, of which `json` would keep the last.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from .errors import InputError

ENV_VAR = "REGSEP_CONFIG"


@dataclass(frozen=True)
class Settings:
    sample_maxlen_cap: int = 10
    node_budget: int = 500_000


DEFAULT = Settings()


def is_count(value: object) -> bool:
    """True iff `value` is a non-negative int; `bool` is an int but no count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`object_pairs_hook` for `json.load`: the object as a dict, or
    InputError on a repeated key, which `json` would silently keep last."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"duplicate key {key!r}")
        out[key] = value
    return out


def load_settings(path: str | None = None) -> Settings:
    """Load settings from `path`, the REGSEP_CONFIG env var, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return DEFAULT
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("config must be a JSON object")
    known = {f.name for f in fields(Settings)}
    unknown = set(raw) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not is_count(value):
            raise InputError(f"config key {key} must be a non-negative integer")
    return Settings(**raw)
