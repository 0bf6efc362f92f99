"""Runtime caps, and the rules every JSON input goes through.

Nets, automata and the optional config file are all read by `read_json`
and their objects checked by `check_keys`.  Unknown keys are rejected so
typos do not silently fall back to defaults; so are repeated keys, of
which `json` would keep the last.  The config path can be overridden with
the REGSEP_CONFIG environment variable.
"""

from __future__ import annotations

import json
import os
from collections.abc import Collection
from dataclasses import dataclass, fields
from typing import Any

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


def read_json(path: str, kind: str) -> Any:
    """The JSON value in the `kind` file at `path`; InputError if it cannot
    be opened or parsed, or repeats a key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except (OSError, json.JSONDecodeError, InputError) as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc


def check_keys(
    raw: Any, kind: str, required: Collection[str] = (), optional: Collection[str] = ()
) -> None:
    """InputError unless `raw` is an object with every `required` key and no
    key outside `required` and `optional`."""
    if not isinstance(raw, dict):
        raise InputError(f"{kind} must be a JSON object")
    unknown = set(raw).difference(required, optional)
    if unknown:
        raise InputError(f"unknown {kind} keys: {sorted(unknown)}")
    missing = set(required).difference(raw)
    if missing:
        raise InputError(f"missing {kind} keys: {sorted(missing)}")


def load_settings(path: str | None = None) -> Settings:
    """Load settings from `path`, the REGSEP_CONFIG env var, or defaults;
    an empty REGSEP_CONFIG counts as unset."""
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return DEFAULT
    raw = read_json(path, "config")
    check_keys(raw, "config", optional=[f.name for f in fields(Settings)])
    for key, value in raw.items():
        if not is_count(value):
            raise InputError(f"config key {key} must be a non-negative integer")
    return Settings(**raw)
