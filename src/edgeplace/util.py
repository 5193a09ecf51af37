"""Small shared helpers: seeded sub-streams, canonical JSON output and JSON-object input."""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a stream name.

    All randomness in the package flows from one user-facing seed; each
    consumer (workload synthesis, policy init, action sampling, ...) gets
    its own named stream so adding a consumer never perturbs the others.
    The seed lies in 0..2**32 - 1; any other seed is a ValueError, since one
    folded into that range would repeat another seed's run.
    """
    seed = int(seed)
    if not 0 <= seed <= 0xFFFFFFFF:
        raise ValueError(f"seed {seed} lies outside 0..4294967295")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed] + words))


def canonical_json(obj: Any) -> str:
    """Serialize with sorted keys and no float mangling; stable across runs."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def dump_json(path: str, obj: Any) -> None:
    """Write obj as canonical JSON; a value it refuses leaves the file as it was."""
    text = canonical_json(obj) + "\n"  # serialized before the open truncates the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_json(path: str, error: type[Exception], what: str) -> dict:
    """The JSON object in a file; an unreadable file or any other JSON value raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} is not a JSON object")
    return doc


def is_json_int(value: Any) -> bool:
    """Whether a value read from JSON is an integer: 3, not 3.0, "3" or true."""
    return isinstance(value, int) and not isinstance(value, bool)


# the least int that float() rounds to infinity and refuses with OverflowError
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def is_json_number(value: Any) -> bool:
    """Whether a value read from JSON is a number a float holds: 3 or 3.5, not "3.5",
    true or 10**400."""
    return isinstance(value, float) or (is_json_int(value) and abs(value) < _FLOAT_INT_LIMIT)


def non_number(value: Any, name: str) -> str | None:
    """The first entry of a JSON value, a number or nested lists of them, that is not a number.

    Returns None when there is none, else the entry named after its position,
    such as "delays[0][1] is '2'" (or "delays is '2'" for the value itself).
    """
    if not isinstance(value, list):
        return None if is_json_number(value) else f"{name} is {value!r}"
    for idx, item in enumerate(value):
        if not is_json_number(item):
            found = non_number(item, f"{name}[{idx}]")
            if found is not None:
                return found
    return None
