"""Small shared helpers: seeded sub-streams, canonical JSON output and JSON-object input."""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from .contract import SEED, conform


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a stream name.

    All randomness in the package flows from one user-facing seed; each
    consumer (workload synthesis, policy init, action sampling, ...) gets
    its own named stream so adding a consumer never perturbs the others.
    A seed that is not an integer in 0..2**32 - 1 (contract.SEED) is a
    ValueError: one folded into that range would repeat another seed's run.
    """
    conform(seed, SEED, "seed")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed)] + words))


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
