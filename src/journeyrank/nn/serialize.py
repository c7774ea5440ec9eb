"""Bit-exact parameter persistence.

Weights are written as one little-endian float64 blob (``params.bin``) plus
a JSON manifest (``params.json``) describing names, shapes, and a checksum.
Round-tripping reproduces every array exactly, which the evaluation
tooling relies on when comparing runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from ..errors import ConfigError, SchemaMismatchError
from .mlp import ParameterStore

FORMAT_TAG = "journeyrank-params-v1"


def tensor_table(layout) -> list[dict]:
    """The manifest's ``tensors`` entries for a :class:`ParameterStore`
    layout: each tensor's name, shape and byte offset in ``params.bin``,
    in layout order, each right after the one before."""
    entries = []
    offset = 0
    for name, shape in layout:
        entries.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return entries


def save_params(store: ParameterStore, directory: str | Path,
                extra: dict | None = None) -> None:
    """Write ``params.json`` and ``params.bin`` into ``directory``.

    ``extra`` is merged into the manifest for callers that need to pin
    model configuration next to the weights.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = store.tensor.values.astype("<f8", copy=False).tobytes()
    manifest = {
        "format": FORMAT_TAG,
        "tensors": tensor_table(store.layout),
        "n_bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }
    if extra:
        manifest.update(extra)
    (directory / "params.bin").write_bytes(blob)
    with open(directory / "params.json", "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_params(directory: str | Path) -> tuple[ParameterStore, dict]:
    """Rebuild a store from disk; returns (store, full manifest).

    Refuses a ``params.json`` that is not the manifest ``save_params``
    writes with a ``SchemaMismatchError`` naming the file, including a
    tensors table that does not lay ``params.bin`` out end to end under
    string names, and a ``params.bin`` holding a NaN or an infinity."""
    directory = Path(directory)
    path = directory / "params.json"
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaMismatchError(f"{path}: not UTF-8 JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_TAG:
        raise SchemaMismatchError(f"{path}: not a {FORMAT_TAG} manifest")
    blob = (directory / "params.bin").read_bytes()
    if len(blob) != manifest.get("n_bytes"):
        raise SchemaMismatchError(f"{path}: params.bin length does not "
                                  "match the manifest")
    if hashlib.sha256(blob).hexdigest() != manifest.get("sha256"):
        raise SchemaMismatchError(f"{path}: params.bin checksum mismatch")
    try:
        layout = [(entry["name"], tuple(int(d) for d in entry["shape"]))
                  for entry in manifest["tensors"]]
        if (not all(isinstance(name, str) for name, _ in layout)
                or tensor_table(layout) != manifest["tensors"]):
            raise ValueError("tensors are not named by strings and laid out "
                             "one after another from offset 0")
        values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        if not np.isfinite(values).all():
            raise SchemaMismatchError(f"{path}: params.bin is not finite")
        store = ParameterStore(layout, values)
    except (ConfigError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise SchemaMismatchError(f"{path}: malformed tensors table: "
                                  f"{exc!r}") from None
    return store, manifest
