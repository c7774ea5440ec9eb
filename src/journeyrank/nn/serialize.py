"""Bit-exact parameter persistence.

Weights are written as one little-endian float64 blob (``params.bin``) plus
a JSON manifest (``params.json``) describing names, shapes, and a checksum.
Round-tripping reproduces every array exactly, which the evaluation
tooling relies on when comparing runs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..errors import SchemaMismatchError
from .mlp import ParameterStore

FORMAT_TAG = "journeyrank-params-v1"


def tensor_table(store: ParameterStore) -> list[dict]:
    """The manifest's ``tensors`` entries: each tensor's name, shape and
    byte offset in ``params.bin``, in store order."""
    entries = []
    offset = 0
    for name, t in store.items():
        entries.append({"name": name, "shape": list(t.values.shape),
                        "offset": offset})
        offset += 8 * t.values.size
    return entries


def save_params(store: ParameterStore, directory: str | Path,
                extra: dict | None = None) -> None:
    """Write ``params.json`` and ``params.bin`` into ``directory``.

    ``extra`` is merged into the manifest for callers that need to pin
    model configuration next to the weights.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = b"".join(np.ascontiguousarray(t.values, dtype="<f8").tobytes()
                    for _, t in store.items())
    manifest = {
        "format": FORMAT_TAG,
        "tensors": tensor_table(store),
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
    """Rebuild a store from disk; returns (store, full manifest)."""
    directory = Path(directory)
    with open(directory / "params.json") as f:
        manifest = json.load(f)
    if manifest.get("format") != FORMAT_TAG:
        raise SchemaMismatchError(
            f"unsupported parameter format {manifest.get('format')!r}")
    blob = (directory / "params.bin").read_bytes()
    if len(blob) != manifest["n_bytes"]:
        raise SchemaMismatchError("params.bin length does not match manifest")
    if hashlib.sha256(blob).hexdigest() != manifest["sha256"]:
        raise SchemaMismatchError("params.bin checksum mismatch")
    store = ParameterStore()
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        n = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=start)
        store.add(entry["name"], arr.reshape(shape).copy())
    return store, manifest
