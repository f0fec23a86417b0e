"""Content-addressed on-disk cache of per-layer simulation results.

Sweeps and repeated benchmark runs re-simulate the same layers over and
over; this cache makes the second and later runs free.  It stores the
**compute part** of each layer result
(:data:`~repro.simulation.cycle_sim.LayerCompute`: per-operation
baseline and TensorDash cycles and MACs, scaled up by the stream
sampling factor), keyed by a SHA-256 over two fingerprints:

* the **compute fingerprint** (:func:`compute_fingerprint`) — the values
  stream extraction and the scheduling kernel read, taken from the
  simulator that reads them
  (:attr:`~repro.simulation.cycle_sim.LayerSimulator.compute_inputs`):
  tile rows, ``max_groups``, lanes, staging depth, the effective
  staging-refill limit and power gating, plus
  :data:`CACHE_SCHEMA_VERSION`.  Configurations that differ only in
  anything else — datatype, memory sizes, bandwidths that leave the
  refill limit alone, energy parameters — share entries;
* the **trace fingerprint** — the layer's hyper-parameters and the raw
  bytes of its boolean operand masks.

The rest of a layer result (memory traffic and the memory-hierarchy
constraint) is cheap and is recomputed from the trace and the full
configuration on every hit, so it never goes stale either.

Invalidation is purely structural: change any input and the key changes,
so a stale entry can never be returned — it is simply never looked up
again.  Old entries are inert files; delete the cache directory (or any
subset of it) at any time to reclaim space.  A bump of
:data:`CACHE_SCHEMA_VERSION` orphans every existing entry, which is how
format changes are rolled out.

Values are stored as small JSON documents (one file per layer, sharded by
key prefix to keep directories shallow), so caches are portable and
inspectable with standard tools.  Corrupt or truncated files, and valid
JSON of the wrong shape, are treated as misses.  Every store is an atomic
``os.replace`` of a content-addressed, idempotent value, so any number of
processes may share one cache directory: concurrent writers of a key
write the same bytes, and a reader sees either no file or a whole one.

The same directory also stores **training traces**, one ``.trace`` file
per :class:`~repro.training.tracing.TrainingTrace`, so a cache dir spares
later runs the training as well as the simulation.  A trace depends only
on how it was trained, so :func:`trace_key` hashes the training
parameters, :data:`TRACE_FORMAT_VERSION`, the numpy version and the
source bytes of the packages that train (:data:`TRACE_SOURCE_PACKAGES`):
editing any of that code orphans every stored trace with no version to
bump by hand.  A trace file is a one-line JSON header (layer fields and
mask shapes) followed by the masks as ``np.packbits`` bytes; it is never
unpickled, and a file whose shapes do not add up to its payload is a
miss before anything is unpacked.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

#: Bump to invalidate every existing cache entry after a format change.
#: Version 3 stores only the compute part of a layer result, keyed by
#: :func:`compute_fingerprint`; traffic, stalls and the bound verdict are
#: recomputed on every hit.
CACHE_SCHEMA_VERSION = 3

#: Bump to orphan every stored training trace after a change to the
#: trace file layout (code changes to training need no bump: see
#: :data:`TRACE_SOURCE_PACKAGES`).
TRACE_FORMAT_VERSION = 1

#: Subpackages of ``repro`` whose code decides what a training run
#: traces; their source bytes are part of every trace key.
TRACE_SOURCE_PACKAGES = ("nn", "models", "training", "pruning")

#: The ``repro`` package directory the traced sources are read from.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: ``LayerTrace`` fields stored as packed bits after the header; every
#: other field is stored in the header.
_MASK_FIELDS = ("weight_mask", "activation_mask", "output_gradient_mask")


def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def _update_mask(digest, name: str, mask: Optional[np.ndarray]) -> None:
    digest.update(name.encode())
    if mask is None:
        digest.update(b"<none>")
        return
    arr = np.ascontiguousarray(mask, dtype=bool)
    digest.update(str(arr.shape).encode())
    digest.update(arr.tobytes())


def compute_fingerprint(simulator) -> str:
    """Fingerprint of everything besides the trace that a layer's compute
    part depends on: the schema version and the
    :attr:`~repro.simulation.cycle_sim.LayerSimulator.compute_inputs` of
    the simulator that computes it."""
    digest = _hasher()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}|{simulator.compute_inputs!r}".encode())
    return digest.hexdigest()


def trace_fingerprint(trace) -> str:
    """Fingerprint of one :class:`~repro.training.tracing.LayerTrace`."""
    digest = _hasher()
    digest.update(
        f"{trace.layer_name}|{trace.layer_type}|k{trace.kernel}"
        f"|s{trace.stride}|p{trace.padding}|m{trace.macs}".encode()
    )
    _update_mask(digest, "W", trace.weight_mask)
    _update_mask(digest, "A", trace.activation_mask)
    _update_mask(digest, "G", trace.output_gradient_mask)
    return digest.hexdigest()


def layer_key(compute_fp: str, trace_fp: str) -> str:
    """Content address of one layer's compute part."""
    digest = _hasher()
    digest.update(f"{compute_fp}|{trace_fp}".encode())
    return digest.hexdigest()


def trace_key(
    model: str, *, seed: int, epochs: int, batches_per_epoch: int,
    batch_size: int, trace_max_batch: Optional[int], learning_rate: float,
) -> str:
    """Content address of one training run's :class:`TrainingTrace`."""
    digest = _hasher()
    digest.update(json.dumps({
        "format": TRACE_FORMAT_VERSION, "numpy": np.__version__,
        "model": model, "seed": seed, "epochs": epochs,
        "batches_per_epoch": batches_per_epoch, "batch_size": batch_size,
        "trace_max_batch": trace_max_batch, "learning_rate": learning_rate,
    }, sort_keys=True).encode())
    for package in TRACE_SOURCE_PACKAGES:
        for path in sorted((_PACKAGE_ROOT / package).rglob("*.py")):
            source = path.read_bytes()
            name = path.relative_to(_PACKAGE_ROOT).as_posix()
            digest.update(f"|{name}|{len(source)}|".encode())
            digest.update(source)
    return digest.hexdigest()


def _compute_to_payload(compute) -> dict:
    return {
        "version": CACHE_SCHEMA_VERSION,
        "operations": {
            name: {
                "baseline_cycles": int(op.baseline_cycles),
                "tensordash_cycles": int(op.tensordash_cycles),
                "macs_total": int(op.macs_total),
                "macs_effectual": int(op.macs_effectual),
            }
            for name, op in compute.items()
        },
    }


def _payload_to_compute(payload):
    from repro.core.accelerator import OperationResult

    if not isinstance(payload, dict) or payload.get("version") != CACHE_SCHEMA_VERSION:
        return None
    if not isinstance(payload.get("operations"), dict):
        return None
    return {
        name: OperationResult(name=name, **op)
        for name, op in payload["operations"].items()
    }


def _trace_to_bytes(trace) -> bytes:
    """One trace file: a JSON header line, then every mask's packed bits."""
    packed: List[bytes] = []
    epochs = []
    for epoch in trace.epochs:
        layers = []
        for layer in epoch.layers:
            doc: Dict[str, object] = {
                f.name: getattr(layer, f.name)
                for f in fields(layer) if f.name not in _MASK_FIELDS
            }
            shapes: Dict[str, Optional[List[int]]] = {}
            for name in _MASK_FIELDS:
                mask = getattr(layer, name)
                shapes[name] = None if mask is None else list(mask.shape)
                if mask is not None:
                    packed.append(np.packbits(mask, axis=None).tobytes())
            doc["masks"] = shapes
            layers.append(doc)
        epochs.append({"epoch": epoch.epoch, "layers": layers})
    header = {"version": TRACE_FORMAT_VERSION, "model_name": trace.model_name,
              "epochs": epochs}
    return json.dumps(header).encode() + b"\n" + b"".join(packed)


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(
        type(dim) is int and dim >= 0 for dim in shape
    )


def _trace_from_bytes(data: bytes):
    """Rebuild a trace file's :class:`TrainingTrace`, or ``None``.

    Every mask shape is checked, and the packed sizes must add up to the
    payload exactly, before anything is unpacked, so a torn or forged
    header can neither mis-slice the payload nor size an allocation.
    """
    from repro.training.tracing import EpochTrace, LayerTrace, TrainingTrace

    head, newline, payload = data.partition(b"\n")
    header = json.loads(head) if newline else None
    if not isinstance(header, dict) or header.get("version") != TRACE_FORMAT_VERSION:
        return None
    docs = [(epoch["epoch"], epoch["layers"]) for epoch in header["epochs"]]
    shapes = [doc["masks"][name] for _, layers in docs for doc in layers
              for name in _MASK_FIELDS]
    if not all(shape is None or _is_shape(shape) for shape in shapes):
        return None
    sizes = [math.prod(shape) for shape in shapes if shape is not None]
    if sum((size + 7) // 8 for size in sizes) != len(payload):
        return None
    trace = TrainingTrace(model_name=header["model_name"])
    offset = 0
    for number, layers in docs:
        epoch = EpochTrace(epoch=number)
        for doc in layers:
            masks = {}
            for name in _MASK_FIELDS:
                shape = doc["masks"][name]
                if shape is None:
                    masks[name] = None
                    continue
                size = math.prod(shape)
                packed = np.frombuffer(
                    payload, dtype=np.uint8, count=(size + 7) // 8, offset=offset
                )
                offset += packed.size
                masks[name] = np.unpackbits(packed, count=size).view(bool).reshape(shape)
            epoch.layers.append(LayerTrace(
                **{key: value for key, value in doc.items() if key != "masks"},
                **masks,
            ))
        trace.epochs.append(epoch)
    return trace


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``path`` whole or not at all: temp file, then ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """One directory of content-addressed per-layer compute parts and
    training traces."""

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise NotADirectoryError(
                f"cache directory {self.cache_dir} exists but is not a directory"
            ) from exc

    def path_for(self, key: str) -> Path:
        """File backing a cache key (sharded by the first two hex chars)."""
        return self.cache_dir / key[:2] / f"{key}.json"

    def load(self, key: str):
        """The cached compute part
        (:data:`~repro.simulation.cycle_sim.LayerCompute`) for ``key``, or
        ``None`` on miss.

        Unreadable, schema-mismatched or wrongly shaped files are
        misses, never errors.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            return _payload_to_compute(payload)
        except (KeyError, TypeError):
            return None

    def store(self, key: str, compute) -> None:
        """Persist one layer's compute part (atomic rename, last writer wins)."""
        payload = json.dumps(_compute_to_payload(compute))
        write_atomic(self.path_for(key), payload.encode())

    def load_trace(self, key: str):
        """The stored :class:`TrainingTrace` for a :func:`trace_key`, or
        ``None``: a missing, torn or wrongly shaped file is a miss."""
        try:
            with open(self.path_for(key).with_suffix(".trace"), "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        try:
            return _trace_from_bytes(data)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    def store_trace(self, key: str, trace) -> None:
        """Persist one training trace (atomic rename, last writer wins)."""
        write_atomic(self.path_for(key).with_suffix(".trace"), _trace_to_bytes(trace))

    def __len__(self) -> int:
        """Stored compute parts (training traces are not counted)."""
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

