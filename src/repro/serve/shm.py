"""Shared-memory batch transport: zero-copy numpy arrays across processes.

The process-parallel gateway encodes a batch **once**
(:meth:`repro.api.Endpoint.encode_requests`) and must hand the resulting
arrays to a worker process without re-serializing them per request —
pickling a formed batch through a pipe would cost more than the forward
pass it parallelizes.  The transport here is the classic manifest scheme:

* array *bytes* live in a ``multiprocessing.shared_memory`` segment;
* a tiny *manifest* (segment name + per-array key/dtype/shape/offset)
  travels over the control pipe;
* the receiver maps the same segment and rebuilds ``np.ndarray`` views
  directly over the shared buffer — no copy on either side of the fence.

Segments are **gateway-owned and reused**: one request arena and one
response arena per worker slot, grown geometrically by recreating the
segment under a fresh name (the manifest names the segment per message,
so readers re-attach exactly when the name changes).  Ownership in one
process makes cleanup trivial — ``close()`` unlinks everything the
gateway ever created, even segments a crashed worker was attached to, so
a stopped pool leaves nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np
from multiprocessing import resource_tracker, shared_memory

from repro.errors import ServeError

# All segment names carry this prefix: the leak check in
# tests/serve/test_worker_pool.py diffs /dev/shm against it.
NAME_PREFIX = "repro-serve"

# Array starts are cache-line aligned within a segment.
_ALIGN = 64

_FIELD_SEP = "\x1f"  # joins structured keys ("payload<SEP>field")

# Held while an attach has tracker registration switched off, and while
# an owner creates a segment, so a creation on another thread of the
# same process can never slip through unregistered.
_TRACKER_LOCK = threading.Lock()

_BATCH_FIELDS = ("ids", "mask", "member_ids", "spans", "member_mask", "features")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def required_bytes(arrays: Sequence[tuple[str, np.ndarray]]) -> int:
    """Segment capacity needed to hold ``arrays`` with alignment padding."""
    offset = 0
    for _, array in arrays:
        offset = _aligned(offset) + array.nbytes
    return offset


def write_arrays(
    buf, arrays: Sequence[tuple[str, np.ndarray]]
) -> list[tuple[str, str, tuple, int]]:
    """Copy arrays into ``buf``; returns manifest entries.

    Raises :class:`~repro.errors.ServeError` if the buffer is too small —
    the caller decides whether to grow the segment (owner side) or fall
    back to inline transport (worker side).
    """
    entries: list[tuple[str, str, tuple, int]] = []
    offset = 0
    capacity = len(buf)
    for key, array in arrays:
        array = np.ascontiguousarray(array)
        offset = _aligned(offset)
        end = offset + array.nbytes
        if end > capacity:
            raise ServeError(
                f"shared segment too small: need {required_bytes(arrays)} "
                f"bytes, have {capacity}"
            )
        if array.nbytes:
            buf[offset:end] = array.tobytes()
        entries.append((key, array.dtype.str, tuple(array.shape), offset))
        offset = end
    return entries


def read_arrays(
    buf, entries: Sequence[tuple[str, str, tuple, int]]
) -> dict[str, np.ndarray]:
    """Zero-copy views over a segment buffer, keyed by manifest entry.

    The views alias the shared buffer: copy anything that must outlive
    the segment (or the next request reusing it).
    """
    return {
        key: np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        for key, dtype, shape, offset in entries
    }


def _untracked_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    CPython before 3.13 registers every ``SharedMemory`` with the
    resource tracker — even attach-only handles — which would unlink (or
    warn about) segments this process never owned.  Registering and
    taking it back is not free either: a worker forked before the
    gateway's tracker exists launches a tracker *process* of its own for
    that one message — an interpreter spawned per worker in the middle
    of warm-up, and one more to tear down at stop.  So registration is
    switched off for the length of the attach (what 3.13 spells
    ``track=False``); the creating process is the sole unlinker.
    """
    with _TRACKER_LOCK:
        register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:
        # A numpy view still aliases the buffer; the mapping is released
        # when the view dies (or at process exit).  Never fatal.
        pass


class ShmArena:
    """One owner-side, resizable shared segment for packing array sets.

    ``pack`` writes an array set and returns the manifest to ship;
    ``ensure`` grows capacity geometrically by recreating the segment
    under a new name (``<tag>-<seq>``), which readers detect from the
    manifest's segment name.  The owner is the only unlinker.
    """

    def __init__(self, tag: str, min_bytes: int = 1 << 16) -> None:
        self._tag = f"{NAME_PREFIX}-{os.getpid()}-{tag}"
        self._seq = 0
        self._min_bytes = max(min_bytes, _ALIGN)
        self._segment: shared_memory.SharedMemory | None = None

    @property
    def name(self) -> str | None:
        return self._segment.name if self._segment is not None else None

    @property
    def capacity(self) -> int:
        return self._segment.size if self._segment is not None else 0

    @property
    def buf(self):
        if self._segment is None:
            raise ServeError(f"arena {self._tag!r} is closed")
        return self._segment.buf

    def ensure(self, nbytes: int) -> None:
        """Guarantee capacity; growth recreates the segment, new name."""
        if self._segment is not None and self._segment.size >= nbytes:
            return
        size = max(self._min_bytes, self.capacity or self._min_bytes)
        while size < nbytes:
            size *= 2
        self._unlink_current()
        self._seq += 1
        with _TRACKER_LOCK:
            self._segment = shared_memory.SharedMemory(
                name=f"{self._tag}-{self._seq}", create=True, size=size
            )

    def pack(self, arrays: Sequence[tuple[str, np.ndarray]]) -> dict:
        """Write an array set; returns the manifest for the control pipe."""
        arrays = [(key, np.ascontiguousarray(a)) for key, a in arrays]
        self.ensure(required_bytes(arrays) or _ALIGN)
        entries = write_arrays(self._segment.buf, arrays)
        return {
            "segment": self._segment.name,
            "capacity": self._segment.size,
            "entries": entries,
        }

    def _unlink_current(self) -> None:
        if self._segment is None:
            return
        _close_segment(self._segment)
        try:
            self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._segment = None

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        self._unlink_current()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class SegmentCache:
    """Reader-side attachments, keyed by segment name, re-attach on rename.

    An arena's segment name only changes when the owner grows it, so the
    cache closes the stale attachment for the same arena tag (everything
    before the trailing sequence number) when a new name shows up.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    @staticmethod
    def _arena_tag(name: str) -> str:
        return name.rsplit("-", 1)[0]

    def buf(self, name: str):
        """The mapped buffer for ``name``, attaching (and pruning) as needed."""
        segment = self._segments.get(name)
        if segment is None:
            tag = self._arena_tag(name)
            for stale in [n for n in self._segments if self._arena_tag(n) == tag]:
                _close_segment(self._segments.pop(stale))
            segment = self._segments[name] = _untracked_attach(name)
        return segment.buf

    def view(self, manifest: dict) -> dict[str, np.ndarray]:
        """Zero-copy views for one packed manifest."""
        return read_arrays(self.buf(manifest["segment"]), manifest["entries"])

    def close(self) -> None:
        for segment in self._segments.values():
            _close_segment(segment)
        self._segments.clear()


# ----------------------------------------------------------------------
# Batch <-> array-set adapters (the serve-specific key scheme)
# ----------------------------------------------------------------------
def batch_to_arrays(batch) -> tuple[list[tuple[str, np.ndarray]], list[str]]:
    """Flatten a :class:`~repro.data.batching.Batch` into keyed arrays.

    Returns ``(arrays, payload_names)``; names travel separately so
    payloads whose fields are all ``None`` (e.g. an undimensioned
    singleton) survive the round trip.
    """
    arrays: list[tuple[str, np.ndarray]] = [("indices", batch.indices)]
    names = list(batch.payloads)
    for name, inputs in batch.payloads.items():
        for field in _BATCH_FIELDS:
            value = getattr(inputs, field)
            if value is not None:
                arrays.append((f"{name}{_FIELD_SEP}{field}", value))
    return arrays, names


def arrays_to_batch(views: dict[str, np.ndarray], payload_names: Sequence[str]):
    """Rebuild a :class:`~repro.data.batching.Batch` from keyed views."""
    from repro.data.batching import Batch, PayloadInputs

    batch = Batch(indices=views["indices"])
    for name in payload_names:
        batch.payloads[name] = PayloadInputs()
    for key, view in views.items():
        if _FIELD_SEP not in key:
            continue
        name, field = key.split(_FIELD_SEP, 1)
        setattr(batch.payloads[name], field, view)
    return batch


class RawTaskOutput:
    """The slim, cross-process stand-in for a model's per-task output.

    :meth:`Endpoint.finalize_outputs` only touches ``.probs`` and
    ``.predictions``, so that is all a worker ships back — logits and
    extras stay in the worker.  Mutable because constrained decoding
    rewrites ``predictions`` in place.
    """

    __slots__ = ("probs", "predictions")

    def __init__(self, probs=None, predictions=None) -> None:
        self.probs = probs
        self.predictions = predictions


def outputs_to_arrays(outputs: dict) -> list[tuple[str, np.ndarray]]:
    """Flatten ``{task: TaskOutput}`` into the keyed array set to ship."""
    arrays: list[tuple[str, np.ndarray]] = []
    for task, out in outputs.items():
        arrays.append((f"{task}{_FIELD_SEP}probs", np.asarray(out.probs)))
        arrays.append(
            (f"{task}{_FIELD_SEP}predictions", np.asarray(out.predictions))
        )
    return arrays


def arrays_to_outputs(views: dict[str, np.ndarray], copy: bool = True) -> dict:
    """Rebuild ``{task: RawTaskOutput}`` from keyed (view) arrays.

    ``copy=True`` materializes each array out of the shared buffer — the
    gateway copies so the response arena can be reused by the very next
    batch on the same worker slot.
    """
    outputs: dict[str, RawTaskOutput] = {}
    for key, view in views.items():
        task, field = key.split(_FIELD_SEP, 1)
        value = np.array(view, copy=True) if copy else view
        setattr(outputs.setdefault(task, RawTaskOutput()), field, value)
    return outputs
