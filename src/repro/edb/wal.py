"""Append-only write-ahead log with CRC-framed records.

The durable EDB (:mod:`repro.edb.store`) writes every committed
transaction here *before* applying it in memory, so a crash at any
instant loses at most the transaction being written — never a committed
one, and never the store's integrity.

Format
------
The log is a directory of segment files named ``wal-%08d.seg``.  A
segment is a concatenation of records; each record is::

    <length: uint32 LE> <crc32: uint32 LE> <payload: length bytes>

where ``payload`` is compact UTF-8 JSON and ``crc32`` is
``zlib.crc32(payload)``.  Writers append frames and ``fsync`` on
commit; nothing is ever rewritten in place.

Recovery invariants
-------------------
On open the segments are scanned in name order:

* every segment but the last must parse cleanly to exact end-of-file —
  anything else is damage a crash cannot explain and raises
  :class:`~repro.util.errors.WalCorruptError` (the store refuses to
  open rather than silently drop committed records);
* the *last* segment may end in a torn write: an incomplete frame at
  end-of-file, or a final frame whose CRC fails.  The tail is truncated
  back to the last valid record boundary (the classic ARIES-style torn
  tail rule) and the byte count is reported so the store can surface it
  in its ``edb.recover`` event;
* a CRC failure *followed by more bytes* in the last segment is again
  :class:`~repro.util.errors.WalCorruptError` — a torn write can only
  damage the tail.

Fault sites (:mod:`repro.runtime.faults`): ``wal_append`` before a
frame reaches the file, ``wal_fsync`` before durability, ``wal_rotate``
between sealing a segment and creating the next.  Each site is placed
so an injected fault loses whole records only, which is exactly what
the chaos tests assert.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from repro.util import hooks
from repro.util.errors import WalCorruptError, WalError
from repro.util.files import fsync_directory

_HEADER = struct.Struct("<II")

#: Default segment-size threshold (bytes) past which ``append``
#: rotates to a fresh segment before writing.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_FORMAT = "wal-%08d.seg"
_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


def _segment_index(name):
    """The integer index of a segment file name, or None."""
    if not (name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)):
        return None
    body = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    if not body.isdigit():
        return None
    return int(body)


def _scan_segment(path, allow_torn_tail):
    """Parse one segment; return ``(records, truncate_at)``.

    ``truncate_at`` is None when the segment is clean, else the byte
    offset the torn tail should be cut back to (only ever non-None when
    ``allow_torn_tail``).  Raises :class:`WalCorruptError` for damage
    that is not a torn tail.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    records = []
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _HEADER.size > total:
            if allow_torn_tail:
                return records, offset
            raise WalCorruptError(
                "truncated record header in sealed segment", path=path, offset=offset
            )
        length, crc = _HEADER.unpack_from(blob, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            if allow_torn_tail:
                return records, offset
            raise WalCorruptError(
                "truncated record payload in sealed segment", path=path, offset=offset
            )
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            if allow_torn_tail and end == total:
                # A final frame with a bad checksum is a torn write.
                return records, offset
            raise WalCorruptError("record checksum mismatch", path=path, offset=offset)
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            # The CRC matched, so these bytes were written intact:
            # undecodable JSON is writer corruption, never a torn tail.
            raise WalCorruptError(
                "record payload is not valid JSON: %s" % exc, path=path, offset=offset
            ) from exc
        records.append(record)
        offset = end
    return records, None


class Wal:
    """One write-ahead log directory, opened for appending.

    Opening performs recovery (torn-tail truncation) and leaves the
    instance positioned to append to the newest segment; the scan's
    findings are exposed as :attr:`recovered_records` /
    :attr:`truncated_bytes` for the store's ``edb.recover`` event.
    """

    def __init__(self, root, segment_bytes=DEFAULT_SEGMENT_BYTES):
        self.root = root
        self.segment_bytes = segment_bytes
        os.makedirs(root, exist_ok=True)
        self.recovered_records = 0
        self.truncated_bytes = 0
        indices = self.segment_indices()
        if not indices:
            self._tail_index = 1
            self._handle = None
            self._create_tail()
            return
        for index in indices[:-1]:
            records, _ = _scan_segment(self._segment_path(index), False)
            self.recovered_records += len(records)
        tail = indices[-1]
        tail_path = self._segment_path(tail)
        records, truncate_at = _scan_segment(tail_path, True)
        self.recovered_records += len(records)
        if truncate_at is not None:
            size = os.path.getsize(tail_path)
            self.truncated_bytes = size - truncate_at
            with open(tail_path, "r+b") as handle:
                handle.truncate(truncate_at)
                handle.flush()
                os.fsync(handle.fileno())
        self._tail_index = tail
        self._handle = open(tail_path, "ab", buffering=0)

    # -- segment bookkeeping ----------------------------------------------

    def _segment_path(self, index):
        return os.path.join(self.root, _SEGMENT_FORMAT % index)

    def segment_indices(self):
        """Sorted indices of the segment files currently on disk."""
        found = []
        for name in os.listdir(self.root):
            index = _segment_index(name)
            if index is not None:
                found.append(index)
        return sorted(found)

    def _create_tail(self):
        path = self._segment_path(self._tail_index)
        # Unbuffered: a frame reaches the OS at write time, so an
        # abandoned handle (crash simulation, or a poisoned store that
        # is later garbage-collected) can never flush stale buffered
        # bytes behind a reopened log's back.
        self._handle = open(path, "ab", buffering=0)
        fsync_directory(self.root)

    @property
    def tail_index(self):
        """Index of the segment new records are appended to."""
        return self._tail_index

    # -- writing -----------------------------------------------------------

    def append(self, record):
        """Frame ``record`` (a JSON-serializable dict) and append it.

        Not durable until :meth:`sync` returns.  Rotates first when the
        tail segment has outgrown ``segment_bytes``.
        """
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if self._handle.tell() >= self.segment_bytes:
            self.rotate()
        hooks.fault_point("wal_append")
        self._handle.write(frame)
        return len(frame)

    def sync(self):
        """Make every appended record durable (flush + fsync)."""
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        hooks.fault_point("wal_fsync")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def rotate(self):
        """Seal the tail segment and start appending to a fresh one.

        The old segment is fsync'd before the new one exists, so a
        crash between the two steps loses no records — recovery simply
        finds one fewer (or one empty) segment.
        """
        if self._handle is None:
            raise WalError("write-ahead log is closed")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        self._handle = None
        hooks.fault_point("wal_rotate")
        self._tail_index += 1
        self._create_tail()
        return self._tail_index

    def close(self):
        """Seal the log; further appends raise :class:`WalError`."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    # -- reading -----------------------------------------------------------

    def records(self):
        """Yield every record across all segments in log order.

        Assumes open-time recovery already ran (it did — in
        ``__init__``); damage found now still raises
        :class:`WalCorruptError` rather than yielding garbage.
        """
        if self._handle is not None:
            self._handle.flush()
        indices = self.segment_indices()
        for position, index in enumerate(indices):
            allow_torn = position == len(indices) - 1
            records, truncate_at = _scan_segment(self._segment_path(index), allow_torn)
            for record in records:
                yield record
            if truncate_at is not None:
                raise WalCorruptError(
                    "torn tail reappeared after recovery",
                    path=self._segment_path(index),
                    offset=truncate_at,
                )

    def drop_segments_before(self, index):
        """Delete sealed segments with indices strictly below ``index``
        (checkpoint pruning).  The tail segment is never dropped."""
        removed = []
        for found in self.segment_indices():
            if found < index and found != self._tail_index:
                os.unlink(self._segment_path(found))
                removed.append(found)
        if removed:
            fsync_directory(self.root)
        return removed
