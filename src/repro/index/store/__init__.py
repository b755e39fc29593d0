"""The index store: segments, tombstones, compaction.

One representation — immutable RIS1 segment images
(:mod:`repro.index.store.segment`, which alone knows the posting
vocabulary, the payload encodings and the candidate algorithm) —
composed into the delta-maintainable :class:`SegmentedIndex`
(:mod:`repro.index.store.segmented`).  An index lives where it was
created: ``SegmentedIndex.create/build`` with a directory writes
mmap-able segment files there (``SegmentedIndex.open`` maps them
back); with none, the same segments stay in the process.
"""

from __future__ import annotations

from repro.errors import IndexFormatError
from repro.index.store.segment import (
    Segment,
    encode_segment,
    splitter_fingerprint,
    text_digest,
    write_segment,
)
from repro.index.store.segmented import MANIFEST_NAME, SegmentedIndex

__all__ = [
    "IndexFormatError",
    "MANIFEST_NAME",
    "Segment",
    "SegmentedIndex",
    "encode_segment",
    "splitter_fingerprint",
    "text_digest",
    "write_segment",
]
