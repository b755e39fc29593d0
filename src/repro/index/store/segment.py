"""One immutable index segment: the only posting representation.

A segment is the unit of the index (:mod:`repro.index.store`): the
postings of one batch of distinct chunk texts, encoded once
(:func:`encode_segment`) into a self-contained byte image and from
then on only ever *read in place* — :class:`Segment` wraps the image,
parses a fixed-size header, and answers every query by binary search
and slice arithmetic over it.  The image either stays in the process
that encoded it (a memory-resident index) or is written to a file
(:func:`write_segment`, atomic via a temp-file ``os.replace``) that
:class:`Segment` maps read-only through :mod:`mmap`.  Opening a file
costs a handful of page faults regardless of segment size; nothing is
parsed, decompressed or copied up front, so a multi-GB index is usable
in milliseconds and any number of processes opening the same file
share its pages through the OS page cache.

This module is the one place that knows the posting vocabulary
(:func:`grams_of`), the payload encodings and the candidate algorithm
(:meth:`Segment.candidates`).

Image layout (all integers little-endian)::

    magic 'RIS1' | u32 format version | u32 meta length | meta JSON
    TOC:  u32 text count N
          u64 offset of text-offsets block     ((N+1) x u64)
          u64 offset of text-lengths block     (N x u32, char lengths)
          u64 offset of digest table           (N x (20B sha1 + u32 id))
          u32 gram count G
          u64 offset of gram-offsets block     ((G+1) x u64)
          u64 offset of gram entries           (G x (u8 tag, u64, u32))
          u64 offset of short-text bitmap      (ceil(N/8) bytes)
          u64 total image size (truncation check)
    blocks ... text blob | gram blob | posting payloads

*Texts* are stored UTF-8, sorted by their encoded bytes, so the same
texts always encode to the same image; a text's local id is its
sorted position.  Lookups by text go through the *digest table*, one
``(sha1(text), local id)`` row per text sorted by digest
(:meth:`Segment.digest_rows`): the owning
:class:`repro.index.store.SegmentedIndex` reads every segment's rows
once into one digest map, so resolving a text costs one dict probe and
one :meth:`Segment.text_bytes` read for the byte-equality check, and
tombstones — which carry digests, not texts — resolve without
decoding anything.  *Grams* are the sorted
1..3-gram dictionary; each entry names its posting payload's encoding:
a fixed-width **bitmap** over local ids, or a **delta-varint** id
list, chosen per gram by whichever is smaller (dense grams get the
bitmap, rare ones the list — the density split of the Google Code
Search trigram index).  The meta JSON records the producing splitter
and its fingerprint, so an index directory can refuse segments built
under a different chunking.

Payload access is zero-copy up to the final ``int`` conversion: the
reader slices :class:`memoryview`\\ s of the image and materializes
a posting only when a query first touches its gram (memoized).  All
public return values own their bytes, so :meth:`Segment.close` can
always release the image.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import operator
import os
import struct
from array import array
from collections import defaultdict
from functools import partial
from itertools import chain
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.errors import IndexFormatError
from repro.index.factors import GRAM, FactorSet

MAGIC = b"RIS1"
FORMAT_VERSION = 1

_PREAMBLE = struct.Struct("<4sII")          # magic, version, meta length
_TOC = struct.Struct("<IQQQIQQQQ")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_DIGEST = struct.Struct("<20sI")            # sha1, local id
_GRAM_ENTRY = struct.Struct("<BQI")         # tag, payload offset, length

#: Posting payload encodings.
TAG_BITMAP = 1
TAG_VARINT = 2


def grams_of(text: str) -> Set[str]:
    """The distinct 1..``GRAM``-grams of a chunk text: the posting
    vocabulary, exactly the grams :meth:`Segment.candidates` queries."""
    grams = set(text)
    run: Sequence[str] = text
    for size in range(2, GRAM + 1):
        # Every size-gram is the (size-1)-gram at the same start plus
        # the character after it.
        run = list(map(operator.add, run, text[size - 1:]))
        grams.update(run)
    return grams


def text_digest(text: str) -> bytes:
    """The 20-byte identity of a chunk text (sha1 of its UTF-8)."""
    return hashlib.sha1(text.encode("utf-8")).digest()


def splitter_fingerprint(name: Optional[str]) -> str:
    """Stable hex fingerprint of a splitter name (``-`` for none)."""
    if not name:
        return "-"
    return hashlib.sha1(name.encode("utf-8")).hexdigest()[:16]


def _encode_varints(values: Iterable[int]) -> bytes:
    """LEB128, back to back: 7 bits per byte, high bit = more follow."""
    out = bytearray()
    append = out.append
    for value in values:
        while value > 0x7F:
            append(value & 0x7F | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def _decode_varints(raw) -> List[int]:
    values: List[int] = []
    current = 0
    shift = 0
    for byte in raw:
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(current)
            current = 0
            shift = 0
    return values


def _ids_to_bitmap_bytes(ids: Sequence[int], count: int) -> bytes:
    raw = bytearray((count + 7) // 8)
    for tid in ids:
        raw[tid >> 3] |= 1 << (tid & 7)
    return bytes(raw)


# ----------------------------------------------------------------------
# Encoding and writing
# ----------------------------------------------------------------------


def encode_segment(
    texts: Iterable[str],
    splitter: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Tuple[bytes, Dict[str, object]]:
    """Encode one segment for ``texts`` (deduplicated); returns the
    image and a summary dict (texts, grams, bytes, encodings chosen).
    Pure: the same texts, splitter and meta give the same bytes."""
    encoded = sorted({text.encode("utf-8") for text in texts})
    decoded = [raw.decode("utf-8") for raw in encoded]
    count = len(decoded)

    postings: Dict[str, array] = defaultdict(partial(array, "I"))
    short_ids: List[int] = []
    for tid, text in enumerate(decoded):
        for gram in grams_of(text):
            postings[gram].append(tid)
        if len(text) < GRAM:
            short_ids.append(tid)

    grams = sorted(postings)
    gram_blob_parts: List[bytes] = []
    gram_offsets: List[int] = [0]
    for gram in grams:
        raw = gram.encode("utf-8")
        gram_blob_parts.append(raw)
        gram_offsets.append(gram_offsets[-1] + len(raw))
    gram_blob = b"".join(gram_blob_parts)

    bitmap_size = (count + 7) // 8
    payloads: List[Tuple[int, bytes]] = []
    bitmaps = varints = 0
    for gram in grams:
        ids = postings[gram]
        # The smaller encoding wins.  A varint is at least one byte,
        # so a posting with more ids than the bitmap has bytes need
        # not be varint-encoded to know the bitmap is smaller.
        varint_payload = None
        if len(ids) <= bitmap_size:
            varint_payload = _encode_varints(
                chain(ids[:1], map(operator.sub, ids[1:], ids))
            )
        if varint_payload is None or bitmap_size < len(varint_payload):
            payloads.append(
                (TAG_BITMAP, _ids_to_bitmap_bytes(ids, count))
            )
            bitmaps += 1
        else:
            payloads.append((TAG_VARINT, varint_payload))
            varints += 1

    meta_payload = dict(meta or {})
    meta_payload.setdefault("splitter", splitter)
    meta_payload["splitter_fingerprint"] = splitter_fingerprint(
        meta_payload.get("splitter")
    )
    meta_raw = json.dumps(meta_payload, ensure_ascii=False,
                          sort_keys=True).encode("utf-8")

    # Lay the blocks out back to back and resolve absolute offsets.
    offset = _PREAMBLE.size + len(meta_raw) + _TOC.size
    off_text_offsets = offset
    offset += (count + 1) * _U64.size
    off_text_lengths = offset
    offset += count * _U32.size
    off_digests = offset
    offset += count * _DIGEST.size
    off_gram_offsets = offset
    offset += (len(grams) + 1) * _U64.size
    off_gram_entries = offset
    offset += len(grams) * _GRAM_ENTRY.size
    off_short = offset
    offset += bitmap_size
    off_text_blob = offset
    offset += sum(len(raw) for raw in encoded)
    off_gram_blob = offset
    offset += len(gram_blob)
    off_payloads = offset
    payload_entries: List[bytes] = []
    for tag, payload in payloads:
        payload_entries.append(
            _GRAM_ENTRY.pack(tag, offset, len(payload))
        )
        offset += len(payload)
    total_size = offset

    digest_rows = sorted(
        (hashlib.sha1(raw).digest(), tid)
        for tid, raw in enumerate(encoded)
    )

    parts: List[bytes] = [
        _PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(meta_raw)),
        meta_raw,
        _TOC.pack(count, off_text_offsets, off_text_lengths,
                  off_digests, len(grams), off_gram_offsets,
                  off_gram_entries, off_short, total_size),
    ]
    text_offsets = [off_text_blob]
    for raw in encoded:
        text_offsets.append(text_offsets[-1] + len(raw))
    parts.append(b"".join(_U64.pack(value) for value in text_offsets))
    parts.append(b"".join(_U32.pack(len(text)) for text in decoded))
    parts.append(b"".join(_DIGEST.pack(digest, tid)
                          for digest, tid in digest_rows))
    parts.append(b"".join(_U64.pack(off_gram_blob + value)
                          for value in gram_offsets))
    parts.append(b"".join(payload_entries))
    parts.append(_ids_to_bitmap_bytes(short_ids, count))
    parts.extend(encoded)
    parts.append(gram_blob)
    parts.extend(payload for _tag, payload in payloads)

    image = b"".join(parts)
    assert len(image) == total_size
    return image, {
        "texts": count,
        "grams": len(grams),
        "bytes": total_size,
        "bitmap_postings": bitmaps,
        "varint_postings": varints,
    }


def write_segment(
    path: str,
    texts: Iterable[str],
    splitter: Optional[str] = None,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Encode one segment for ``texts`` and write it to ``path``;
    returns :func:`encode_segment`'s summary plus the ``path``.

    The write is **atomic**: everything lands in ``path + '.tmp'``,
    is fsynced, and only then renamed over ``path`` — a crash leaves
    either the old file or no file, never a torn segment.
    """
    image, summary = encode_segment(texts, splitter=splitter, meta=meta)
    temp = path + ".tmp"
    with open(temp, "wb") as handle:
        handle.write(image)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    summary["path"] = path
    return summary


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------


class Segment:
    """A read-only view of one segment image.

    ``source`` is a file path (mapped read-only through :mod:`mmap`)
    or a bytes-like image already in memory; both go through the same
    header checks.  Construction parses ~100 bytes of header; every
    other structure is touched lazily.  Posting masks are memoized as
    Python ints per gram once a query needs them.  Instances are not
    thread-safe for concurrent first-touch of the same gram (the
    engine's dispatcher-thread ownership makes that moot); closing
    releases the image, after which queries raise ``ValueError``.
    """

    def __init__(self, source: Union[str, bytes]) -> None:
        #: The mapped file, or ``None`` for a memory-resident image.
        self.path = path = source if isinstance(source, str) else None
        self._mmap: Optional[mmap.mmap] = None
        image = source
        if path is not None:
            try:
                with open(path, "rb") as handle:
                    image = self._mmap = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
            except ValueError as error:  # zero-length file cannot be mapped
                raise IndexFormatError(
                    f"not an index segment ({error})", path=path
                ) from error
        view = memoryview(image)
        try:
            if len(view) < _PREAMBLE.size:
                raise IndexFormatError("truncated segment header",
                                       path=path)
            magic, version, meta_length = _PREAMBLE.unpack_from(view, 0)
            if magic != MAGIC:
                raise IndexFormatError(
                    f"bad magic {magic!r} (not an index segment)",
                    path=path,
                )
            if version != FORMAT_VERSION:
                raise IndexFormatError(
                    f"unsupported segment format version {version}",
                    path=path,
                )
            toc_start = _PREAMBLE.size + meta_length
            if len(view) < toc_start + _TOC.size:
                raise IndexFormatError("truncated segment TOC",
                                       path=path)
            self.meta: Dict[str, object] = json.loads(
                bytes(view[_PREAMBLE.size:toc_start]).decode("utf-8")
            )
            (self._count, self._off_text_offsets,
             self._off_text_lengths, self._off_digests,
             self._gram_count, self._off_gram_offsets,
             self._off_gram_entries, self._off_short,
             total_size) = _TOC.unpack_from(view, toc_start)
            if total_size != len(view):
                raise IndexFormatError(
                    f"segment size mismatch (header says {total_size} "
                    f"bytes, image has {len(view)})", path=path,
                )
        except Exception:
            view.release()
            if self._mmap is not None:
                self._mmap.close()
            raise
        self._view = view
        self._masks: Dict[str, Optional[int]] = {}
        self._short_mask: Optional[int] = None
        self._length_masks: Dict[int, int] = {}

    # -- identity ------------------------------------------------------

    @property
    def splitter(self) -> Optional[str]:
        return self.meta.get("splitter")

    @property
    def fingerprint(self) -> str:
        return str(self.meta.get("splitter_fingerprint", "-"))

    def __len__(self) -> int:
        return self._count

    @property
    def nbytes(self) -> int:
        return len(self._view)

    # -- text access ---------------------------------------------------

    def _text_bounds(self, tid: int) -> Tuple[int, int]:
        base = self._off_text_offsets + tid * _U64.size
        start = _U64.unpack_from(self._view, base)[0]
        end = _U64.unpack_from(self._view, base + _U64.size)[0]
        return start, end

    def text_bytes(self, tid: int) -> bytes:
        """The UTF-8 bytes of local text ``tid`` (owned copy)."""
        start, end = self._text_bounds(tid)
        return bytes(self._view[start:end])

    def text(self, tid: int) -> str:
        return self.text_bytes(tid).decode("utf-8")

    def texts(self) -> Iterable[str]:
        """Every indexed text, in local-id order (lazy)."""
        return (self.text(tid) for tid in range(self._count))

    def text_length(self, tid: int) -> int:
        """Character length of text ``tid`` (no decode)."""
        return _U32.unpack_from(
            self._view, self._off_text_lengths + tid * _U32.size
        )[0]

    def digest_rows(self) -> Iterator[Tuple[bytes, int]]:
        """Every ``(sha1 digest, local id)`` row of the digest table,
        in digest order (the digests are owned copies)."""
        start = self._off_digests
        return _DIGEST.iter_unpack(
            self._view[start:start + self._count * _DIGEST.size]
        )

    # -- postings ------------------------------------------------------

    def _gram_bounds(self, gid: int) -> Tuple[int, int]:
        base = self._off_gram_offsets + gid * _U64.size
        start = _U64.unpack_from(self._view, base)[0]
        end = _U64.unpack_from(self._view, base + _U64.size)[0]
        return start, end

    def _find_gram(self, gram: str) -> Optional[int]:
        needle = gram.encode("utf-8")
        low, high = 0, self._gram_count
        while low < high:
            mid = (low + high) // 2
            start, end = self._gram_bounds(mid)
            probe = bytes(self._view[start:end])
            if probe < needle:
                low = mid + 1
            elif probe > needle:
                high = mid
            else:
                return mid
        return None

    def posting_mask(self, gram: str) -> int:
        """Bitmask over local ids of texts containing ``gram``.

        Decoded from the mapped payload on first touch (bitmap: one
        ``int.from_bytes``; varint: a delta walk), then memoized.
        """
        mask = self._masks.get(gram)
        if mask is None:
            gid = self._find_gram(gram)
            if gid is None:
                mask = 0
            else:
                entry = self._off_gram_entries + gid * _GRAM_ENTRY.size
                tag, offset, length = _GRAM_ENTRY.unpack_from(
                    self._view, entry
                )
                payload = self._view[offset:offset + length]
                if tag == TAG_BITMAP:
                    mask = int.from_bytes(bytes(payload), "little")
                elif tag == TAG_VARINT:
                    mask = 0
                    tid = 0
                    for index, delta in enumerate(
                        _decode_varints(payload)
                    ):
                        tid = delta if index == 0 else tid + delta
                        mask |= 1 << tid
                else:
                    raise IndexFormatError(
                        f"unknown posting encoding tag {tag}",
                        path=self.path,
                    )
            self._masks[gram] = mask
        return mask

    @property
    def short_mask(self) -> int:
        """Texts shorter than the gram width (trigram-OR exemption)."""
        if self._short_mask is None:
            size = (self._count + 7) // 8
            self._short_mask = int.from_bytes(
                bytes(self._view[self._off_short:self._off_short + size]),
                "little",
            )
        return self._short_mask

    def length_mask(self, min_length: int) -> int:
        """Bitmask of texts with at least ``min_length`` characters."""
        mask = self._length_masks.get(min_length)
        if mask is None:
            lengths = self._view[
                self._off_text_lengths:
                self._off_text_lengths + self._count * _U32.size
            ].cast("I")
            raw = bytearray((self._count + 7) // 8)
            for tid in range(self._count):
                if lengths[tid] >= min_length:
                    raw[tid >> 3] |= 1 << (tid & 7)
            lengths.release()
            mask = int.from_bytes(bytes(raw), "little")
            self._length_masks[min_length] = mask
        return mask

    def candidates(self, factors: FactorSet) -> Optional[int]:
        """Bitmask over local ids of texts that *could* satisfy
        ``factors``.

        Sound over-approximation: a clear bit proves the text fails a
        necessary condition; a set bit still needs the exact per-text
        scan (a required factor of length <= 3 *is* a gram, a longer
        one is approximated by intersecting its trigrams' postings;
        the trigram OR-set admits every text shorter than 3
        characters, which has no trigrams).  Returns ``None`` when no
        condition is answerable from postings (the filter then runs
        in pure scan mode)."""
        count = self._count
        if count == 0:
            return None
        if factors.empty:
            return 0
        everything = (1 << count) - 1
        mask = everything
        useful = False
        for factor in factors.required:
            if len(factor) <= GRAM:
                mask &= self.posting_mask(factor)
            else:
                approximation = everything
                for start in range(len(factor) - GRAM + 1):
                    approximation &= self.posting_mask(
                        factor[start:start + GRAM]
                    )
                mask &= approximation
            useful = True
        if factors.trigrams is not None:
            union = self.short_mask
            for trigram in factors.trigrams:
                union |= self.posting_mask(trigram)
            mask &= union
            useful = True
        if factors.min_length > 0:
            length_mask = self.length_mask(factors.min_length)
            if length_mask != everything:
                mask &= length_mask
                useful = True
        return mask if useful else None

    # -- lifecycle -----------------------------------------------------

    def verify(self) -> None:
        """Full decode pass; raises :class:`IndexFormatError` on any
        internally inconsistent structure (used by tests and
        compaction, never on the open path)."""
        previous = b""
        for tid in range(self._count):
            raw = self.text_bytes(tid)
            if tid and raw <= previous:
                raise IndexFormatError(
                    f"text order violation at id {tid}", path=self.path
                )
            if len(raw.decode("utf-8")) != self.text_length(tid):
                raise IndexFormatError(
                    f"length table mismatch at id {tid}", path=self.path
                )
            previous = raw

    def close(self) -> None:
        """Release the image (idempotent)."""
        view = self.__dict__.get("_view")
        if view is not None:
            self._masks.clear()
            self._length_masks.clear()
            view.release()
            self._view = None  # type: ignore[assignment]
        mapping = self.__dict__.get("_mmap")
        if mapping is not None and not mapping.closed:
            mapping.close()

    @property
    def closed(self) -> bool:
        return self.__dict__.get("_view") is None

    def __enter__(self) -> "Segment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort unmap
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self._count} texts"
        name = os.path.basename(self.path) if self.path else "<memory>"
        return f"Segment({name!r}, {state})"
