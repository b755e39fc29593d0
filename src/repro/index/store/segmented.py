"""The :class:`SegmentedIndex`: many immutable segments, one index.

The index over a corpus's distinct chunk texts — the candidate-mask
contract (``candidates``/``text_id``/``version``/``splitter``) the
:class:`repro.index.filter.IndexFilter` binds to — is a list of
:class:`repro.index.store.segment.Segment` images.  Where the index
was created decides where they live: with a *directory*, each segment
is a memory-mapped file beside a small JSON manifest; with none, each
is a byte image resident in this process and nothing touches disk.
Everything else is the same code.  Text ids are global — segment
*k*'s local ids are offset by the number of texts in segments before
it — so the candidate bitmask is simply the OR of per-segment masks
shifted to their bases.

A text resolves to its global id (:meth:`text_id`) through the *digest
map*, one ``dict`` from sha1 digest to global id over every flushed
text, filled from the segments' digest tables.  It is built on the
first lookup, so :meth:`open` stays header-only; a flush adds only the
new segment's rows (ids of earlier segments never move while segments
are only appended), and :meth:`compact`, :meth:`refresh` and
:meth:`close` drop it.  A lookup is one probe plus one byte comparison
against the stored text, however many delta segments an edit history
left.  It costs one 20-byte key and one ``int`` per distinct text —
the same order as the filter memo's text keys — and, holding only
bytes and ints, it is never tracked by the cyclic garbage collector.

Mutation follows the LSM discipline:

* **segments are immutable** — once encoded, a segment is only ever
  read or dropped (a segment file: mapped or unlinked);
* **additions** stage in memory and flush as a fresh *delta* segment
  (:meth:`flush`; bulk builds flush once per shard, document edits
  once per edit);
* **removals** are *tombstones*: a set of text digests recorded in the
  manifest.  Tombstones never touch candidate masks — clearing a bit
  claims "provably no match", which retirement cannot prove — they
  only make :meth:`text_id` answer ``None`` so retired texts fall back
  to the (sound) exact scan, and they make :meth:`compact` drop the
  payload;
* **compaction** (:meth:`compact`) merges every segment minus
  tombstoned texts into one fresh segment and unlinks the old files.
  POSIX unlink semantics keep concurrently mapped readers alive: an
  index opened before a compact keeps serving its old generation until
  it calls :meth:`refresh`.

Document-level delta maintenance (:meth:`update_document`) keeps
each document's chunk digests plus per-digest reference counts; an
edit stages only the chunk texts the edit introduced and tombstones
the ones whose last reference dropped — re-indexing cost proportional
to the edit, the Wikipedia-revision scenario of the paper applied to
the index itself.  In a directory that *document table* is two files,
so that persisting it costs the edit too:

* ``documents.json`` is a **snapshot**, ``{"documents": {doc_id:
  [digest hex, ...]}, "refcounts": {digest hex: n}}``, written whole
  only by :meth:`compact`;
* ``documents.log`` is a **journal** beside it: every :meth:`save`
  that changed the table appends one fsync'd JSON line with just the
  records and refcounts changed since the previous line, as *absolute*
  values — ``null`` for a removed document, ``0`` for a dropped
  refcount.

Loading (lazily, on the first mutation) reads the snapshot and replays
the journal line by line; a line sets keys, so replaying it twice
gives the same table.  A crash mid-append leaves a final line without
its newline: its save never returned, so replay drops it and cuts it
off the file.  Any other line that does not parse is an
:class:`IndexFormatError`, never skipped.  :meth:`compact` journals
anything pending, renames the full snapshot into place and only then
unlinks the journal; a crash in between leaves lines whose last value
for every key is the snapshot's, so their replay changes nothing.
Directories written before the journal existed have none and open as
they always did.  A memory index keeps the table in this process and
tracks nothing extra.

Pickling is by *path*: workers receive ``(open, (directory,))`` and
re-map the segment files themselves, so posting payloads cross process
boundaries through the page cache, never through pickle (a memory-
resident index has no path and refuses to pickle).
"""

from __future__ import annotations

import contextlib
import json
import os
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import IndexFormatError
from repro.index.factors import FactorSet
from repro.index.store.segment import (
    Segment,
    encode_segment,
    splitter_fingerprint,
    text_digest,
    write_segment,
)
from repro.obs.metrics import kernel_metrics

MANIFEST_NAME = "MANIFEST.json"
DOCUMENTS_NAME = "documents.json"
JOURNAL_NAME = "documents.log"
MANIFEST_FORMAT = "repro-segmented-index"
MANIFEST_VERSION = 1


def _encode_json(payload: Dict[str, object]) -> bytes:
    # One-shot dumps takes the C encoder; json.dump to a file never does.
    return json.dumps(payload, ensure_ascii=False,
                      sort_keys=True).encode("utf-8")


def _atomic_write_json(path: str, payload: Dict[str, object]) -> None:
    temp = path + ".tmp"
    with open(temp, "wb") as handle:
        handle.write(_encode_json(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


class _Journal:
    """The document table's journal (``documents.log``, see the module
    docstring): the keys changed since its last line, and the appends
    and replays of its lines."""

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, JOURNAL_NAME)
        #: doc ids / digest hexes changed since the last line.
        self.documents: Set[str] = set()
        self.refcounts: Set[str] = set()

    def replay(self, records: Dict[str, List[str]],
               counts: Dict[str, int]) -> None:
        """Apply every complete line to ``records``/``counts``, and cut
        off a torn tail (only a writer loads the table, so the next
        append starts a fresh line)."""
        try:
            with open(self.path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return
        end = data.rfind(b"\n") + 1
        if end < len(data):
            os.truncate(self.path, end)
        for number, line in enumerate(data[:end].split(b"\n")[:-1], 1):
            try:
                change = json.loads(line)
                for doc_id, record in change["documents"].items():
                    if record is None:
                        records.pop(doc_id, None)
                    else:
                        records[doc_id] = record
                for hexed, count in change["refcounts"].items():
                    if count:
                        counts[hexed] = int(count)
                    else:
                        counts.pop(hexed, None)
            except (ValueError, TypeError, KeyError,
                    AttributeError) as error:
                raise IndexFormatError(
                    f"unreadable documents journal line {number} "
                    f"({error})", path=self.path,
                ) from error

    def append(self, records: Dict[str, List[str]],
               counts: Dict[str, int]) -> None:
        """Persist the changed keys' current values as one fsync'd
        line (nothing when no key changed)."""
        if not self.documents and not self.refcounts:
            return
        line = _encode_json({
            "documents": {doc_id: records.get(doc_id)
                          for doc_id in self.documents},
            "refcounts": {hexed: counts.get(hexed, 0)
                          for hexed in self.refcounts},
        })
        with open(self.path, "ab") as handle:
            handle.write(line + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        self.documents.clear()
        self.refcounts.clear()

    def remove(self) -> None:
        """Drop the journal once a snapshot holds all of it."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)


def _chunk_texts(splitter, text: str) -> List[str]:
    """``text``'s chunks under anything with ``chunks(text)`` (a
    fluent :class:`repro.query.Splitter`, a fast splitter) or a unary
    VSet-automaton."""
    if hasattr(splitter, "chunks"):
        return list(splitter.chunks(text))
    from repro.runtime.executor import splitter_spans

    return [span.extract(text)
            for span in splitter_spans(splitter, text)]


class SegmentedIndex:
    """Index segments with delta updates, in a directory or in memory.

    Construct via :meth:`create` (new, empty), :meth:`open` (existing
    directory), or :meth:`build` (index a corpus).  With a directory,
    all mutators persist before returning — the directory on disk is
    always a complete, openable index; with ``directory=None`` the
    same segments stay in this process.
    """

    def __init__(
        self,
        directory: Optional[str],
        splitter: Optional[str] = None,
        _from_factory: bool = False,
    ) -> None:
        if not _from_factory:
            raise TypeError(
                "use SegmentedIndex.create/open/build, not the "
                "constructor"
            )
        self.directory = directory
        self.splitter = splitter
        self.version = 0
        self.generation = 0
        self.documents = 0
        self.chunk_instances = 0
        self.shards_indexed = 0
        self._segments: List[Segment] = []
        self._segment_names: List[str] = []
        self._bases: List[int] = []
        self._next_segment = 1
        #: Staged (not yet flushed) distinct texts by digest,
        #: insertion-ordered; never also in a segment.
        self._staged: Dict[bytes, str] = {}
        #: sha1 digests of retired texts (never prunes masks; see
        #: module docstring).
        self._tombstones: Set[bytes] = set()
        #: The digest map: sha1 digest -> global id of every flushed
        #: text, built on the first lookup (see the module docstring).
        self._digest_ids: Optional[Dict[bytes, int]] = None
        #: doc_id -> per-instance digest hexes; digest hex -> document
        #: reference count.  Loaded lazily from snapshot + journal (a
        #: memory index has neither: they live here only).
        self._doc_records: Optional[Dict[str, List[str]]] = None
        self._refcounts: Optional[Dict[str, int]] = None
        self._journal = (None if directory is None
                         else _Journal(directory))
        self._autoflush = True

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls, directory: Optional[str] = None,
        splitter: Optional[str] = None,
    ) -> "SegmentedIndex":
        """A new, empty index: in ``directory`` (which must not
        already hold a manifest), or in memory when it is ``None``."""
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            manifest = os.path.join(directory, MANIFEST_NAME)
            if os.path.exists(manifest):
                raise IndexFormatError(
                    "directory already holds an index (open it "
                    "instead)", path=directory,
                )
            # Orphans of a manifest-less directory would replay into
            # the new, empty document table.
            for name in (DOCUMENTS_NAME, JOURNAL_NAME):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(os.path.join(directory, name))
        index = cls(directory, splitter=splitter, _from_factory=True)
        index._doc_records = {}
        index._refcounts = {}
        index._write_manifest()
        return index

    @classmethod
    def open(cls, directory: str) -> "SegmentedIndex":
        """Map an existing index directory (header-only parsing; cost
        is independent of index size)."""
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            raise IndexFormatError(
                "no index manifest (not an index directory)",
                path=directory,
            ) from None
        except ValueError as error:
            raise IndexFormatError(
                f"unreadable index manifest ({error})", path=manifest_path
            ) from error
        if (not isinstance(manifest, dict)
                or manifest.get("format") != MANIFEST_FORMAT):
            raise IndexFormatError(
                "not a segmented-index manifest", path=manifest_path
            )
        if manifest.get("version") != MANIFEST_VERSION:
            raise IndexFormatError(
                "unsupported segmented-index version "
                f"{manifest.get('version')!r}", path=manifest_path,
            )
        index = cls(directory, splitter=manifest.get("splitter"),
                    _from_factory=True)
        index._load_manifest(manifest)
        metrics = kernel_metrics()
        metrics.counter("index.opens").inc()
        metrics.counter("index.segments_mapped").inc(
            len(index._segments)
        )
        metrics.counter("index.mapped_bytes").inc(
            sum(segment.nbytes for segment in index._segments)
        )
        return index

    @classmethod
    def build(
        cls,
        corpus,
        splitter,
        directory: Optional[str] = None,
        name: Optional[str] = None,
        num_shards: int = 1,
    ) -> "SegmentedIndex":
        """Index every chunk of ``corpus`` under ``splitter``, into
        ``directory`` or (``None``) in memory.

        ``corpus`` is a :class:`repro.engine.Corpus` (or anything its
        constructor helpers accept).  With ``num_shards > 1`` the
        corpus is partitioned deterministically and each shard flushes
        its own segment — the loop a cluster of indexers would
        distribute — so the index records the build's parallel
        structure and :meth:`compact` can later fold it flat.
        """
        from repro.engine.engine import _as_corpus

        corpus = _as_corpus(corpus)
        index = cls.create(
            directory,
            splitter=name or getattr(splitter, "name", None),
        )
        if num_shards <= 1:
            index.add_shard(corpus, splitter)
        else:
            for shard in corpus.shards(num_shards):
                index.add_shard(shard, splitter)
        return index

    def _load_manifest(self, manifest: Dict[str, object]) -> None:
        self.generation = int(manifest.get("generation", 0))
        self.documents = int(manifest.get("documents", 0))
        self.chunk_instances = int(manifest.get("chunk_instances", 0))
        self.shards_indexed = int(manifest.get("shards_indexed", 0))
        self._next_segment = int(manifest.get("next_segment", 1))
        self._tombstones = {
            bytes.fromhex(entry)
            for entry in manifest.get("tombstones", [])
        }
        expected = splitter_fingerprint(self.splitter)
        segments: List[Segment] = []
        names: List[str] = []
        try:
            for name in manifest.get("segments", []):
                segment = Segment(os.path.join(self.directory, name))
                if segment.fingerprint != expected:
                    segment.close()
                    raise IndexFormatError(
                        f"segment {name} was built under splitter "
                        f"fingerprint {segment.fingerprint}, manifest "
                        f"expects {expected}", path=self.directory,
                    )
                segments.append(segment)
                names.append(name)
        except Exception:
            for segment in segments:
                segment.close()
            raise
        self._segments = segments
        self._segment_names = names
        self._recompute_bases()
        self._digest_ids = None
        self.version += 1

    def _recompute_bases(self) -> None:
        self._bases = []
        base = 0
        for segment in self._segments:
            self._bases.append(base)
            base += len(segment)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _write_manifest(self) -> None:
        if self.directory is None:
            return
        _atomic_write_json(
            os.path.join(self.directory, MANIFEST_NAME),
            {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "generation": self.generation,
                "splitter": self.splitter,
                "splitter_fingerprint":
                    splitter_fingerprint(self.splitter),
                "documents": self.documents,
                "chunk_instances": self.chunk_instances,
                "shards_indexed": self.shards_indexed,
                "segments": list(self._segment_names),
                "next_segment": self._next_segment,
                "tombstones": sorted(
                    digest.hex() for digest in self._tombstones
                ),
            },
        )

    def _load_documents(self) -> None:
        if self._doc_records is not None:
            return
        path = os.path.join(self.directory, DOCUMENTS_NAME)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            payload = {}
        except ValueError as error:
            raise IndexFormatError(
                f"unreadable documents snapshot ({error})", path=path
            ) from error
        records = dict(payload.get("documents", {}))
        counts = {
            key: int(value)
            for key, value in payload.get("refcounts", {}).items()
        }
        self._journal.replay(records, counts)
        self._doc_records = records
        self._refcounts = counts

    def _write_snapshot(self) -> None:
        """Fold the journal into a full ``documents.json`` (compaction
        only; see the module docstring for the crash cases)."""
        if self.directory is None:
            return
        if self._doc_records is None:
            if not os.path.exists(self._journal.path):
                return  # the snapshot on disk is the whole table
            self._load_documents()
        self._journal.append(self._doc_records, self._refcounts)
        _atomic_write_json(
            os.path.join(self.directory, DOCUMENTS_NAME),
            {"documents": self._doc_records,
             "refcounts": self._refcounts},
        )
        self._journal.remove()

    def save(self) -> None:
        """Flush staged texts, then persist the manifest once and the
        document table's changes as one journal line (a memory index
        only flushes)."""
        self._flush_staged()
        if self.directory is None:
            return
        self._write_manifest()
        self._journal.append(self._doc_records, self._refcounts)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def batch(self):
        """Context manager suspending per-mutation persistence: all
        mutations inside stage together and flush as **one** segment
        (with one manifest write) on exit — the bulk-build and
        single-edit-delta discipline."""
        previous, self._autoflush = self._autoflush, False
        try:
            yield self
        finally:
            self._autoflush = previous
        if self._autoflush:
            self.save()

    def add_shard(self, corpus, splitter) -> int:
        """Index one corpus shard as one segment; returns how many live
        distinct texts it added (texts it revived count, texts an edit
        inside it retired are subtracted)."""
        before = len(self)
        with self.batch():
            for document in corpus:
                self.add_document(
                    _chunk_texts(splitter, document.text),
                    doc_id=getattr(document, "doc_id", None),
                )
            self.shards_indexed += 1
        return len(self) - before

    def add_document(
        self, chunk_texts: Iterable[str], doc_id: Optional[str] = None
    ) -> None:
        """Index one document's chunk texts.

        With a ``doc_id`` the document is *tracked*: a later
        :meth:`update_document` or :meth:`remove_document` with the
        same id maintains the index by delta.
        """
        texts = list(chunk_texts)
        self._load_documents()
        if doc_id is not None and doc_id in self._doc_records:
            self.update_document(doc_id, texts)
            return
        self.documents += 1
        self.chunk_instances += len(texts)
        hexes: List[str] = []
        for text in texts:
            hexes.append(self._reference(text))
        if doc_id is not None:
            self._doc_records[doc_id] = hexes
            if self._journal is not None:
                self._journal.documents.add(doc_id)
        self.version += 1
        if self._autoflush:
            self.save()

    def _reference(self, text: str) -> str:
        """Count one document reference to ``text``, staging it if the
        index has never (or no longer) stored it.  Returns the digest
        hex."""
        digest = text_digest(text)
        hexed = digest.hex()
        counts = self._refcounts
        counts[hexed] = counts.get(hexed, 0) + 1
        if self._journal is not None:
            self._journal.refcounts.add(hexed)
        if digest in self._tombstones:
            # The payload is still in some segment; retiring is undone
            # by dropping the tombstone, no re-indexing needed.
            self._tombstones.discard(digest)
            self.version += 1
        elif (digest not in self._staged
                and self._flushed_id(text, digest) is None):
            self._staged[digest] = text
            self.version += 1
        return hexed

    def update_document(
        self, doc_id: str, chunk_texts: Iterable[str]
    ) -> Dict[str, int]:
        """Re-index one document after an edit, by delta.

        Diffs the new chunk digests against the recorded ones: only
        introduced texts are staged (flushed as a delta segment),
        texts whose last document reference disappeared are
        tombstoned.  Returns ``{"added": n, "removed": n}`` distinct-
        text counts (both 0 for a no-op edit).
        """
        texts = list(chunk_texts)
        self._load_documents()
        record = self._doc_records.get(doc_id)
        if record is None:
            self.add_document(texts, doc_id=doc_id)
            return {"added": len(set(texts)), "removed": 0}
        old_distinct = set(record)
        hexes = [text_digest(text).hex() for text in texts]
        new_hexes = dict(zip(hexes, texts))
        added = [hexed for hexed in new_hexes if hexed not in old_distinct]
        removed = [hexed for hexed in old_distinct if hexed not in new_hexes]
        for hexed in added:
            self._reference(new_hexes[hexed])
        for hexed in removed:
            self._release(hexed)
        self.chunk_instances += len(texts) - len(record)
        self._doc_records[doc_id] = hexes
        if self._journal is not None:
            self._journal.documents.add(doc_id)
        self.version += 1
        if self._autoflush:
            self.save()
        return {"added": len(added), "removed": len(removed)}

    def _release(self, hexed: str) -> bool:
        """Drop one document reference; returns whether it was the
        last (the text is retired)."""
        counts = self._refcounts
        remaining = counts.get(hexed, 0) - 1
        if self._journal is not None:
            self._journal.refcounts.add(hexed)
        if remaining > 0:
            counts[hexed] = remaining
            return False
        counts.pop(hexed, None)
        digest = bytes.fromhex(hexed)
        # Last reference gone: retire.  A staged text is in no segment
        # yet, so it is simply un-staged; a flushed one gets a
        # tombstone — only ever backed by a segment payload, which is
        # what lets _reference undo it without re-indexing.
        if self._staged.pop(digest, None) is None:
            self._tombstones.add(digest)
        self.version += 1
        return True

    def remove_document(self, doc_id: str) -> int:
        """Forget a tracked document; returns distinct texts retired."""
        self._load_documents()
        record = self._doc_records.pop(doc_id, None)
        if record is None:
            raise KeyError(doc_id)
        if self._journal is not None:
            self._journal.documents.add(doc_id)
        retired = sum(self._release(hexed) for hexed in set(record))
        self.documents -= 1
        self.chunk_instances -= len(record)
        self.version += 1
        if self._autoflush:
            self.save()
        return retired

    def _seal(
        self, texts: Iterable[str]
    ) -> Tuple[str, Segment, Dict[str, object]]:
        """Encode ``texts`` as the next segment — a file mapped from
        the directory, or an image resident in this process.  Returns
        its name, the readable segment and the encoder's summary."""
        name = f"segment-{self._next_segment:06d}.ris"
        self._next_segment += 1
        if self.directory is None:
            source, summary = encode_segment(texts,
                                             splitter=self.splitter)
        else:
            source = os.path.join(self.directory, name)
            summary = write_segment(source, texts,
                                    splitter=self.splitter)
        return name, Segment(source), summary

    def flush(self) -> Optional[str]:
        """Seal staged texts as one fresh (delta) segment and persist
        the manifest; returns the new segment's name, or ``None`` if
        nothing was staged."""
        name = self._flush_staged()
        if name is not None:
            self._write_manifest()
        return name

    def _flush_staged(self) -> Optional[str]:
        """:meth:`flush` without the manifest write (:meth:`save`
        writes it once, after)."""
        if not self._staged:
            return None
        name, segment, _summary = self._seal(self._staged.values())
        self._staged.clear()
        self._segments.append(segment)
        self._segment_names.append(name)
        self._recompute_bases()
        if self._digest_ids is not None:
            self._map_digests(self._digest_ids, segment, self._bases[-1])
        self.generation += 1
        self.version += 1
        return name

    def compact(self) -> Dict[str, int]:
        """Merge all segments, dropping tombstoned texts, into one.

        Old segment files are unlinked after the new manifest lands;
        readers that mapped them before the compact keep working (the
        inode lives until their last close) and pick up the new
        generation on :meth:`refresh`.  In a directory the document
        table is folded too: a full ``documents.json`` snapshot, then
        no journal.  Returns a summary dict.
        """
        self.flush()
        before_segments = len(self._segments)
        before_tombstones = len(self._tombstones)

        def _live_texts() -> Iterator[str]:
            seen: Set[bytes] = set(self._tombstones)
            for segment in self._segments:
                for tid in range(len(segment)):
                    raw = segment.text_bytes(tid)
                    digest = text_digest(raw.decode("utf-8"))
                    if digest in seen:
                        continue
                    seen.add(digest)
                    yield raw.decode("utf-8")

        name, merged, summary = self._seal(_live_texts())
        old_segments = self._segments
        old_names = self._segment_names
        self._segments = [merged]
        self._segment_names = [name]
        self._recompute_bases()
        self._digest_ids = None
        self._tombstones.clear()
        self.generation += 1
        self.version += 1
        self._write_manifest()
        self._write_snapshot()
        for segment, old_name in zip(old_segments, old_names):
            segment.close()
            if self.directory is not None:
                try:
                    os.unlink(os.path.join(self.directory, old_name))
                except FileNotFoundError:
                    pass
        kernel_metrics().counter("index.compactions").inc()
        from repro.obs.log import event_log

        event_log().emit(
            "index.compact", directory=self.directory,
            segments_merged=before_segments,
            tombstones_dropped=before_tombstones,
            texts=summary["texts"], bytes=summary["bytes"],
            generation=self.generation,
        )
        return {
            "segments_merged": before_segments,
            "tombstones_dropped": before_tombstones,
            "texts": summary["texts"],
            "bytes": summary["bytes"],
        }

    def refresh(self) -> bool:
        """Re-open if the directory advanced to a new generation
        (another process flushed or compacted).  Returns whether
        anything changed; the index keeps serving throughout.  A
        memory index has no other writer: nothing ever changes."""
        if self.directory is None:
            return False
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (FileNotFoundError, ValueError):
            return False
        if int(manifest.get("generation", 0)) == self.generation:
            return False
        old_segments = self._segments
        self._segments = []
        self._segment_names = []
        self.splitter = manifest.get("splitter")
        self._load_manifest(manifest)
        self._doc_records = None
        self._refcounts = None
        for segment in old_segments:
            segment.close()
        from repro.obs.log import event_log

        event_log().emit(
            "index.refresh", directory=self.directory,
            generation=self.generation,
            segments=len(self._segments),
        )
        return True

    # ------------------------------------------------------------------
    # Queries (the IndexFilter contract)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Live distinct texts: flushed ones minus the tombstoned (each
        tombstone retires one flushed payload), plus staged ones."""
        return (sum(len(segment) for segment in self._segments)
                - len(self._tombstones) + len(self._staged))

    def __contains__(self, text: str) -> bool:
        return self.text_id(text) is not None

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def tombstone_count(self) -> int:
        return len(self._tombstones)

    @staticmethod
    def _map_digests(ids: Dict[bytes, int], segment: Segment,
                     base: int) -> None:
        ids.update({digest: base + local
                    for digest, local in segment.digest_rows()})

    def _flushed_id(self, text: str, digest: bytes) -> Optional[int]:
        """Global id of flushed ``text`` (``digest`` is its digest), or
        ``None``: one digest-map probe, then one byte comparison with
        the text stored under that id, so a digest alias never
        answers."""
        ids = self._digest_ids
        if ids is None:
            ids = self._digest_ids = {}
            for segment, base in zip(self._segments, self._bases):
                self._map_digests(ids, segment, base)
        tid = ids.get(digest)
        if tid is None:
            return None
        position = bisect_right(self._bases, tid) - 1
        stored = self._segments[position].text_bytes(
            tid - self._bases[position])
        return tid if stored == text.encode("utf-8") else None

    def text_id(self, text: str) -> Optional[int]:
        """Global id of an indexed chunk text, or ``None``.

        Tombstoned and merely-staged texts answer ``None``: the filter
        then scans them exactly, which is sound regardless of what the
        masks say about other texts.  A retired text keeps its payload
        (and so its id) until :meth:`compact`:

        >>> index = SegmentedIndex.create()
        >>> index.add_document(["ab qz", "cd"], doc_id="d")
        >>> index.text_id("cd")
        1
        >>> index.update_document("d", ["ab qz"])
        {'added': 0, 'removed': 1}
        >>> index.text_id("cd") is None
        True
        >>> index.update_document("d", ["ab qz", "cd"])
        {'added': 1, 'removed': 0}
        >>> index.text_id("cd")
        1
        >>> index.text_id("never seen") is None
        True
        """
        digest = text_digest(text)
        if digest in self._tombstones:
            return None
        return self._flushed_id(text, digest)

    def candidates(self, factors: FactorSet) -> Optional[int]:
        """Global candidate bitmask: :meth:`Segment.candidates` per
        segment, shifted to the segment's base and OR-ed."""
        if not self._segments:
            return None
        masks: List[Optional[int]] = [
            segment.candidates(factors) for segment in self._segments
        ]
        if all(mask is None for mask in masks):
            return None
        combined = 0
        for segment, base, mask in zip(self._segments, self._bases,
                                       masks):
            if mask is None:
                # This segment had no answerable condition (e.g. its
                # every text passes the length bound): admit it whole.
                mask = (1 << len(segment)) - 1
            combined |= mask << base
        return combined

    def texts(self) -> Iterator[str]:
        """Every queryable (non-tombstoned, flushed) text, in global
        id order."""
        for segment in self._segments:
            for tid in range(len(segment)):
                text = segment.text(tid)
                if text_digest(text) not in self._tombstones:
                    yield text

    def describe(self) -> Dict[str, object]:
        """Summary counters (the CLI's build/compact report)."""
        return {
            "splitter": self.splitter,
            "directory": self.directory,
            "generation": self.generation,
            "documents": self.documents,
            "chunk_instances": self.chunk_instances,
            "distinct_texts": len(self),
            "segments": self.segment_count,
            "tombstones": len(self._tombstones),
            "staged_texts": len(self._staged),
            "shards_indexed": self.shards_indexed,
            "mapped_bytes": sum(
                segment.nbytes for segment in self._segments
            ),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Unmap every segment (idempotent; queries then see an empty
        index)."""
        for segment in self._segments:
            segment.close()
        self._segments = []
        self._segment_names = []
        self._bases = []
        self._digest_ids = None
        self._tombstones = set()
        self.version += 1

    def __enter__(self) -> "SegmentedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __reduce__(self) -> Tuple[object, Tuple[str]]:
        # Pickle as a path: workers re-map the segments through the
        # page cache instead of receiving serialized postings.
        if self.directory is None:
            raise TypeError(
                "a memory-resident SegmentedIndex cannot be pickled "
                "(it has no directory to re-open)"
            )
        return (SegmentedIndex.open, (self.directory,))

    def __repr__(self) -> str:
        return (f"SegmentedIndex({self.directory or '<memory>'!r}, "
                f"{self.segment_count} segments, {len(self)} texts, "
                f"generation={self.generation})")
