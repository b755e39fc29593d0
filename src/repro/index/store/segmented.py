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
first lookup, so :meth:`open` maps segment headers only; a flush adds
only the new segment's rows (ids of earlier segments never move while
segments are only appended), and :meth:`compact`, :meth:`refresh` and
:meth:`close` drop it.  A lookup is one probe plus one byte comparison
against the stored text, however many segments flushes left.  It
costs one 20-byte key and one ``int`` per distinct text — the same
order as the filter memo's text keys — and, holding only bytes and
ints, it is never tracked by the cyclic garbage collector.

Mutation follows the LSM discipline (log-structured merge: immutable
segments plus an in-memory *memtable* of recent writes, made durable
by a write-ahead log):

* **segments are immutable** — once encoded, a segment is only ever
  read or dropped (a segment file: mapped or unlinked);
* **additions stage** — the texts an edit introduces are the memtable
  (``describe()["staged_texts"]``).  They count as live (``len``,
  :meth:`texts`, ``in``) but resolve to no id: :meth:`text_id` answers
  ``None`` and the filter decides them by the exact factor check, the
  decision a clear mask bit would give anyway.  Only :meth:`flush` and
  :meth:`compact` seal staged texts into a fresh segment; the bulk
  builds (:meth:`add_shard`, :meth:`build`, ``build_index``) flush once
  per shard, inside their batch, so a build writes each text once.
  There is no size threshold: an edit never seals;
* **removals** are *tombstones*: a set of text digests.  Tombstones
  never touch candidate masks — clearing a bit claims "provably no
  match", which retirement cannot prove — they only make
  :meth:`text_id` answer ``None`` so retired texts fall back to the
  (sound) exact scan, and they make :meth:`compact` drop the payload.
  A staged text that loses its last reference is simply un-staged;
* **compaction** (:meth:`compact`) merges every segment minus
  tombstoned texts, plus the staged texts, into one fresh segment and
  unlinks the old files.
  POSIX unlink semantics keep concurrently mapped readers alive: an
  index opened before a compact keeps serving its old generation until
  it calls :meth:`refresh`.

Document-level delta maintenance (:meth:`update_document`) keeps
each document's chunk digests plus per-digest reference counts; an
edit stages only the chunk texts the edit introduced and retires the
ones whose last reference dropped — re-indexing cost proportional to
the edit, the Wikipedia-revision scenario of the paper applied to the
index itself.  In a directory, everything is **one snapshot and one
log**:

* the *snapshot* is ``MANIFEST.json`` (counters, segment list,
  tombstones) and ``documents.json`` (``{"documents": {doc_id: [digest
  hex, ...]}, "refcounts": {digest hex: n}}``).  Only :meth:`create`
  and :meth:`compact` write them;
* the *log* is ``documents.log``.  Every :meth:`save` that changed
  anything appends **one** fsync'd line, ``<index part> TAB <document
  part> LF``, with absolute values, so replaying a line twice gives
  the same index.  The index part holds the counters (``documents``,
  ``chunk_instances``, ``shards_indexed``, ``generation``,
  ``next_segment``), the texts staged since the last line (``digest
  hex → text``, ``null`` when un-staged), the tombstone changes (``hex
  → true/false``) and, for a :meth:`flush`, the ``segment`` it sealed
  (written, fsync'd and renamed into place first).  The document part
  holds the records and refcounts changed since the last line
  (``null`` for a removed document, ``0`` for a dropped refcount), or
  nothing.  A line without a tab is a document part alone, as every
  line was before the index rode the log.  An edit is thus one append
  and one fsync: no segment, no manifest.

:meth:`open` and :meth:`refresh` read the snapshot and replay the
index parts: a ``segment`` maps that file and un-stages everything
(the flush sealed all of it), then staged texts and tombstones are
set.  Lines whose ``generation`` is below the manifest's were folded
into it by a compaction and are skipped.  Document parts are decoded
only by a *writer's load*, lazily on the first mutation, over
``documents.json``; so opening never decodes the document table.
:meth:`refresh` also notices the log growing and replays only the new
lines.

Crash cases.  A crash mid-append leaves a final line without its
newline: its save never returned, so replay ignores it.  A *reader*
(:meth:`open`, :meth:`refresh`) never modifies the file — the line may
belong to a live writer still appending — while a writer's load cuts
it off, so its next append starts a fresh line.  Any other line that
does not parse is an :class:`IndexFormatError`, never skipped.  A
crash after a flush wrote its segment but before its line leaves an
unnamed file: the texts stay staged and the next flush reuses the
name.  :meth:`compact` journals everything pending, writes the merged
segment, the manifest (at a new generation) and ``documents.json``,
and only then unlinks the log and the old segments; a crash in between
leaves lines whose index parts are below the new generation and whose
document parts repeat the snapshot's values, so their replay changes
nothing.  A memory index follows the same rules and keeps everything
in this process, with no log.

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
#: The counters a manifest and every log line carry, at their values
#: in an empty index.
EMPTY_COUNTERS = {"documents": 0, "chunk_instances": 0,
                  "shards_indexed": 0, "generation": 0, "next_segment": 1}


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
    """The directory's log (``documents.log``, see the module
    docstring): what changed since its last line, the appends, and the
    reads of its complete lines."""

    def __init__(self, directory: str) -> None:
        self.path = os.path.join(directory, JOURNAL_NAME)
        #: Keys changed since the last line: doc ids and digest hexes
        #: of the document table; digests whose staged text or
        #: tombstone changed; the segment a flush sealed.
        self.documents: Set[str] = set()
        self.refcounts: Set[str] = set()
        self.staged: Set[bytes] = set()
        self.tombstones: Set[bytes] = set()
        self.segment: Optional[str] = None
        #: The counters as the snapshot or the last line left them.
        self.counters: Dict[str, int] = {}
        #: ``(inode, bytes)`` of the log as this handle last replayed
        #: or appended to it; ``None`` before there is one.
        self.position: Optional[Tuple[int, int]] = None

    def lines(
        self, offset: int = 0, truncate: bool = False
    ) -> Iterator[Tuple[int, Optional[bytes], Optional[memoryview]]]:
        """``(byte position, index part, document part)`` of each
        complete line from byte ``offset`` on; a part the line does not
        carry is ``None``, and the document part is a view (only a
        writer's load copies it, to decode it).  Leaves
        :attr:`position` after the last complete line.  A final line
        without its newline belongs to a save that has not returned: a
        reader leaves it, a writer's load (``truncate``) cuts it
        off."""
        try:
            with open(self.path, "rb") as handle:
                inode = os.fstat(handle.fileno()).st_ino
                handle.seek(offset)
                data = handle.read()
        except FileNotFoundError:
            return
        view = memoryview(data)
        start = 0
        while True:
            end = data.find(b"\n", start)
            if end < 0:
                break
            tab = data.find(b"\t", start, end)
            if tab < 0:
                yield offset + start, None, view[start:end]
            else:
                yield (offset + start, data[start:tab],
                       view[tab + 1:end] if tab + 1 < end else None)
            start = end + 1
        if truncate and start < len(data):
            os.truncate(self.path, offset + start)
        self.position = (inode, offset + start)

    def pending(self, counters: Dict[str, int]) -> bool:
        return bool(self.documents or self.refcounts or self.staged
                    or self.tombstones or self.segment
                    or counters != self.counters)

    def append(self, index: "SegmentedIndex",
               counters: Dict[str, int]) -> None:
        """Persist everything changed since the last line as one
        fsync'd line."""
        head = dict(
            counters,
            staged={digest.hex(): index._staged.get(digest)
                    for digest in self.staged},
            tombstones={digest.hex(): digest in index._tombstones
                        for digest in self.tombstones},
        )
        if self.segment is not None:
            head["segment"] = self.segment
        line = _encode_json(head) + b"\t"
        if self.documents or self.refcounts:
            records, counts = index._doc_records, index._refcounts
            line += _encode_json({
                "documents": {doc_id: records.get(doc_id)
                              for doc_id in self.documents},
                "refcounts": {hexed: counts.get(hexed, 0)
                              for hexed in self.refcounts},
            })
        with open(self.path, "ab") as handle:
            handle.write(line + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
            stat = os.fstat(handle.fileno())
        self.position = (stat.st_ino, stat.st_size)
        for changed in (self.documents, self.refcounts, self.staged,
                        self.tombstones):
            changed.clear()
        self.segment = None
        self.counters = counters

    def remove(self) -> None:
        """Drop the log once a snapshot holds all of it."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)
        self.position = None


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
    all mutators persist before returning (outside a :meth:`batch`) —
    the directory on disk is always a complete, openable index; with
    ``directory=None`` the same segments stay in this process.
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
        #: The generation of the manifest this handle read or wrote:
        #: log lines below it are folded into the snapshot.
        self._manifest_generation = 0
        self._segments: List[Segment] = []
        self._segment_names: List[str] = []
        self._bases: List[int] = []
        self._next_segment = 1
        #: Staged (not yet sealed) distinct texts by digest — the
        #: memtable, insertion-ordered; never also in a segment.
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
        self._autosave = True

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
        """Map an existing index directory: the manifest, each
        segment's header, and the log's index parts (the document
        table stays on disk until the first mutation)."""
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
        try:
            index._replay_index()
        except Exception:
            index.close()
            raise
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
        corpus is partitioned deterministically and each shard seals
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
        mapped: List[Tuple[str, Segment]] = []
        try:
            for name in manifest.get("segments", []):
                mapped.append((name, self._map_segment(name)))
        except Exception:
            for _name, segment in mapped:
                segment.close()
            raise
        self._set_counters({**EMPTY_COUNTERS, **manifest})
        self._manifest_generation = self.generation
        self._tombstones = {
            bytes.fromhex(entry)
            for entry in manifest.get("tombstones", [])
        }
        self._staged = {}
        self._segments, self._segment_names, self._bases = [], [], []
        self._digest_ids = None
        for name, segment in mapped:
            self._add_segment(name, segment)
        self.version += 1

    def _map_segment(self, name: str) -> Segment:
        segment = Segment(os.path.join(self.directory, name))
        expected = splitter_fingerprint(self.splitter)
        if segment.fingerprint != expected:
            segment.close()
            raise IndexFormatError(
                f"segment {name} was built under splitter fingerprint "
                f"{segment.fingerprint}, manifest expects {expected}",
                path=self.directory,
            )
        return segment

    def _add_segment(self, name: str, segment: Segment) -> None:
        base = (self._bases[-1] + len(self._segments[-1])
                if self._segments else 0)
        self._segments.append(segment)
        self._segment_names.append(name)
        self._bases.append(base)
        if self._digest_ids is not None:
            self._map_digests(self._digest_ids, segment, base)

    def _counters(self) -> Dict[str, int]:
        return {"documents": self.documents,
                "chunk_instances": self.chunk_instances,
                "shards_indexed": self.shards_indexed,
                "generation": self.generation,
                "next_segment": self._next_segment}

    def _set_counters(self, values: Dict[str, object]) -> None:
        self.documents = int(values["documents"])
        self.chunk_instances = int(values["chunk_instances"])
        self.shards_indexed = int(values["shards_indexed"])
        self.generation = int(values["generation"])
        self._next_segment = int(values["next_segment"])

    def _replay_index(self, offset: int = 0) -> bool:
        """Apply the log's index parts from byte ``offset`` on (a
        reader's replay: the file is never modified).  Returns whether
        any complete line was read."""
        journal = self._journal
        for position, head, _tail in journal.lines(offset):
            if head is None:
                continue
            try:
                change = json.loads(head)
                if change["generation"] >= self._manifest_generation:
                    self._apply_index_change(change)
            except IndexFormatError:
                raise
            except (ValueError, TypeError, KeyError,
                    AttributeError) as error:
                raise IndexFormatError(
                    f"unreadable log line at byte {position} ({error})",
                    path=journal.path,
                ) from error
        journal.counters = self._counters()
        return journal.position is not None and journal.position[1] > offset

    def _apply_index_change(self, change: Dict[str, object]) -> None:
        name = change.get("segment")
        if name is not None:
            # The flush sealed every staged text into this segment.
            self._staged.clear()
            self._add_segment(name, self._map_segment(name))
        for hexed, text in change["staged"].items():
            digest = bytes.fromhex(hexed)
            if text is None:
                self._staged.pop(digest, None)
            else:
                self._staged[digest] = text
        for hexed, retired in change["tombstones"].items():
            digest = bytes.fromhex(hexed)
            if retired:
                self._tombstones.add(digest)
            else:
                self._tombstones.discard(digest)
        self._set_counters(change)
        self.version += 1

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _write_manifest(self) -> None:
        """Write the snapshot's manifest (:meth:`create` and
        :meth:`compact` only); the log continues from its counters."""
        if self.directory is None:
            return
        counters = self._counters()
        _atomic_write_json(
            os.path.join(self.directory, MANIFEST_NAME),
            {
                "format": MANIFEST_FORMAT,
                "version": MANIFEST_VERSION,
                "splitter": self.splitter,
                "splitter_fingerprint":
                    splitter_fingerprint(self.splitter),
                **counters,
                "segments": list(self._segment_names),
                "tombstones": sorted(
                    digest.hex() for digest in self._tombstones
                ),
            },
        )
        self._manifest_generation = self.generation
        self._journal.counters = counters

    def _load_documents(self) -> None:
        """The writer's load: the document table from the snapshot and
        every document part of the log (cutting off a torn tail)."""
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
        for position, _head, tail in self._journal.lines(truncate=True):
            if tail is None:
                continue
            try:
                change = json.loads(bytes(tail))
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
                    f"unreadable documents log line at byte {position} "
                    f"({error})", path=self._journal.path,
                ) from error
        self._doc_records = records
        self._refcounts = counts

    def _write_snapshot(self) -> None:
        """Fold the log into a full ``documents.json``, then drop it
        (compaction only, after the manifest; see the module docstring
        for the crash cases)."""
        if self.directory is None:
            return
        if self._doc_records is None:
            if not os.path.exists(self._journal.path):
                return  # the snapshot on disk is the whole table
            self._load_documents()
        _atomic_write_json(
            os.path.join(self.directory, DOCUMENTS_NAME),
            {"documents": self._doc_records,
             "refcounts": self._refcounts},
        )
        self._journal.remove()

    def save(self) -> None:
        """Persist every change since the last save as **one** fsync'd
        log line — no segment, no manifest (see the module docstring).
        Writes nothing when nothing changed, or in memory."""
        journal = self._journal
        if journal is None:
            return
        counters = self._counters()
        if journal.pending(counters):
            self._load_documents()  # a writer's load cuts a torn tail
            journal.append(self, counters)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def batch(self):
        """Context manager suspending per-mutation persistence: all
        mutations inside are saved as **one** log line on exit.  An
        edit stages its texts; a bulk build seals them by calling
        :meth:`flush` inside the batch:

        >>> index = SegmentedIndex.create()
        >>> with index.batch():
        ...     index.add_document(["ab qz", "cd"], doc_id="d")
        ...     sealed = index.flush()
        >>> index.segment_count, index.describe()["staged_texts"]
        (1, 0)
        >>> with index.batch():
        ...     delta = index.update_document("d", ["ab qz", "ef"])
        >>> index.segment_count, index.describe()["staged_texts"]
        (1, 1)
        >>> index.flush()
        'segment-000002.ris'
        >>> index.segment_count, index.describe()["staged_texts"]
        (2, 0)
        """
        previous, self._autosave = self._autosave, False
        try:
            yield self
        finally:
            self._autosave = previous
        if self._autosave:
            self.save()

    def add_shard(self, corpus, splitter) -> int:
        """Index one corpus shard as one sealed segment; returns how
        many live distinct texts it added (texts it revived count,
        texts an edit inside it retired are subtracted)."""
        before = len(self)
        with self.batch():
            for document in corpus:
                self.add_document(
                    _chunk_texts(splitter, document.text),
                    doc_id=getattr(document, "doc_id", None),
                )
            self.shards_indexed += 1
            self.flush()
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
        if self._autosave:
            self.save()

    def _reference(self, text: str) -> str:
        """Count one document reference to ``text``, staging it if the
        index has never (or no longer) stored it.  Returns the digest
        hex."""
        digest = text_digest(text)
        hexed = digest.hex()
        counts = self._refcounts
        counts[hexed] = counts.get(hexed, 0) + 1
        journal = self._journal
        if journal is not None:
            journal.refcounts.add(hexed)
        if digest in self._tombstones:
            # The payload is still in some segment; retiring is undone
            # by dropping the tombstone, no re-indexing needed.
            self._tombstones.discard(digest)
            if journal is not None:
                journal.tombstones.add(digest)
            self.version += 1
        elif (digest not in self._staged
                and self._flushed_id(text, digest) is None):
            self._staged[digest] = text
            if journal is not None:
                journal.staged.add(digest)
            self.version += 1
        return hexed

    def update_document(
        self, doc_id: str, chunk_texts: Iterable[str]
    ) -> Dict[str, int]:
        """Re-index one document after an edit, by delta.

        Diffs the new chunk digests against the recorded ones: only
        introduced texts are staged (sealed by the next :meth:`flush`
        or :meth:`compact`), texts whose last document reference
        disappeared are retired.  Returns ``{"added": n, "removed":
        n}`` distinct-text counts (both 0 for a no-op edit).
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
        if self._autosave:
            self.save()
        return {"added": len(added), "removed": len(removed)}

    def _release(self, hexed: str) -> bool:
        """Drop one document reference; returns whether it was the
        last (the text is retired)."""
        counts = self._refcounts
        remaining = counts.get(hexed, 0) - 1
        journal = self._journal
        if journal is not None:
            journal.refcounts.add(hexed)
        if remaining > 0:
            counts[hexed] = remaining
            return False
        counts.pop(hexed, None)
        digest = bytes.fromhex(hexed)
        # Last reference gone: retire.  A staged text is in no segment
        # yet, so it is simply un-staged; a sealed one gets a
        # tombstone — only ever backed by a segment payload, which is
        # what lets _reference undo it without re-indexing.
        if self._staged.pop(digest, None) is None:
            self._tombstones.add(digest)
            if journal is not None:
                journal.tombstones.add(digest)
        elif journal is not None:
            journal.staged.add(digest)
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
        if self._autosave:
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
        """Seal staged texts as one fresh segment, then :meth:`save`
        (even inside a :meth:`batch`): in a directory the segment file
        is written first, then the log line that names it.  Returns the
        new segment's name, or ``None`` if nothing was staged."""
        name = None
        if self._staged:
            name, segment, _summary = self._seal(self._staged.values())
            self._staged.clear()
            self._add_segment(name, segment)
            self.generation += 1
            self.version += 1
            if self._journal is not None:
                # The line naming the segment un-stages everything.
                self._journal.staged.clear()
                self._journal.segment = name
        self.save()
        return name

    def compact(self) -> Dict[str, int]:
        """Merge all segments and staged texts, dropping tombstoned
        texts, into one segment.

        Old segment files are unlinked after the new manifest lands;
        readers that mapped them before the compact keep working (the
        inode lives until their last close) and pick up the new
        generation on :meth:`refresh`.  In a directory the log is
        folded too: a new manifest and a full ``documents.json``
        snapshot, then no log.  Returns a summary dict.
        """
        # Pending changes reach the log before the snapshot, or a crash
        # would replay the older lines without them.
        self.save()
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
            yield from self._staged.values()

        name, merged, summary = self._seal(_live_texts())
        self._staged.clear()
        old_segments = self._segments
        old_names = self._segment_names
        self._segments, self._segment_names, self._bases = [], [], []
        self._digest_ids = None
        self._add_segment(name, merged)
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
        """Catch up with the directory: replay the log's new lines when
        it grew, re-open when the manifest moved to a new generation
        (another process compacted).  Returns whether anything
        changed; the index keeps serving throughout, and the file is
        never modified.  A memory index has no other writer: nothing
        ever changes."""
        if self.directory is None:
            return False
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (FileNotFoundError, ValueError):
            return False
        journal = self._journal
        seen = journal.position
        grown = False
        if int(manifest.get("generation", 0)) == self._manifest_generation:
            try:
                stat = os.stat(journal.path)
            except FileNotFoundError:
                return False
            # The same log, longer: only its new lines need replaying.
            grown = seen is None or (stat.st_ino == seen[0]
                                     and stat.st_size >= seen[1])
        if grown:
            if not self._replay_index(seen[1] if seen else 0):
                return False
        else:
            old_segments = self._segments
            self.splitter = manifest.get("splitter")
            self._load_manifest(manifest)
            self._replay_index()
            for segment in old_segments:
                segment.close()
        self._doc_records = self._refcounts = None
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
        """Live distinct texts: sealed ones minus the tombstoned (each
        tombstone retires one sealed payload), plus staged ones."""
        return (sum(len(segment) for segment in self._segments)
                - len(self._tombstones) + len(self._staged))

    def __contains__(self, text: str) -> bool:
        """Whether ``text`` is live: sealed and not retired, or
        staged."""
        return (self._staged.get(text_digest(text)) == text
                or self.text_id(text) is not None)

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
        >>> index.text_id("cd") is None  # staged
        True
        >>> index.flush()
        'segment-000001.ris'
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
        """Every live text: the sealed, untombstoned ones in global id
        order, then the staged ones."""
        for segment in self._segments:
            for tid in range(len(segment)):
                text = segment.text(tid)
                if text_digest(text) not in self._tombstones:
                    yield text
        yield from self._staged.values()

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
        """Unmap every segment and drop staged texts (idempotent;
        queries then see an empty index)."""
        for segment in self._segments:
            segment.close()
        self._segments = []
        self._segment_names = []
        self._bases = []
        self._digest_ids = None
        self._tombstones = set()
        self._staged = {}
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
