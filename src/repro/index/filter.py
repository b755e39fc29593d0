"""The :class:`IndexFilter`: a certified plan's chunk-skipping gate.

An ``IndexFilter`` binds a plan's necessary factors
(:class:`repro.index.factors.FactorSet`, derived once per certificate)
to an optional :class:`repro.index.store.SegmentedIndex`.  The engine
asks it one question per chunk — :meth:`admits` — *before* any
automaton runs:

* **indexed mode** (index attached, chunk text indexed): one bitmask
  lookup answers every posting-list-expressible condition at once,
  so a rejected chunk skips the substring scan;
* **scan mode** (no index, or unseen text): the factor conditions are
  checked directly on the chunk text — substring containment and a
  rolling trigram probe, still orders of magnitude cheaper than the
  automaton the skip avoids.

Decisions are memoized per distinct chunk text, so the corpus-wide
text duplication the engine already exploits for chunk caching makes
repeated instances of a chunk cost one dict lookup here.  A decision
is never invalidated, however the index changes: an uncached decision
always equals ``factors.admits(text)`` — the mask only spares the scan
where a clear bit already proves a factor condition fails — so it is a
function of the text alone.  The candidate bitmask tracks the index's
``version``: when an index grown or edited (per shard, per document,
by delta) has moved past the mask's snapshot, the mask is recomputed
just before the next uncached decision, since a stale mask would
address new or compacted ids with old bits.

Soundness is inherited from the factor analysis: ``admits`` returning
``False`` proves the chunk's result set is empty, so pruned chunks
contribute exactly what evaluating them would have — nothing.  The
candidate bitmask over-approximates (long factors are trigram-
approximated), so admitted chunks still pass through the exact scan.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.index.factors import FactorSet
from repro.index.store.segmented import SegmentedIndex


class IndexFilter:
    """Prune chunks a certified plan provably produces nothing on.

    ``metrics``/``plan`` optionally attach a
    :class:`repro.obs.metrics.Metrics` registry: admit decisions then
    feed per-plan counters (``index.admitted``, ``index.pruned``,
    ``index.memo_hits``, each labeled ``plan=<prefix>``), so an
    exposition over a multi-plan engine shows which certificate's
    filter is doing the pruning.  :meth:`admits` tallies them in plain
    ints; :meth:`flush_counts` adds the tallies to the counters (the
    engine calls it once per batch).
    """

    __slots__ = ("factors", "index", "_mask", "_mask_version",
                 "_decisions", "_counters", "_admitted", "_pruned",
                 "_memo_hits")

    def __init__(
        self,
        factors: FactorSet,
        index: Optional[SegmentedIndex] = None,
        metrics: Optional[object] = None,
        plan: Optional[str] = None,
    ) -> None:
        self.factors = factors
        self.index = index
        labels = {"plan": plan} if plan else {}
        self._counters = None if metrics is None else tuple(
            metrics.counter(name, **labels) for name in
            ("index.admitted", "index.pruned", "index.memo_hits"))
        self._admitted = self._pruned = self._memo_hits = 0
        #: Candidate bitmask over the index's text ids (None = the
        #: index cannot answer any condition; pure scan mode).
        self._mask: Optional[int] = None
        self._mask_version: Optional[int] = None
        #: Memoized admit decision per distinct chunk text (unbounded,
        #: like the engine's default chunk cache — one bool per
        #: distinct chunk the corpus exhibits).
        self._decisions: Dict[str, bool] = {}
        self._fresh_mask()

    def _fresh_mask(self) -> Optional[int]:
        """The candidate bitmask for the index as it is now."""
        if (self.index is not None
                and self._mask_version != self.index.version):
            self._mask = self.index.candidates(self.factors)
            self._mask_version = self.index.version
        return self._mask

    @property
    def mode(self) -> str:
        return "indexed" if self._fresh_mask() is not None else "scan"

    def admits(self, text: str) -> bool:
        """Whether ``text`` must be evaluated (False = provably empty)."""
        decision = self._decisions.get(text)
        if decision is None:
            decision = self._decisions[text] = self._admits_uncached(text)
            if decision:
                self._admitted += 1
            else:
                self._pruned += 1
        else:
            self._memo_hits += 1
        return decision

    def flush_counts(self) -> None:
        """Add the decisions tallied since the last call to the
        registry's counters (none attached: forget them)."""
        if self._counters is not None:
            for counter, tally in zip(self._counters, (
                    self._admitted, self._pruned, self._memo_hits)):
                if tally:
                    counter.inc(tally)
        self._admitted = self._pruned = self._memo_hits = 0

    def _admits_uncached(self, text: str) -> bool:
        mask = self._fresh_mask()
        if mask is not None:
            tid = self.index.text_id(text)
            if tid is not None and not (mask >> tid) & 1:
                # Posting-list rejection; sound only for in-alphabet
                # texts (foreign chunks must keep their evaluation-time
                # error, exactly as FactorSet.admits guarantees).
                if self.factors.alphabet.issuperset(text):
                    return False
        return self.factors.admits(text)

    def describe(self) -> Dict[str, object]:
        """A flat report for ``ResultSet.explain()`` and the CLI."""
        report: Dict[str, object] = {"mode": self.mode}
        report.update(self.factors.describe())
        if self.index is not None:
            report["indexed_texts"] = len(self.index)
            report["index_splitter"] = self.index.splitter
            report["index_directory"] = self.index.directory
            report["index_segments"] = self.index.segment_count
        return report

    def __repr__(self) -> str:
        return (f"IndexFilter(mode={self.mode!r}, "
                f"required={list(self.factors.required)!r})")
