"""Counters and derived metrics surfaced through the engine API.

The Introduction's performance claims are about *amortization*: pay
for certification once, schedule fine-grained chunks, never extract
the same chunk twice.  :class:`EngineStats` makes each of those
effects observable — benchmarks and operators read certification
counts, cache hit rates and chunk throughput from here instead of
instrumenting the engine by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class EngineStats:
    """A snapshot of one engine's counters.

    Produced by :meth:`repro.engine.ExtractionEngine.stats`; all
    counters are cumulative over the engine's lifetime (i.e. across
    ``run`` calls), which is what makes plan-cache reuse visible.

    Since the observability layer (:mod:`repro.obs`) the engine keeps
    its counters in a :class:`repro.obs.metrics.Metrics` registry and
    this class is a *view* over it (:meth:`from_metrics`) — the flat
    stats surface and the exported metrics read the same storage and
    can never disagree.
    """

    #: Documents processed across all runs.
    documents: int = 0
    #: Chunk instances encountered (every chunk of every document).
    chunks_total: int = 0
    #: Chunk texts actually evaluated by a spanner.
    chunks_evaluated: int = 0
    #: Chunk instances skipped by the index prefilter (provably empty
    #: results; see :mod:`repro.index`) — never evaluated, never cached.
    chunks_pruned: int = 0
    #: Chunk instances served from the chunk cache.
    chunk_cache_hits: int = 0
    #: Chunk cache misses (equals chunks evaluated when unbounded).
    chunk_cache_misses: int = 0
    #: Entries currently retained in the chunk cache.
    chunk_cache_size: int = 0
    #: Chunk-cache evictions (bounded caches only).
    chunk_cache_evictions: int = 0
    #: Documents served whole from their cached merged relation.
    document_cache_hits: int = 0
    #: Times a certified plan was replayed from the plan cache.
    plan_cache_hits: int = 0
    #: Times the decision procedures actually ran (plan-cache misses).
    certifications: int = 0
    #: Total seconds spent inside the decision procedures.
    certification_seconds: float = 0.0
    #: Compiled kernel artifacts produced (lowerings); stays flat when
    #: certificates and program runners are replayed from the caches.
    artifacts_compiled: int = 0
    #: Total seconds spent splitting, scheduling and evaluating.
    extraction_seconds: float = 0.0
    #: Span tuples produced across all runs.
    tuples_emitted: int = 0
    #: Extra key/value pairs (e.g. per-shard breakdowns).
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, metrics, chunk_cache_size: int = 0,
                     extra: Dict[str, float] = None) -> "EngineStats":
        """The stats view of an engine's metrics registry.

        Reads the ``engine.*`` instruments the engine maintains
        (:class:`repro.engine.ExtractionEngine`); ``chunk_cache_size``
        is a live gauge the caller reads off the (possibly shared)
        cache itself.
        """
        value = metrics.value
        return cls(
            documents=value("engine.documents"),
            chunks_total=value("engine.chunks_total"),
            chunks_evaluated=value("engine.chunk_cache.misses"),
            chunks_pruned=value("engine.chunks_pruned"),
            chunk_cache_hits=value("engine.chunk_cache.hits"),
            chunk_cache_misses=value("engine.chunk_cache.misses"),
            chunk_cache_size=chunk_cache_size,
            chunk_cache_evictions=value("engine.chunk_cache.evictions"),
            document_cache_hits=value("engine.document_cache.hits"),
            plan_cache_hits=value("engine.plan_cache.hits"),
            certifications=value("engine.certifications"),
            certification_seconds=value("engine.certification_seconds",
                                        0.0),
            artifacts_compiled=value("engine.artifacts_compiled"),
            extraction_seconds=value("engine.extraction_seconds", 0.0),
            tuples_emitted=value("engine.tuples_emitted"),
            extra=dict(extra or {}),
        )

    @property
    def chunk_hit_rate(self) -> float:
        """Fraction of chunk instances served without evaluation."""
        total = self.chunk_cache_hits + self.chunk_cache_misses
        return self.chunk_cache_hits / total if total else 0.0

    @property
    def chunks_per_second(self) -> float:
        """Chunk instances consumed per second of extraction time."""
        if self.extraction_seconds <= 0:
            return 0.0
        return self.chunks_total / self.extraction_seconds

    @property
    def prune_rate(self) -> float:
        """Fraction of chunk instances skipped by the index prefilter."""
        return self.chunks_pruned / self.chunks_total \
            if self.chunks_total else 0.0

    @property
    def dedup_factor(self) -> float:
        """How many chunk instances each evaluation served on average."""
        if self.chunks_evaluated == 0:
            return 1.0
        return self.chunks_total / self.chunks_evaluated

    def snapshot(self) -> Dict[str, float]:
        """A flat dict (counters plus derived metrics) for reporting."""
        return {
            "documents": self.documents,
            "chunks_total": self.chunks_total,
            "chunks_evaluated": self.chunks_evaluated,
            "chunks_pruned": self.chunks_pruned,
            "prune_rate": self.prune_rate,
            "chunk_cache_hits": self.chunk_cache_hits,
            "chunk_cache_misses": self.chunk_cache_misses,
            "chunk_cache_size": self.chunk_cache_size,
            "chunk_cache_evictions": self.chunk_cache_evictions,
            "document_cache_hits": self.document_cache_hits,
            "chunk_hit_rate": self.chunk_hit_rate,
            "dedup_factor": self.dedup_factor,
            "plan_cache_hits": self.plan_cache_hits,
            "certifications": self.certifications,
            "certification_seconds": self.certification_seconds,
            "artifacts_compiled": self.artifacts_compiled,
            "extraction_seconds": self.extraction_seconds,
            "chunks_per_second": self.chunks_per_second,
            "tuples_emitted": self.tuples_emitted,
            **self.extra,
        }

    def since(self, before: "EngineStats") -> "EngineStats":
        """The delta between two cumulative snapshots of one engine.

        Counters subtract; gauges (cache size) keep the later value.
        ``extra`` entries subtract where both snapshots hold a number
        and carry over otherwise (labels, per-shard notes).  This is
        what one ``run`` contributed to the engine's lifetime totals.
        """
        extra: Dict[str, float] = {}
        for key, value in self.extra.items():
            previous = before.extra.get(key)
            if (isinstance(value, (int, float))
                    and isinstance(previous, (int, float))):
                extra[key] = value - previous
            else:
                extra[key] = value
        after, earlier = vars(self), vars(before)
        counters = {name: after[name] - earlier[name] for name in _COUNTERS}
        return EngineStats(chunk_cache_size=self.chunk_cache_size,
                           extra=extra, **counters)


#: The fields :meth:`EngineStats.since` subtracts (not the gauge).
_COUNTERS = tuple(item.name for item in fields(EngineStats)
                  if item.name not in ("chunk_cache_size", "extra"))
