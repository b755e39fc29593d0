"""A query planner that exploits split-correctness (Introduction).

Given a registry of materialized splitters (sentences, paragraphs,
records, ...) and an extractor, the planner runs the framework's
decision procedures to find the splitters the extractor is
split-correct for, picks the preferred one, and emits an executable
plan.  It also powers the paper's *debugging* scenario: reporting
which common splitters a program is (not) splittable by, so a
developer can spot unintended boundary crossings.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.api import _fast_applicable
from repro.core.split_correctness import (
    CertificationAccount,
    dfvsa_verdict,
    split_correct_account,
)
from repro.core.splittability import canonical_split_spanner, is_splittable
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runtime.fast import CompiledSpanner, FastSplitter
from repro.spanners.vset_automaton import VSetAutomaton
from repro.splitters.disjointness import is_disjoint


@dataclass
class RegisteredSplitter:
    """A splitter known to the planner.

    ``priority`` orders candidates (higher = preferred, typically the
    finer granularity); ``executor`` optionally carries a fast
    implementation used at run time instead of the automaton.
    """

    name: str
    automaton: VSetAutomaton
    priority: int = 0
    executor: Optional[object] = None

    def runtime_splitter(self):
        return self.executor if self.executor is not None else self.automaton

    def describe_executor(self) -> str:
        """What splits documents at run time, for ``explain()``: the
        compiled scanner's class and pattern, or why the specification
        automaton itself is evaluated on every document."""
        if self.executor is None:
            return (f"automaton (no executor registered for splitter "
                    f"{self.name!r})")
        if isinstance(self.executor, FastSplitter):
            return repr(self.executor)
        return type(self.executor).__name__


@dataclass
class Plan:
    """An extraction plan, executed by :mod:`repro.engine`.

    ``compiled_runner`` pins the split spanner's compiled kernel
    artifact; it is produced by :meth:`lower` — called at certify time
    by :meth:`Planner.certify`, so execution (and every pool worker
    that inherits the runner) replays the lowering instead of
    repeating it per chunk.
    """

    mode: str                      # "split" or "whole"
    splitter: Optional[RegisteredSplitter]
    split_spanner: Optional[VSetAutomaton]
    self_splittable: bool = False
    compiled_runner: Optional[object] = field(default=None, compare=False)
    #: The paper result that justifies this plan (explain metadata,
    #: filled in by :meth:`Planner.plan`), e.g. ``"Theorem 5.17"``.
    theorem: Optional[str] = field(default=None, compare=False)
    #: Human-readable name of the decision procedure that actually ran.
    procedure: Optional[str] = field(default=None, compare=False)
    #: What the Theorem 5.16 run that certified this plan built and
    #: searched; ``None`` when another procedure decided it (the PTIME
    #: fragment, the canonical rewriting, the whole-document fallback).
    certification: Optional[CertificationAccount] = field(
        default=None, compare=False)

    def lower(self) -> int:
        """Lower the split spanner onto the compiled kernel.

        Idempotent; returns how many artifacts *this call* produced
        (0 or 1), which certification records for the engine's
        statistics.
        """
        if (self.mode != "whole" and self.split_spanner is not None
                and self.compiled_runner is None):
            from repro.runtime.fast import CompiledSpanner

            runner = CompiledSpanner(self.split_spanner)
            self.compiled_runner = runner
            return 1 if runner.freshly_lowered else 0
        return 0


@dataclass
class CertifiedPlan:
    """A :class:`Plan` together with its certification record.

    This is the reusable artifact the corpus engine caches
    (:mod:`repro.engine.cache`): the decision procedures that produced
    ``plan`` are PSPACE in general, so a corpus run pays
    ``certification_seconds`` once and re-executes the plan on every
    document.  ``fingerprint`` identifies the (spanner, splitter
    registry) pair the certificate is valid for; it is filled in by the
    caching layer, which owns the fingerprinting scheme.
    """

    plan: Plan
    certification_seconds: float
    fingerprint: Optional[str] = None
    #: How many times this certificate has been reused from a cache.
    reuses: int = field(default=0, compare=False)
    #: Compiled kernel artifacts produced while certifying (0 or 1);
    #: replays of the certificate never re-lower.
    artifacts_compiled: int = field(default=0, compare=False)
    #: The specification automaton that was certified (what runs on
    #: chunks under self-splittable and whole-document plans); the
    #: index subsystem derives its skip conditions from here.
    specification: Optional[VSetAutomaton] = field(default=None,
                                                  compare=False, repr=False)

    @property
    def mode(self) -> str:
        return self.plan.mode

    @property
    def splitter_name(self) -> Optional[str]:
        return self.plan.splitter.name if self.plan.splitter else None

    def explain(self) -> Dict[str, object]:
        """The certificate as a flat report (what ``.explain()`` on a
        fluent :class:`repro.query.ResultSet` surfaces).

        Covers the selected plan (mode, splitter, whether rewriting was
        needed), the paper theorem and concrete procedure that
        certified it, the compiled-artifact identity, what splits
        documents at run time, and the certification cost/reuse
        accounting — under ``certification``, what the deciding
        Theorem 5.16 run built (``P``, ``S``, ``P o S`` and both
        extended forms, by state count), how many subset pairs it
        searched, and its ``construct_seconds`` against its
        ``search_seconds``.
        """
        plan = self.plan
        runner = plan.compiled_runner
        specification = self.specification
        if runner is not None:
            kernel_report = runner.describe()
        elif (specification is not None
              and specification.lowered() is not None):
            # Self-splittable and whole-document plans run the program
            # itself on chunks.  Once its runner is built, every input
            # of one is memoised on the specification: rebuilding it
            # to report what it decided lowers and proves nothing.
            kernel_report = CompiledSpanner(specification).describe()
        else:
            kernel_report = {"tier": None, "fallback_reason": None,
                             "path": "not lowered yet"}
        return {
            "mode": plan.mode,
            "splitter": self.splitter_name,
            "self_splittable": plan.self_splittable,
            "split_spanner": ("original program" if plan.self_splittable
                              else "canonical split-spanner"
                              if plan.split_spanner is not None else None),
            "theorem": plan.theorem,
            "procedure": plan.procedure,
            "compiled_artifact": (f"kernel-{id(runner):x}"
                                  if runner is not None else None),
            "kernel_tier": kernel_report["tier"],
            "kernel": kernel_report,
            "splitter_executor": (plan.splitter.describe_executor()
                                  if plan.splitter is not None else None),
            "certification_seconds": self.certification_seconds,
            "certification": (asdict(plan.certification)
                              if plan.certification is not None else None),
            "certificate": self.fingerprint,
            "reuses": self.reuses,
            "artifacts_compiled": self.artifacts_compiled,
        }

    def kernel_tier(self) -> Optional[str]:
        """``explain()["kernel_tier"]``, built once a kernel is lowered."""
        spec = self.specification
        if "_tier" not in self.__dict__ and (
                self.plan.compiled_runner is not None
                or (spec is not None and spec.lowered() is not None)):
            self.__dict__["_tier"] = self.explain()["kernel_tier"]
        return self.__dict__.get("_tier")

    def factor_source(self) -> Optional[VSetAutomaton]:
        """The automaton whose matching language bounds chunk results.

        What actually evaluates chunks under this certificate: the
        canonical split-spanner for rewritten split plans, otherwise
        the certified specification itself (self-splittable plans run
        the program on chunks; whole-document plans run it on the
        document — one chunk either way).
        """
        plan = self.plan
        if plan.mode != "whole" and plan.split_spanner is not None:
            return plan.split_spanner
        return self.specification

    def factor_set(self):
        """Necessary factors of this plan's chunk evaluation (lazy).

        Analysed at most once per automaton
        (:meth:`repro.spanners.vset_automaton.VSetAutomaton.
        factor_set`) — the chunk runner's literal test already paid
        for it at lowering, and cached certificates replayed from a
        :class:`repro.engine.cache.PlanCache` carry it with them —
        and ``None`` when the analysis does not apply (see
        :func:`repro.index.factors.factors_of`).
        """
        source = self.factor_source()
        return source.factor_set() if source is not None else None

    def chunk_runner(self) -> Optional[object]:
        """The chunk evaluator this certificate carries, if any.

        The plan's compiled split-spanner artifact (or the split
        spanner itself if it was never lowered); ``None`` when the
        certificate implies running the program's own executable —
        callers fall back to that themselves.
        """
        plan = self.plan
        if plan.mode != "whole" and plan.split_spanner is not None:
            if plan.compiled_runner is not None:
                return plan.compiled_runner
            return plan.split_spanner
        return None


@dataclass
class SplitReport:
    """Outcome of the analysis of one candidate splitter."""

    name: str
    disjoint: bool
    self_splittable: bool
    splittable: Optional[bool]     # None = not determined (non-disjoint)
    #: For non-disjoint splitters: a shortest document with two
    #: distinct overlapping splits (debugging aid).
    overlap_witness: Optional[str] = None


class Planner:
    """Analyse extractors against a registry of splitters.

    Self-splittability is decided by the cheapest sound procedure the
    inputs admit: the PTIME check of Theorem 5.17 when the spanner and
    the splitter are deterministic functional automata and the splitter
    is disjoint, and the PSPACE procedure of Theorem 5.16 otherwise —
    or when the PTIME search leaves the question open (a discrepancy
    only on a tuple two splits may cover; see
    :func:`repro.core.split_correctness.dfvsa_verdict`).  Both are
    exact, so the choice changes the cost and the theorem ``explain()``
    names, never the verdict.

    ``tracer`` (:class:`repro.obs.trace.Tracer`) brackets planning in
    spans: one ``certify.candidate`` span per splitter examined —
    carrying the splitter name, the theorem that decided it, the
    decision and, for a Theorem 5.16 run, its ``certification``
    account (what was built, what was searched, seconds of each) —
    under the ``certify`` span :meth:`certify` opens, plus
    a ``compile`` span for the kernel lowering.  The default disabled
    tracer makes all of that a no-op.
    """

    def __init__(self, splitters: Sequence[RegisteredSplitter],
                 tracer: Optional[Tracer] = None) -> None:
        self.splitters = sorted(
            splitters, key=lambda s: -s.priority
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _certify_self_splittable(
        self, spanner: VSetAutomaton, automaton: VSetAutomaton
    ):
        """Decide ``P = P o S`` by the cheapest sound procedure.

        Returns ``(answer, theorem, procedure, account)`` recording
        which paper result actually ran (explain metadata) and, for the
        general procedure, what it built and searched.
        """
        if _fast_applicable(automaton, spanner):
            verdict = dfvsa_verdict(spanner, spanner, automaton)
            if verdict is not None:
                return (verdict, "Theorem 5.17",
                        "dfVSA self-splittability (PTIME)", None)
        account = split_correct_account(spanner, spanner, automaton)
        return (account.verdict, "Theorem 5.16",
                "general self-splittability (PSPACE)", account)

    def analyse(self, spanner: VSetAutomaton) -> List[SplitReport]:
        """The debugging report: how ``spanner`` splits by each
        registered splitter (the paper's HTTP-log scenario)."""
        from repro.splitters.disjointness import overlap_witness

        reports = []
        for registered in self.splitters:
            automaton = registered.automaton
            witness = overlap_witness(automaton)
            disjoint = witness is None
            self_split = self._certify_self_splittable(spanner,
                                                       automaton)[0]
            splittable: Optional[bool]
            if self_split:
                splittable = True
            elif disjoint:
                splittable = is_splittable(
                    spanner, automaton, require_disjoint=False
                )
            else:
                splittable = None
            reports.append(
                SplitReport(registered.name, disjoint, self_split,
                            splittable, witness)
            )
        return reports

    def plan(self, spanner: VSetAutomaton) -> Plan:
        """The preferred executable plan for ``spanner``.

        Self-splittable candidates win (no rewriting needed); otherwise
        a splittable candidate is used with its canonical split-spanner
        (Lemma 5.14 makes it the minimal valid choice).  Falls back to
        whole-document evaluation.

        Every candidate examined gets its own ``certify.candidate``
        span (splitter, check, theorem, decision) on the planner's
        tracer — the per-theorem timing breakdown of certification.
        """
        tracer = self.tracer
        for registered in self.splitters:
            with tracer.span("certify.candidate",
                             splitter=registered.name,
                             check="self-splittability") as span:
                answer, theorem, procedure, account = \
                    self._certify_self_splittable(
                        spanner, registered.automaton
                    )
                span.set("decision", answer)
                span.set("theorem", theorem)
                span.set("procedure", procedure)
                if account is not None and tracer.enabled:
                    span.set("certification", asdict(account))
            if answer:
                return Plan("split", registered, None, self_splittable=True,
                            theorem=theorem, procedure=procedure,
                            certification=account)
        for registered in self.splitters:
            if not is_disjoint(registered.automaton):
                continue
            with tracer.span("certify.candidate",
                             splitter=registered.name,
                             check="splittability",
                             theorem="Theorem 5.15") as span:
                splittable = is_splittable(spanner, registered.automaton,
                                           require_disjoint=False)
                span.set("decision", splittable)
            if splittable:
                with tracer.span("certify.rewrite",
                                 splitter=registered.name):
                    canonical = canonical_split_spanner(
                        spanner, registered.automaton
                    )
                return Plan(
                    "split", registered, canonical,
                    theorem="Theorem 5.15",
                    procedure=("splittability via canonical "
                               "split-spanner (Lemma 5.14)"),
                )
        return Plan("whole", None, None,
                    procedure="whole-document evaluation")

    def certify(
        self, spanner: VSetAutomaton, fingerprint: Optional[str] = None
    ) -> CertifiedPlan:
        """Run the decision procedures once and record the certificate.

        The returned :class:`CertifiedPlan` is safe to reuse for every
        document (and every future corpus) as long as the spanner and
        the splitter registry are unchanged — which is exactly what
        ``fingerprint`` lets a cache check.

        Certification is also when the plan is *lowered*: the split
        spanner compiles onto the integer/bitset kernel here, once, so
        executing the certificate — in-process or on pool workers —
        never re-lowers per chunk.
        """
        start = time.perf_counter()
        plan = self.plan(spanner)
        with self.tracer.span("compile") as span:
            artifacts = plan.lower()
            span.set("artifacts", artifacts)
        elapsed = time.perf_counter() - start
        return CertifiedPlan(plan, elapsed, fingerprint,
                             artifacts_compiled=artifacts,
                             specification=spanner)
