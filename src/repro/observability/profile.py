"""The evaluation profiler: per-rule and per-predicate work breakdowns.

Builds a :class:`EvaluationProfile` from the trace events the engine
emits (``rule`` spans carrying firings/probes/rows/facts deltas,
``iteration`` events, ``scc`` and ``evaluate`` spans) — so the profile
is a pure consumer of the trace stream and works equally on live
in-memory events and on a JSONL trace read back from disk.

The headline view is :meth:`EvaluationProfile.render`: the top-k hot
rules by time, with the index-probe hit rate (rows scanned per probe)
that tells you whether a rule is burning time on empty probes (a magic
guard or residue candidate) or on genuinely large intermediate results
(a join-order candidate).

Typical use::

    from repro.observability import profile_evaluation

    profile, result = profile_evaluation(program, database)
    print(profile.render(top=10))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .trace import RingBufferSink, TraceEvent, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalog.database import Database
    from ..datalog.evaluation import EvaluationResult
    from ..datalog.program import Program

__all__ = [
    "RuleProfile",
    "TenantServeProfile",
    "EvaluationProfile",
    "build_profile",
    "profile_evaluation",
]


@dataclass
class RuleProfile:
    """Accumulated work of one rule (or one head predicate)."""

    name: str
    predicate: str
    calls: int = 0
    time: float = 0.0
    firings: int = 0
    probes: int = 0
    rows_scanned: int = 0
    facts_derived: int = 0
    index_builds: int = 0
    plan: str = ""

    @property
    def hit_rate(self) -> float:
        """Rows scanned per index probe (0.0 when the rule never probed)."""
        return self.rows_scanned / self.probes if self.probes else 0.0

    def absorb(self, event: TraceEvent) -> None:
        attrs = event.attrs
        self.calls += 1
        self.time += event.duration
        self.firings += int(attrs.get("firings", 0))  # type: ignore[arg-type]
        self.probes += int(attrs.get("probes", 0))  # type: ignore[arg-type]
        self.rows_scanned += int(attrs.get("rows_scanned", 0))  # type: ignore[arg-type]
        self.facts_derived += int(attrs.get("facts_derived", 0))  # type: ignore[arg-type]
        self.index_builds += int(attrs.get("index_builds", 0))  # type: ignore[arg-type]


@dataclass
class TenantServeProfile:
    """Accumulated serving work of one tenant (``serve.request`` spans)."""

    tenant: str
    requests: int = 0
    time: float = 0.0
    queries: int = 0
    ingests: int = 0
    errors: int = 0
    aborted: int = 0

    def absorb(self, event: TraceEvent) -> None:
        attrs = event.attrs
        self.requests += 1
        self.time += event.duration
        kind = attrs.get("kind")
        if kind == "query":
            self.queries += 1
        elif kind == "ingest":
            self.ingests += 1
        status = attrs.get("status")
        if isinstance(status, int) and status >= 400:
            self.errors += 1
            if status == 503:
                self.aborted += 1


@dataclass
class EvaluationProfile:
    """Per-rule and per-predicate breakdown of one (or more) evaluations."""

    rules: dict[str, RuleProfile] = field(default_factory=dict)
    predicates: dict[str, RuleProfile] = field(default_factory=dict)
    total_time: float = 0.0
    iterations: int = 0
    sccs: int = 0
    events: int = 0
    index_builds: int = 0
    budget_trips: list[str] = field(default_factory=list)
    checkpoint_saves: int = 0
    checkpoint_retries: int = 0
    checkpoint_bytes: int = 0
    journal_appends: int = 0
    journal_fsyncs: int = 0
    journal_bytes: int = 0
    journal_retries: int = 0
    journal_replayed: int = 0
    journal_truncations: int = 0
    journal_compactions: int = 0
    tenants: dict[str, TenantServeProfile] = field(default_factory=dict)

    def top_rules(self, k: int = 10, *, key: str = "time") -> list[RuleProfile]:
        """The k hottest rules by ``key`` (any counter attribute)."""
        return sorted(
            self.rules.values(), key=lambda r: (-getattr(r, key), r.name)
        )[:k]

    def render(self, top: int = 10) -> str:
        """A fixed-width hot-rule table plus per-predicate totals."""
        lines = [
            f"evaluation profile: {self.total_time * 1000:.3f} ms total, "
            f"{self.sccs} SCCs, {self.iterations} semi-naive iterations, "
            f"{self.index_builds} index builds",
        ]
        if self.checkpoint_saves or self.checkpoint_retries:
            lines.append(
                f"durability: {self.checkpoint_saves} base writes "
                f"({self.checkpoint_bytes} bytes), {self.checkpoint_retries} retries"
            )
        if self.journal_appends or self.journal_replayed or self.journal_retries:
            lines.append(
                f"journal: {self.journal_appends} appends / "
                f"{self.journal_fsyncs} fsyncs ({self.journal_bytes} bytes), "
                f"{self.journal_retries} retries, "
                f"{self.journal_replayed} records replayed, "
                f"{self.journal_truncations} torn-tail truncations, "
                f"{self.journal_compactions} compactions"
            )
        for trip in self.budget_trips:
            lines.append(f"budget trip: {trip}")
        lines += [
            "",
            f"top {min(top, len(self.rules))} rules by time:",
            f"{'time(ms)':>10} {'calls':>6} {'firings':>8} {'probes':>8} "
            f"{'rows':>9} {'facts':>7} {'hit':>6}  rule",
        ]
        for entry in self.top_rules(top):
            lines.append(
                f"{entry.time * 1000:10.3f} {entry.calls:6d} {entry.firings:8d} "
                f"{entry.probes:8d} {entry.rows_scanned:9d} {entry.facts_derived:7d} "
                f"{entry.hit_rate:6.2f}  {entry.name}"
            )
            if entry.plan:
                lines.append(f"{'':60}plan: {entry.plan}")
        if self.predicates:
            lines.append("")
            lines.append("per-predicate totals:")
            lines.append(
                f"{'time(ms)':>10} {'firings':>8} {'probes':>8} {'rows':>9} "
                f"{'facts':>7}  predicate"
            )
            for name in sorted(
                self.predicates, key=lambda p: (-self.predicates[p].time, p)
            ):
                entry = self.predicates[name]
                lines.append(
                    f"{entry.time * 1000:10.3f} {entry.firings:8d} {entry.probes:8d} "
                    f"{entry.rows_scanned:9d} {entry.facts_derived:7d}  {name}"
                )
        if self.tenants:
            lines.append("")
            lines.append("serving, per tenant:")
            lines.append(
                f"{'time(ms)':>10} {'reqs':>6} {'queries':>8} {'ingests':>8} "
                f"{'errors':>7} {'aborted':>8}  tenant"
            )
            for name in sorted(
                self.tenants, key=lambda t: (-self.tenants[t].time, t)
            ):
                entry = self.tenants[name]
                lines.append(
                    f"{entry.time * 1000:10.3f} {entry.requests:6d} "
                    f"{entry.queries:8d} {entry.ingests:8d} {entry.errors:7d} "
                    f"{entry.aborted:8d}  {name}"
                )
        return "\n".join(lines)


def build_profile(events: Iterable[TraceEvent]) -> EvaluationProfile:
    """Aggregate a trace stream into an :class:`EvaluationProfile`."""
    profile = EvaluationProfile()
    for event in events:
        profile.events += 1
        if event.kind == "span" and event.name == "rule":
            rule_text = str(event.attrs.get("rule", "?"))
            predicate = str(event.attrs.get("predicate", "?"))
            profile.rules.setdefault(
                rule_text, RuleProfile(rule_text, predicate)
            ).absorb(event)
            profile.predicates.setdefault(
                predicate, RuleProfile(predicate, predicate)
            ).absorb(event)
        elif event.kind == "span" and event.name == "evaluate":
            profile.total_time += event.duration
        elif event.kind == "span" and event.name == "scc":
            profile.sccs += 1
        elif event.kind == "event" and event.name == "iteration":
            profile.iterations += 1
        elif event.kind == "event" and event.name == "index_build":
            profile.index_builds += 1
        elif event.kind == "event" and event.name == "budget.trip":
            profile.budget_trips.append(
                f"{event.attrs.get('phase', '?')} hit {event.attrs.get('limit', '?')} "
                f"after {event.attrs.get('iterations', 0)} iterations, "
                f"{event.attrs.get('facts_derived', 0)} facts"
            )
        elif event.kind == "event" and event.name == "checkpoint.save":
            profile.checkpoint_saves += 1
            profile.checkpoint_bytes += int(event.attrs.get("bytes", 0))  # type: ignore[arg-type]
        elif event.kind == "event" and event.name == "checkpoint.retry":
            profile.checkpoint_retries += 1
        elif event.kind == "event" and event.name == "journal.append":
            profile.journal_appends += 1
        elif event.kind == "event" and event.name == "journal.fsync":
            profile.journal_fsyncs += 1
            profile.journal_bytes += int(event.attrs.get("bytes", 0))  # type: ignore[arg-type]
        elif event.kind == "event" and event.name == "journal.retry":
            profile.journal_retries += 1
        elif event.kind == "event" and event.name == "journal.replay":
            profile.journal_replayed += int(event.attrs.get("records", 0))  # type: ignore[arg-type]
        elif event.kind == "event" and event.name == "journal.truncate":
            profile.journal_truncations += 1
        elif event.kind == "event" and event.name == "journal.compact":
            profile.journal_compactions += 1
        elif event.kind == "span" and event.name == "serve.request":
            tenant = str(event.attrs.get("tenant") or "-")
            profile.tenants.setdefault(
                tenant, TenantServeProfile(tenant)
            ).absorb(event)
        elif event.kind == "event" and event.name == "plan":
            # The compiled plan of a (rule, delta) pair: keep the most
            # informative one per rule (delta plans override the base
            # plan only when no plan is recorded yet).
            rule_text = str(event.attrs.get("rule", "?"))
            predicate = str(event.attrs.get("predicate", "?"))
            entry = profile.rules.setdefault(
                rule_text, RuleProfile(rule_text, predicate)
            )
            if not entry.plan:
                entry.plan = str(event.attrs.get("steps", ""))
    return profile


def profile_evaluation(
    program: "Program", database: "Database"
) -> tuple[EvaluationProfile, "EvaluationResult"]:
    """Evaluate ``program`` under a fresh tracer and profile the run."""
    from ..datalog.evaluation import evaluate

    sink = RingBufferSink()
    result = evaluate(program, database, tracer=Tracer([sink]))
    return build_profile(sink), result
