"""Compiled slot-based join plans with cost-based body reordering.

This module is the compiled counterpart of the tuple-at-a-time
interpreter that seeded :mod:`repro.datalog.evaluation`.  A rule is
compiled **once per (rule, delta-position)** into a :class:`RulePlan`:

* variables are mapped to integer *slots*, and each slot becomes one
  local variable of the generated kernel — no per-row ``dict`` copies,
  no environment object at all.  Slot ownership is static (each scan
  step binds only the variables it sees first), so backtracking is
  nothing but the next iteration of a ``for`` loop;
* each positive literal compiles to a *scan* step with a precomputed
  probe-key layout (constants inlined, bound variables read from their
  slots), ``sets`` (row position → slot) for newly bound variables and
  ``checks`` for repeated variables within the literal.  A literal
  whose positions are all bound compiles to an *existence check* — a
  set-membership test that scans zero rows;
* order atoms and negated EDB literals compile to filter steps that are
  flushed into the plan as soon as their variables are bound;
* the steps are printed as **one Python function per plan shape**
  (:func:`_kernel_source`): nested ``for`` loops with probe keys and
  filters inline whose innermost line builds the head row and keeps it
  only if it is new, ``compile()``-d once per shape and shared by every
  plan of that shape — plain, governed or recording provenance —
  through a bounded cache.  The step objects stay
  as the plan's description: :meth:`RulePlan.describe`, the profiler
  and the columnar executor read them; the kernel is derived from
  their integer layouts alone, constants travel as values, and no
  predicate, variable or constant text ever reaches ``compile()``.

Plans order their body with :func:`order_body_cost`: the delta literal
first, then literals by estimated scan cost
``relation_size × SELECTIVITY^bound_positions`` (fully bound literals
cost nothing — they become existence checks), so small relations such
as magic predicates are joined before large ones even when neither has
a bound argument yet.  :func:`order_body_greedy` (greedily by
bound-argument count) is the reference interpreter's order and nothing
else's.

Relations are accessed through :meth:`Relation.index_for` /
:meth:`Relation.all_rows`: the index for a probe's position set is
fetched **once per rule execution** (built lazily, reused across
semi-naive iterations) instead of once per probed row.

On columnar storage (``Database(storage="columnar")``, see
:mod:`repro.datalog.database` and ``docs/storage.md``) the same
compiled plan executes through :meth:`RulePlan.run_blocks` instead:
each step becomes one **batched kernel invocation over the whole
block** of surviving bindings — a probe loop over int-code keys against
a code-level hash index, followed by C-speed list-comprehension gathers
of the live columns — rather than one loop iteration per row.  The step
layouts (probe keys, sets, checks, filters) are shared between the two
executors, so both compute identical results from one compilation.
"""

from __future__ import annotations

import hashlib
import linecache
import weakref
from functools import lru_cache
from itertools import repeat as _repeat
from typing import Callable, Sequence

from .atoms import Literal, OrderAtom, evaluate_comparison
from .database import ArityMismatch, Relation
from .rules import Rule
from .terms import Constant, Variable

__all__ = [
    "RulePlan",
    "compile_rule",
    "order_body_greedy",
    "order_body_cost",
    "SELECTIVITY",
    "DEFAULT_IDB_ESTIMATE",
]

#: Estimated fraction of a relation surviving one bound argument position.
SELECTIVITY = 0.1

#: Size guess for IDB relations that are still empty when a plan is
#: compiled (recursive predicates grow after compilation).
DEFAULT_IDB_ESTIMATE = 16

#: ``size_of`` callback: estimated row count of a positive literal's relation.
SizeEstimator = Callable[[Literal], float]

_ORDERED_ITEM = tuple  # (BodyItem, is_delta)


# ----------------------------------------------------------------------
# Body ordering
# ----------------------------------------------------------------------
def _split_body(rule: Rule, delta_index: int | None):
    """Positive literals (with body indexes) and filter items, plus the
    delta pair pulled out of the positives (when requested)."""
    positives = [
        (idx, item)
        for idx, item in enumerate(rule.body)
        if isinstance(item, Literal) and item.positive
    ]
    filters = [
        item
        for item in rule.body
        if isinstance(item, OrderAtom) or (isinstance(item, Literal) and not item.positive)
    ]
    delta_pair = None
    if delta_index is not None:
        for pair in positives:
            if pair[0] == delta_index:
                delta_pair = pair
                positives.remove(pair)
                break
        if delta_pair is None:
            raise ValueError(f"delta index {delta_index} is not a positive literal of {rule}")
    return positives, filters, delta_pair


def _flush_filters(plan, bound, remaining_filters) -> None:
    """Append every filter whose variables are bound (to a fixpoint)."""
    progressing = True
    while progressing:
        progressing = False
        for item in list(remaining_filters):
            if item.variables() <= bound:
                plan.append((item, False))
                remaining_filters.remove(item)
                progressing = True


def _finish_order(rule, plan, remaining_filters) -> list[tuple]:
    if remaining_filters:
        # Safety guarantees this never happens for safe rules whose
        # filter variables are positively bound.
        raise ValueError(f"rule {rule} has filters with unbound variables")
    return plan


def order_body_greedy(rule: Rule, delta_index: int | None) -> list[tuple]:
    """The seed interpreter's static join order.

    Returns ``(body item, is_delta)`` pairs: the delta literal (when
    present) first, then positive literals greedily by bound-argument
    count (ties broken toward fewer fresh variables, then textual
    order), with filters flushed as soon as they are evaluable.
    """
    positives, filters, delta_pair = _split_body(rule, delta_index)
    plan: list[tuple] = []
    bound: set[Variable] = set()
    if delta_pair is not None:
        plan.append((delta_pair[1], True))
        bound |= delta_pair[1].variables()
    _flush_filters(plan, bound, filters)
    while positives:
        best = max(
            positives,
            key=lambda pair: (
                sum(
                    1
                    for arg in pair[1].args
                    if isinstance(arg, Constant) or arg in bound
                ),
                -len(pair[1].variables() - bound),
            ),
        )
        positives.remove(best)
        plan.append((best[1], False))
        bound |= best[1].variables()
        _flush_filters(plan, bound, filters)
    _flush_filters(plan, bound, filters)
    return _finish_order(rule, plan, filters)


def _scan_cost(literal: Literal, bound: set[Variable], size_of: SizeEstimator) -> float:
    bound_count = sum(
        1 for arg in literal.args if isinstance(arg, Constant) or arg in bound
    )
    arity = len(literal.args)
    if arity and bound_count == arity:
        return 0.0  # fully bound: compiles to an existence check, scans nothing
    return max(size_of(literal), 0.0) * (SELECTIVITY ** bound_count)


def order_body_cost(
    rule: Rule, delta_index: int | None, size_of: SizeEstimator
) -> list[tuple]:
    """Cost-based static join order.

    Like :func:`order_body_greedy` (delta literal first, filters
    flushed as soon as bound) but positive literals are chosen greedily
    by minimal estimated scan cost
    ``relation_size × SELECTIVITY^bound_positions``; ties prefer more
    bound positions, then textual order.  An empty relation costs 0 and
    is scanned first, short-circuiting the whole join.

    Once variables are bound, the choice is restricted to *connected*
    literals — ones sharing a bound variable or costing nothing — so a
    cheap but unrelated literal can never introduce a cross product
    (falling back to all literals when none is connected).
    """
    positives, filters, delta_pair = _split_body(rule, delta_index)
    plan: list[tuple] = []
    bound: set[Variable] = set()
    if delta_pair is not None:
        plan.append((delta_pair[1], True))
        bound |= delta_pair[1].variables()
    _flush_filters(plan, bound, filters)
    while positives:
        candidates = [
            pair
            for pair in positives
            if pair[1].variables() & bound
            or _scan_cost(pair[1], bound, size_of) == 0.0
        ] or positives
        best = min(
            candidates,
            key=lambda pair: (
                _scan_cost(pair[1], bound, size_of),
                -sum(
                    1
                    for arg in pair[1].args
                    if isinstance(arg, Constant) or arg in bound
                ),
                pair[0],
            ),
        )
        positives.remove(best)
        plan.append((best[1], False))
        bound |= best[1].variables()
        _flush_filters(plan, bound, filters)
    _flush_filters(plan, bound, filters)
    return _finish_order(rule, plan, filters)


# ----------------------------------------------------------------------
# Compiled steps
# ----------------------------------------------------------------------
# A term layout is a tuple of (is_slot, payload): payload is a slot
# index when is_slot, else an inlined constant value.


class _ScanStep:
    """Probe (or fully scan) a relation, binding fresh variable slots."""

    __slots__ = ("literal", "is_delta", "rel_index", "key_positions", "key_layout", "sets", "checks")

    def __init__(self, literal, is_delta, rel_index, key_positions, key_layout, sets, checks):
        self.literal = literal
        self.is_delta = is_delta
        self.rel_index = rel_index
        self.key_positions = key_positions
        self.key_layout = key_layout
        self.sets = sets
        self.checks = checks

    def describe(self) -> str:
        tag = "scan*" if self.is_delta else "scan"
        key = f" key={list(self.key_positions)}" if self.key_positions else " full"
        return f"{tag} {self.literal!r}{key}"


class _ExistsStep:
    """A positive literal whose positions are all bound: set membership,
    zero rows scanned."""

    __slots__ = ("literal", "is_delta", "rel_index", "layout")

    def __init__(self, literal, is_delta, rel_index, layout):
        self.literal = literal
        self.is_delta = is_delta
        self.rel_index = rel_index
        self.layout = layout

    def describe(self) -> str:
        return f"exists {self.literal!r}"


class _OrderStep:
    """A fully bound order atom."""

    __slots__ = ("atom", "left", "right")

    def __init__(self, atom, left, right):
        self.atom = atom
        self.left = left
        self.right = right

    def describe(self) -> str:
        return f"filter {self.atom!r}"


class _NegStep:
    """A fully bound negated EDB literal: absence test against the relation."""

    __slots__ = ("literal", "rel_index", "layout")

    def __init__(self, literal, rel_index, layout):
        self.literal = literal
        self.rel_index = rel_index
        self.layout = layout

    def describe(self) -> str:
        return f"neg {self.literal!r}"


# ----------------------------------------------------------------------
# Generated kernels
# ----------------------------------------------------------------------
# A plan *shape* is ``(steps, head, num_slots, num_consts)`` with every
# constant replaced by its index into the plan's constants tuple, so it
# holds nothing but small ints, bools and the fixed tags below: the
# source generated from it cannot contain program text.

#: CPython compiles at most 20 statically nested blocks per function; a
#: longer join continues in a chained kernel function.
_MAX_LOOPS = 16

_PY_OP = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "!=": "!="}


def _plan_shape(steps, head_layout, num_slots):
    """``(shape, constants)`` of a compiled step list."""
    consts: list = []

    def shaped(layout):
        terms = []
        for is_slot, payload in layout:
            if not is_slot:
                consts.append(payload)
                payload = len(consts) - 1
            terms.append((is_slot, payload))
        return tuple(terms)

    shape = []
    for step in steps:
        kind = step.__class__
        if kind is _OrderStep:
            shape.append(("order", step.atom.op, *shaped((step.left, step.right))))
        elif kind is _ScanStep:
            arity = step.literal.atom.arity
            shape.append(("scan", shaped(step.key_layout), step.sets, step.checks, arity))
        else:
            shape.append(("neg" if kind is _NegStep else "exists", shaped(step.layout)))
    head = shaped(head_layout)
    return (tuple(shape), head, num_slots, len(consts)), tuple(consts)


def _term(term) -> str:
    is_slot, index = term
    return f"s{index}" if is_slot else f"k{index}"


def _tuple(names) -> str:
    names = list(names)
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _kernel_source(shape) -> str:
    """Python source of ``kernel(rels, stats, live, k, prov, gov)`` for
    one plan shape.

    Nested ``for`` loops over local slot variables ``s<i>``; the
    innermost line builds the **head** row and files it in ``fresh``
    unless ``live`` — the head relation's row set, only ever read here:
    the rule may be scanning it — or ``fresh`` holds it, with the slot
    tuple as value under ``prov``.  Returns ``(matches, fresh)``.  Work
    is counted in locals and flushed to ``stats`` in a ``finally``, so
    an abort inside the loops reports the probes made so far; ``gov``
    is asked (``tick_scan``) at the first bucket after each stride of
    scanned rows.
    """
    steps, head, num_slots, num_consts = shape
    rels = []
    for step in steps:
        if step[0] != "order":
            rels.append(f"{'g' if step[0] == 'scan' and step[1] else 'r'}{len(rels)}")
    prologue = [f"    {_tuple(rels)} = rels"] if rels else []
    if num_consts:
        prologue.append(f"    {_tuple(f'k{i}' for i in range(num_consts))} = k")
    prologue += [
        "    probes = scanned = matches = 0",
        "    due = gov.stride if gov is not None else 0",
        "    try:",
    ]
    epilogue = ["    finally:", "        stats.probes += probes"]
    epilogue += ["        stats.rows_scanned += scanned"]
    args = "rels, stats, live, k, prov, gov"
    lines = [f"def kernel({args}):", "    fresh = dict()", *prologue]
    done = "return matches, fresh"
    bound = loops = chained = 0  # slots bound; loops open in, functions before, this one
    counted = False  # whether the last scan added its bucket to ``matches`` whole

    def emit(line: str) -> None:
        lines.append("    " * (loops + 2) + line)

    rel = 0
    for number, step in enumerate(steps):
        kind = step[0]
        skip = "continue" if loops else done
        if kind == "order":
            _, op, left, right = step
            a, b, py = _term(left), _term(right), _PY_OP[op]
            if op in ("=", "!="):
                emit(f"if not {a} {py} {b}: {skip}")
            else:
                emit(
                    f"if not ({a} {py} {b} if type({a}) in NUMERIC and type({b}) in NUMERIC"
                    f" else compare({a}, {b}, {op!r})): {skip}"
                )
            continue
        name = rels[rel]
        rel += 1
        if kind == "exists":
            emit("probes += 1")
            emit(f"if {_tuple(map(_term, step[1]))} not in {name}: {skip}")
        elif kind == "neg":
            emit(f"if {_tuple(map(_term, step[1]))} in {name}: {skip}")
        else:
            _, key, sets, checks, arity = step
            if loops == _MAX_LOOPS:
                chained += 1
                call = f"kernel{chained}({args}, fresh{''.join(f', s{i}' for i in range(bound))})"
                emit(f"matches += {call}")
                lines += [*epilogue, f"    {done}", "", f"def {call}:", *prologue]
                loops, done = 0, "return matches"
            names = ["_"] * arity
            for slot, pos in sets:
                names[pos] = f"s{slot}"
            for slot, pos in checks:
                names[pos] = f"c{pos}"
            emit("probes += 1")
            if key:
                # A one-column index is keyed by the bare value.
                probe = _term(key[0]) if len(key) == 1 else _tuple(map(_term, key))
                emit(f"rows = {name}({probe}, ())")
                name = "rows"
            emit(f"scanned += len({name})")
            emit("if gov is not None and scanned >= due: due = gov.tick_scan('rule', stats, scanned, len(fresh))")
            counted = number == len(steps) - 1 and not checks
            if counted:
                emit(f"matches += len({name})")
            emit(f"for {_tuple(names)} in {name}:")
            loops += 1
            bound += len(sets)
            for slot, pos in checks:
                emit(f"if s{slot} != c{pos}: continue")
    if not counted:
        emit("matches += 1")
    emit(f"h = {_tuple(map(_term, head))}")
    support = _tuple(f"s{i}" for i in range(num_slots))
    emit(f"if h not in live and h not in fresh: fresh[h] = {support} if prov else None")
    lines += [*epilogue, f"    {done}"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=256)
def _compiled_kernel(shape):
    """The kernel of a plan shape, compiled once per shape.

    ``compile()`` costs more than everything else in plan compilation;
    programs reuse a few dozen shapes, so plans share the function and
    own only their constants tuple.  The source is registered in
    :mod:`linecache` under ``<plan:HASH>`` for as long as the function
    lives, so tracebacks and profiles show the generated line.
    """
    source = _kernel_source(shape)
    name = f"<plan:{hashlib.sha1(source.encode()).hexdigest()[:12]}>"
    namespace = {"compare": evaluate_comparison, "NUMERIC": (int, float)}
    exec(compile(source, name, "exec"), namespace)
    # Popped, so the function is not in a cycle with its globals and
    # dies (finalizer included) with the last plan that holds it.
    kernel = namespace.pop("kernel")
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    weakref.finalize(kernel, linecache.cache.pop, name, None)
    return kernel


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
class _RelSpec:
    """How one step's relation is resolved and accessed at run time."""

    __slots__ = ("predicate", "arity", "is_delta", "kind", "key_positions")

    def __init__(self, predicate, arity, is_delta, kind, key_positions):
        self.predicate = predicate
        self.arity = arity
        self.is_delta = is_delta
        self.kind = kind  # "index" (hash index dict) or "rows" (row set)
        self.key_positions = key_positions


class RulePlan:
    """One rule compiled for one delta position (or none).

    ``run`` executes the generated kernel and returns the match count
    with the head rows that are new; :meth:`support_rows` projects a
    slot tuple onto the positive body literals (provenance).
    """

    __slots__ = (
        "rule",
        "rule_key",
        "delta_index",
        "delta_predicate",
        "num_slots",
        "slot_of",
        "steps",
        "rel_specs",
        "head_layout",
        "support_layouts",
        "_kernel",
        "_consts",
    )

    def __init__(self, rule: Rule, delta_index: int | None, ordered_body):
        self.rule = rule
        self.rule_key = repr(rule)
        self.delta_index = delta_index
        self.delta_predicate = None
        if delta_index is not None:
            item = rule.body[delta_index]
            assert isinstance(item, Literal)
            self.delta_predicate = item.predicate

        slot_of: dict[Variable, int] = {}

        def slot(var: Variable) -> int:
            found = slot_of.get(var)
            if found is None:
                found = slot_of[var] = len(slot_of)
            return found

        def term_layout(arg):
            if isinstance(arg, Constant):
                return (False, arg.value)
            return (True, slot_of[arg])

        steps: list = []
        rel_specs: list[_RelSpec] = []
        bound: set[Variable] = set()
        for item, is_delta in ordered_body:
            if isinstance(item, Literal) and item.positive:
                key_positions: list[int] = []
                key_layout: list[tuple] = []
                sets: list[tuple[int, int]] = []
                checks: list[tuple[int, int]] = []
                fresh: set[Variable] = set()
                for pos, arg in enumerate(item.args):
                    if isinstance(arg, Constant):
                        key_positions.append(pos)
                        key_layout.append((False, arg.value))
                    elif arg in bound:
                        key_positions.append(pos)
                        key_layout.append((True, slot_of[arg]))
                    elif arg in fresh:
                        checks.append((slot_of[arg], pos))
                    else:
                        sets.append((slot(arg), pos))
                        fresh.add(arg)
                rel_index = len(rel_specs)
                if len(key_positions) == len(item.args):
                    # Fully bound: membership, no index, no rows scanned.
                    steps.append(
                        _ExistsStep(item, is_delta, rel_index, tuple(key_layout))
                    )
                    rel_specs.append(
                        _RelSpec(item.predicate, item.atom.arity, is_delta, "rows", ())
                    )
                else:
                    positions = tuple(key_positions)
                    steps.append(
                        _ScanStep(
                            item,
                            is_delta,
                            rel_index,
                            positions,
                            tuple(key_layout),
                            tuple(sets),
                            tuple(checks),
                        )
                    )
                    rel_specs.append(
                        _RelSpec(
                            item.predicate,
                            item.atom.arity,
                            is_delta,
                            "index" if positions else "rows",
                            positions,
                        )
                    )
                bound |= item.variables()
            elif isinstance(item, OrderAtom):
                steps.append(
                    _OrderStep(item, term_layout(item.left), term_layout(item.right))
                )
            else:
                assert isinstance(item, Literal) and not item.positive
                rel_index = len(rel_specs)
                layout = tuple(term_layout(arg) for arg in item.args)
                steps.append(_NegStep(item, rel_index, layout))
                rel_specs.append(
                    _RelSpec(item.predicate, item.atom.arity, False, "rows", ())
                )

        try:
            head_layout = tuple(
                (False, arg.value) if isinstance(arg, Constant) else (True, slot_of[arg])
                for arg in rule.head.args
            )
        except KeyError as exc:
            raise ValueError(
                f"rule {rule} has a head variable not bound by a positive subgoal"
            ) from exc
        self.slot_of = slot_of
        self.num_slots = len(slot_of)
        self.steps = steps
        self.rel_specs = rel_specs
        self.head_layout = head_layout
        self.support_layouts = tuple(
            tuple(
                (False, arg.value) if isinstance(arg, Constant) else (True, slot_of[arg])
                for arg in lit.args
            )
            for lit in rule.positive_literals
        )
        shape, self._consts = _plan_shape(steps, head_layout, self.num_slots)
        self._kernel = _compiled_kernel(shape)

    # ------------------------------------------------------------------
    def run(
        self,
        relation_of,
        delta_relation: Relation | None,
        live: set,
        support: bool,
        stats,
        tracer=None,
        governor=None,
    ):
        """Execute the plan; return ``(matches, fresh)``.

        ``fresh`` maps each head row that ``live`` — the head relation's
        row set — does not hold to ``None``, or under ``support`` to the
        slot tuple of its first match, in order of first appearance.
        ``relation_of(predicate, arity)`` resolves non-delta relations;
        indexes are fetched once here (built on first use, counted in
        ``stats.index_builds`` and — under an enabled ``tracer`` —
        reported as ``index_build`` events).  An active ``governor`` is
        asked from inside the same kernel once per stride of scanned
        rows: a giant single-rule join stays cancellable and in budget.
        """
        rels = []
        for spec in self.rel_specs:
            rel = delta_relation if spec.is_delta else relation_of(spec.predicate, spec.arity)
            if rel.arity != spec.arity:
                # The kernel unpacks scanned rows by the literal's arity.
                raise ArityMismatch(spec.arity, rel.arity, spec.predicate)
            if spec.kind == "index":
                built = tracer is not None and not rel.has_index(spec.key_positions)
                rels.append(rel.index_for(spec.key_positions, stats).get)
                if built:
                    tracer.event(
                        "index_build",
                        predicate=spec.predicate,
                        positions=",".join(map(str, spec.key_positions)),
                        rows=len(rel),
                        delta=spec.is_delta,
                    )
            else:
                rels.append(rel.all_rows())
        if governor is not None and not governor.active:
            governor = None  # can never trip: not worth a test per bucket
        stats.env_allocations += 1
        matches, fresh = self._kernel(rels, stats, live, self._consts, support, governor)
        stats.env_allocations += matches
        return matches, fresh

    # ------------------------------------------------------------------
    def run_blocks(
        self,
        relation_of,
        delta_relation,
        interner,
        stats,
        tracer=None,
        governor=None,
    ):
        """Batched execution over columnar relations: ``(n, cols)``.

        The columnar counterpart of :meth:`run`.  The block state is a
        list of **code columns** indexed by slot (``None`` for slots not
        yet bound) plus the current row count ``n``; every step is one
        kernel invocation over the whole block:

        * *scan* — probe the code-level hash index once per input row
          (``stats.probes`` counts input rows, identically to the
          per-row engine; ``stats.block_probes`` counts kernel calls),
          accumulate matching rowids, then gather the live columns and
          the newly bound columns with list comprehensions — the only
          per-row Python in the loop is one dict lookup;
        * *existence / negation / order filters* — build a keep list
          over the block and compact every live column through it.

        Probe-key constants resolve through ``interner.code_of`` (a
        value the data never contained misses every bucket — it is
        **not** interned); ``=``/``!=`` filters compare codes directly,
        other comparisons decode through the interner's value table.
        ``stats.rows_scanned`` counts exactly what the per-row engine
        counts, so governor row budgets behave identically; a
        ``governor`` is ticked once per kernel with the block size.
        """
        num_slots = self.num_slots
        cols: list = [None] * num_slots
        n = 1
        code_of = interner.code_of
        values = interner.values

        def compact(keep: list) -> None:
            nonlocal cols, n
            if len(keep) != n:
                cols = [
                    None if col is None else [col[i] for i in keep] for col in cols
                ]
                n = len(keep)

        for step in self.steps:
            if n == 0:
                break
            kind = step.__class__
            if kind is _ScanStep:
                rel = (
                    delta_relation
                    if step.is_delta
                    else relation_of(step.literal.predicate, step.literal.atom.arity)
                )
                stats.probes += n
                stats.block_probes += 1
                rel_cols = rel.columns
                sel: list[int] = []
                rids: list[int] = []
                if step.key_positions:
                    if tracer is not None and not rel.has_code_index(step.key_positions):
                        index = rel.index_codes(step.key_positions, stats)
                        tracer.event(
                            "index_build",
                            predicate=step.literal.predicate,
                            positions=",".join(map(str, step.key_positions)),
                            rows=len(rel),
                            delta=step.is_delta,
                        )
                    else:
                        index = rel.index_codes(step.key_positions, stats)
                    layout = step.key_layout
                    if len(layout) == 1:
                        is_slot, payload = layout[0]
                        keys = cols[payload] if is_slot else _repeat(code_of(payload), n)
                    else:
                        keys = zip(
                            *(
                                cols[p] if s else _repeat(code_of(p), n)
                                for s, p in layout
                            )
                        )
                    get = index.get
                    sel_append = sel.append
                    rids_append = rids.append
                    sel_extend = sel.extend
                    rids_extend = rids.extend
                    i = 0
                    for key in keys:
                        hit = get(key)
                        if hit:
                            if len(hit) == 1:
                                sel_append(i)
                                rids_append(hit[0])
                            else:
                                sel_extend(_repeat(i, len(hit)))
                                rids_extend(hit)
                        i += 1
                    stats.rows_scanned += len(rids)
                else:
                    m = len(rel)
                    stats.rows_scanned += n * m
                    if m:
                        base = list(range(m))
                        if n == 1:
                            sel = [0] * m
                            rids = base
                        else:
                            rids = base * n
                            sel = [i for i in range(n) for _ in base]
                if rids and step.checks:
                    # Repeated variables within the literal: both sides
                    # come from the same scanned row, so compare columns.
                    setpos = {slot: pos for slot, pos in step.sets}
                    pairs = [
                        (rel_cols[setpos[slot]], rel_cols[pos])
                        for slot, pos in step.checks
                    ]
                    kept_sel: list[int] = []
                    kept_rids: list[int] = []
                    for i, r in zip(sel, rids):
                        for left, right in pairs:
                            if left[r] != right[r]:
                                break
                        else:
                            kept_sel.append(i)
                            kept_rids.append(r)
                    sel, rids = kept_sel, kept_rids
                stats.env_allocations += 1
                new_cols: list = [None] * num_slots
                for slot in range(num_slots):
                    col = cols[slot]
                    if col is not None:
                        new_cols[slot] = [col[i] for i in sel]
                for slot, pos in step.sets:
                    col = rel_cols[pos]
                    new_cols[slot] = [col[r] for r in rids]
                cols = new_cols
                n = len(rids)
            elif kind is _ExistsStep:
                rel = (
                    delta_relation
                    if step.is_delta
                    else relation_of(step.literal.predicate, step.literal.atom.arity)
                )
                stats.probes += n
                stats.block_probes += 1
                rowset = rel.code_rows()
                if not step.layout:
                    # Propositional literal: one global membership test.
                    if () not in rowset:
                        compact([])
                else:
                    keys = zip(
                        *(
                            cols[p] if s else _repeat(code_of(p), n)
                            for s, p in step.layout
                        )
                    )
                    compact([i for i, key in enumerate(keys) if key in rowset])
            elif kind is _NegStep:
                rel = relation_of(step.literal.predicate, step.literal.atom.arity)
                rowset = rel.code_rows()
                if not step.layout:
                    if () in rowset:
                        compact([])
                else:
                    keys = zip(
                        *(
                            cols[p] if s else _repeat(code_of(p), n)
                            for s, p in step.layout
                        )
                    )
                    compact([i for i, key in enumerate(keys) if key not in rowset])
            else:
                assert kind is _OrderStep
                ls, lp = step.left
                rs, rp = step.right
                op = step.atom.op
                if not ls and not rs:
                    # Ground order atom: one evaluation decides the block.
                    if not evaluate_comparison(lp, rp, op):
                        compact([])
                elif op == "=" or op == "!=":
                    # Codes are bijective with ==-distinct values, so
                    # (in)equality compares codes without decoding; an
                    # un-interned constant can equal no stored value.
                    left = cols[lp] if ls else _repeat(code_of(lp), n)
                    right = cols[rp] if rs else _repeat(code_of(rp), n)
                    if op == "=":
                        compact(
                            [i for i, (a, b) in enumerate(zip(left, right)) if a == b]
                        )
                    else:
                        compact(
                            [i for i, (a, b) in enumerate(zip(left, right)) if a != b]
                        )
                else:
                    # Ordering comparisons need real values: codes are
                    # dense ints in first-seen order, not value order.
                    left = (
                        [values[c] for c in cols[lp]] if ls else _repeat(lp, n)
                    )
                    right = (
                        [values[c] for c in cols[rp]] if rs else _repeat(rp, n)
                    )
                    compact(
                        [
                            i
                            for i, (a, b) in enumerate(zip(left, right))
                            if evaluate_comparison(a, b, op)
                        ]
                    )
            if governor is not None:
                governor.tick_batch("rule", n)
        return n, cols

    def support_rows(self, env: Sequence[object]) -> list[tuple[str, tuple]]:
        """``(predicate, ground row)`` for each positive body literal
        (original rule order) — the provenance supports."""
        return [
            (lit.predicate, tuple(env[p] if s else p for s, p in layout))
            for lit, layout in zip(self.rule.positive_literals, self.support_layouts)
        ]

    def describe(self) -> str:
        """One line per step — the plan the profiler and traces report."""
        return "; ".join(step.describe() for step in self.steps)

    def source(self) -> str:
        """The generated kernel's source (``<plan:…>`` in tracebacks)."""
        return "".join(linecache.getlines(self._kernel.__code__.co_filename))

    def __repr__(self) -> str:
        delta = "" if self.delta_index is None else f", delta={self.delta_index}"
        return f"RulePlan({self.rule_key!r}{delta})"


def compile_rule(
    rule: Rule, delta_index: int | None = None, *, size_of: SizeEstimator
) -> RulePlan:
    """Compile ``rule`` into a :class:`RulePlan`, body in cost order.

    ``size_of`` estimates each positive literal's relation size (see
    :func:`order_body_cost`).  ``delta_index`` marks the body literal
    to read from the semi-naive delta relation; it is always scanned
    first.
    """
    return RulePlan(rule, delta_index, order_body_cost(rule, delta_index, size_of))
