"""Compiled slot-based join plans with cost-based body reordering.

This module is the join engine of :mod:`repro.datalog.evaluation`.  A
rule is compiled **once per (rule, delta-position)** into a
:class:`RulePlan`:

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
  only if it is new (a renaming rule ``p(X) :- q(X).`` has no loop: its
  new rows are one set difference), ``compile()``-d once per shape and
  shared by every plan of that shape — plain or governed, over value
  rows or interner codes — through a bounded cache.  The step objects
  stay as the plan's description (:meth:`RulePlan.describe`, the
  profiler); the kernel is derived from their integer layouts alone,
  constants travel as data, and no predicate, variable or constant
  text ever reaches ``compile()``.

Plans order their body with :func:`order_body_cost`: the delta literal
first, then literals by estimated scan cost
``relation_size × SELECTIVITY^bound_positions`` (fully bound literals
cost nothing — they become existence checks), so small relations such
as magic predicates are joined before large ones even when neither has
a bound argument yet.

Relations are accessed through :meth:`Relation.index_for` /
:meth:`Relation.all_rows`: the index for a probe's position set is
fetched **once per rule execution** (built lazily, reused across
semi-naive iterations) instead of once per probed row, and a bucket
whose key an outer loop fixes is looked up once per row of that loop
(``hoisted to loop N`` in :meth:`RulePlan.describe`).

On columnar storage (``Database(storage="columnar")``, see
``docs/storage.md``) the rows, index keys and slots hold interner
codes, and :meth:`RulePlan.run` hands the same kernel the plan's
constants as codes: a body constant the data never held is the
probe-miss sentinel, a head constant is interned.  ``=`` and ``!=``
compare codes; only an ordering comparison (``<`` ``<=`` ``>`` ``>=``)
of a slot needs its value, so a shape with one compiles a second
variant that decodes those operands through the interner's value
table where their loop binds them.
"""

from __future__ import annotations

import hashlib
import linecache
import weakref
from functools import lru_cache
from itertools import filterfalse
from typing import Callable

from .atoms import Literal, OrderAtom, evaluate_comparison
from .database import ArityMismatch, Frontier, Relation
from .rules import Rule
from .terms import Constant, Variable

__all__ = [
    "RulePlan",
    "compile_rule",
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


def order_body_cost(
    rule: Rule, delta_index: int | None, size_of: SizeEstimator
) -> list[tuple]:
    """Cost-based static join order.

    Returns ``(body item, is_delta)`` pairs: the delta literal (when
    present) first, filters flushed as soon as their variables are
    bound, and positive literals chosen greedily by minimal estimated
    scan cost
    ``relation_size × SELECTIVITY^bound_positions``; ties prefer more
    bound positions, then textual order.  An empty relation costs 0 and
    is scanned first, short-circuiting the whole join.  A fully bound
    literal costs 0 too: it compiles to an existence check.

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
    # Each literal's size, variables and constants are read once per call.
    left = []
    for index, item in positives:
        terms = [arg for arg in item.args if not isinstance(arg, Constant)]
        constants = len(item.args) - len(terms)
        left.append((index, item, max(size_of(item), 0.0), item.variables(), terms, constants))
    is_bound = bound.__contains__  # ``bound`` only ever grows in place
    while left:
        scored = []
        for entry in left:
            index, _, size, variables, terms, constants = entry
            bound_count = constants + sum(map(is_bound, terms))
            arity = constants + len(terms)
            if arity and bound_count == arity:
                cost = 0.0  # fully bound: an existence check, scans nothing
            else:
                cost = size * (SELECTIVITY ** bound_count)
            connected = cost == 0.0 or not variables.isdisjoint(bound)
            scored.append(((cost, -bound_count, index), connected, entry))
        best = min([s for s in scored if s[1]] or scored)[2]
        left.remove(best)
        plan.append((best[1], False))
        bound |= best[3]
        _flush_filters(plan, bound, filters)
    _flush_filters(plan, bound, filters)
    if filters:
        # Safety guarantees this never happens for safe rules whose
        # filter variables are positively bound.
        raise ValueError(f"rule {rule} has filters with unbound variables")
    return plan


# ----------------------------------------------------------------------
# Compiled steps
# ----------------------------------------------------------------------
# A term layout is a tuple of (is_slot, payload): payload is a slot
# index when is_slot, else an inlined constant value.


class _ScanStep:
    """Probe (or fully scan) a relation, binding fresh variable slots."""

    __slots__ = ("literal", "is_delta", "key_positions", "key_layout", "sets", "checks")

    def __init__(self, literal, is_delta, key_positions, key_layout, sets, checks):
        self.literal = literal
        self.is_delta = is_delta
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

    __slots__ = ("literal", "layout")

    def __init__(self, literal, layout):
        self.literal = literal
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

    __slots__ = ("literal", "layout")

    def __init__(self, literal, layout):
        self.literal = literal
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
    """``(shape, constants, roles)`` of a compiled step list.

    ``roles[i]`` names the :class:`~repro.datalog.database.Interner`
    method that turns constant ``i`` into what a kernel over codes
    compares it with: ``"code_of"`` where it meets stored codes (probe
    keys, membership tests, ``=`` / ``!=`` against a slot), ``"intern"``
    in the head, ``None`` where the value itself is compared.
    """
    consts: list = []
    roles: list = []

    def shaped(layout, role):
        terms = []
        for is_slot, payload in layout:
            if not is_slot:
                consts.append(payload)
                roles.append(role)
                payload = len(consts) - 1
            terms.append((is_slot, payload))
        return tuple(terms)

    shape = []
    for step in steps:
        kind = step.__class__
        if kind is _OrderStep:
            left, right = step.left, step.right
            equality = step.atom.op in ("=", "!=") and (left[0] or right[0])
            shape.append(("order", step.atom.op, *shaped((left, right), "code_of" if equality else None)))
        elif kind is _ScanStep:
            arity = step.literal.atom.arity
            shape.append(("scan", shaped(step.key_layout, "code_of"), step.sets, step.checks, arity))
        else:
            shape.append(("neg" if kind is _NegStep else "exists", shaped(step.layout, "code_of")))
    head = shaped(head_layout, "intern")
    return (tuple(shape), head, num_slots, len(consts)), tuple(consts), tuple(roles)


def _ordering(step) -> bool:
    """Whether a shape step is an ordering comparison (``<`` ``<=`` ``>`` ``>=``)."""
    return step[0] == "order" and step[1] not in ("=", "!=")


def _orders_slots(shape) -> bool:
    """Whether an ordering comparison of the shape reads a slot."""
    return any(_ordering(step) and (step[2][0] or step[3][0]) for step in shape[0])


def _hoists(steps) -> dict[int, int]:
    """``{step number: loop}`` for each keyed scan whose key is fixed
    outside the loop the scan sits in.

    Loops are numbered from 1 in nesting order; ``loop`` is the one
    whose row binds the key's last slot, 0 when only constants key it,
    and never one before the chained function the scan runs in.  The
    kernel looks such a bucket up on its first use per row of ``loop``
    and reuses it for every row of the loops in between.
    """
    bound_in: dict[int, int] = {}  # slot -> the loop binding it
    hoists: dict[int, int] = {}
    loops = base = 0  # loops open; loops open outside this chained function
    for number, step in enumerate(steps):
        if step[0] != "scan":
            continue
        _, key, sets, _, _ = step
        if loops - base == _MAX_LOOPS:
            base = loops
        loop = max([base, *(bound_in[slot] for is_slot, slot in key if is_slot)])
        if key and loop < loops:
            hoists[number] = loop
        loops += 1
        for slot, _ in sets:
            bound_in[slot] = loops
    return hoists


def _term(term) -> str:
    is_slot, index = term
    return f"s{index}" if is_slot else f"k{index}"


def _tuple(names) -> str:
    names = list(names)
    return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"


def _kernel_source(shape, decode: bool = False) -> str:
    """Python source of ``kernel(rels, stats, live, k, gov)`` for one
    plan shape.

    Nested ``for`` loops over local slot variables ``s<i>``; the
    innermost line builds the **head** row and files it in ``fresh``
    unless ``live`` — the head relation's row set, only ever read here:
    the rule may be scanning it — holds it.  Returns ``(matches,
    fresh)``.  Work is counted in locals and flushed to ``stats`` in a
    ``finally``, so an abort inside the loops reports the probes made
    so far; ``gov`` is asked (``tick_scan``) at the first bucket after
    each stride of scanned rows.  With ``decode`` the slots hold
    interner codes, ``k`` ends with the interner's value table ``V``
    and ordering comparisons read the decoded ``v<i> = V[s<i>]``.

    Nothing is done more often than its inputs change.  A probe whose
    key an outer loop fixes (:func:`_hoists`) is made on first use per
    row of that loop and kept in ``b<i>``; an empty bucket ends the
    loop it sits in.  Each operand of an ordering comparison is
    type-tested once — a constant in the prologue, a slot where its
    loop binds it — into ``t<operand>``.

    A renaming rule ``p(X, Y) :- q(X, Y).`` — one full scan of distinct
    variables, the head those variables in order — has no loop: its
    new rows are the set difference ``r0 - live`` (over a frontier,
    which is a list, the rows ``live`` lacks).
    """
    steps, head, num_slots, num_consts = shape
    identity = (
        len(steps) == 1
        and steps[0][0] == "scan"
        and not steps[0][1]  # no probe key: a full scan, no constant
        and not steps[0][3]  # no repeated variable
        and head == tuple((True, slot) for slot in range(num_slots))
    )
    hoists = _hoists(steps)
    rels, rel_of = [], {}
    for number, step in enumerate(steps):
        if step[0] != "order":
            rel_of[number] = f"{'g' if step[0] == 'scan' and step[1] else 'r'}{len(rels)}"
            rels.append(rel_of[number])
    # The operands ordering comparisons read, each type-tested once.
    tested = {term for step in steps if _ordering(step) for term in step[2:]}
    prologue = [f"    {_tuple(rels)} = rels"] if rels else []
    consts = [f"k{i}" for i in range(num_consts)] + ["V"] * decode
    if consts:
        prologue.append(f"    {_tuple(consts)} = k")
    prologue += [f"    tk{i} = type(k{i}) in NUMERIC" for is_slot, i in sorted(tested) if not is_slot]
    prologue += [
        "    probes = scanned = matches = 0",
        "    due = gov.stride if gov is not None else 0",
        "    try:",
    ]
    epilogue = ["    finally:", "        stats.probes += probes"]
    epilogue += ["        stats.rows_scanned += scanned"]
    args = "rels, stats, live, k, gov"
    lines = [f"def kernel({args}):", "    fresh = dict()", *prologue]
    done = "return matches, fresh"
    # slots bound; loops open in this function, in all; functions before this one
    bound = loops = depth = chained = 0
    counted = False  # whether the last scan added its bucket to ``matches`` whole

    def emit(line: str) -> None:
        lines.append("    " * (loops + 2) + line)

    def test(slot: int) -> None:
        if decode:
            emit(f"v{slot} = V[s{slot}]")
        emit(f"ts{slot} = type({'v' if decode else 's'}{slot}) in NUMERIC")

    for number, step in enumerate(steps):
        kind = step[0]
        skip = "continue" if loops else done
        if kind == "order":
            _, op, left, right = step
            py = _PY_OP[op]
            if op in ("=", "!="):
                emit(f"if not {_term(left)} {py} {_term(right)}: {skip}")
            else:
                a, b = (f"v{t[1]}" if decode and t[0] else _term(t) for t in (left, right))
                emit(
                    f"if not ({a} {py} {b} if t{_term(left)} and t{_term(right)}"
                    f" else compare({a}, {b}, {op!r})): {skip}"
                )
            continue
        name = rel_of[number]
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
                later = {t for s in steps[number:] if _ordering(s) for t in s[2:]}
                for slot in range(bound):
                    if (True, slot) in later:
                        test(slot)
            names = ["_"] * arity
            for slot, pos in sets:
                names[pos] = f"s{slot}"
            for slot, pos in checks:
                names[pos] = f"c{pos}"
            if key:
                # A one-column index is keyed by the bare value.
                probe = _term(key[0]) if len(key) == 1 else _tuple(map(_term, key))
                if number in hoists:
                    bucket = f"b{name[1:]}"
                    emit(f"if {bucket} is None:")
                    emit(f"    probes += 1")
                    emit(f"    {bucket} = {name}({probe}, ())")
                    emit(f"if not {bucket}: break")
                    name = bucket
                else:
                    emit("probes += 1")
                    emit(f"rows = {name}({probe}, ())")
                    name = "rows"
            else:
                emit("probes += 1")
            emit(f"scanned += len({name})")
            emit("if gov is not None and scanned >= due: due = gov.tick_scan('rule', stats, scanned, len(fresh))")
            counted = number == len(steps) - 1 and not checks
            if counted:
                emit(f"matches += len({name})")
            if identity:
                break  # no loop: the set difference below is the whole join
            for later, loop in hoists.items():
                if loop == depth:
                    emit(f"b{rel_of[later][1:]} = None")
            emit(f"for {_tuple(names)} in {name}:")
            loops += 1
            depth += 1
            bound += len(sets)
            for slot, pos in checks:
                emit(f"if s{slot} != c{pos}: continue")
            for slot, _ in sets:
                if (True, slot) in tested:
                    test(slot)
    if identity:
        emit("if type(r0) is set: fresh = r0 - live")
        emit("else: fresh = list(filterfalse(live.__contains__, r0))")
    else:
        if not counted:
            emit("matches += 1")
        emit(f"h = {_tuple(map(_term, head))}")
        emit("if h not in live: fresh[h] = None")
    lines += [*epilogue, f"    {done}"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=256)
def _compiled_kernel(shape, decode: bool = False):
    """The kernel of a plan shape, compiled once per shape (and once
    more, decoding, for a columnar run of a shape that orders slots).

    ``compile()`` costs more than everything else in plan compilation;
    programs reuse a few dozen shapes, so plans share the function and
    own only their constants tuple.  The source is registered in
    :mod:`linecache` under ``<plan:HASH>`` for as long as the function
    lives, so tracebacks and profiles show the generated line.
    """
    source = _kernel_source(shape, decode)
    name = f"<plan:{hashlib.sha1(source.encode()).hexdigest()[:12]}>"
    namespace = {
        "compare": evaluate_comparison,
        "NUMERIC": (int, float),
        "filterfalse": filterfalse,
    }
    exec(compile(source, name, "exec"), namespace)
    # Popped, so the function is not in a cycle with its globals and
    # dies (finalizer included) with the last plan that holds it.
    kernel = namespace.pop("kernel")
    entry = linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    weakref.finalize(kernel, _forget_source, name, entry)
    return kernel


def _forget_source(name: str, entry: tuple) -> None:
    # A shape evicted from the cache and compiled again registers a new
    # entry under the same name; the old kernel's death must not take it.
    if linecache.cache.get(name) is entry:
        del linecache.cache[name]


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
    with the head rows that are new.
    """

    __slots__ = (
        "rule",
        "rule_key",
        "delta_index",
        "delta_predicate",
        "num_slots",
        "steps",
        "rel_specs",
        "_shape",
        "_kernel",
        "_consts",
        "_roles",
        "_decoding",
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
                if len(key_positions) == len(item.args):
                    # Fully bound: membership, no index, no rows scanned.
                    steps.append(_ExistsStep(item, tuple(key_layout)))
                    rel_specs.append(
                        _RelSpec(item.predicate, item.atom.arity, is_delta, "rows", ())
                    )
                else:
                    positions = tuple(key_positions)
                    steps.append(
                        _ScanStep(
                            item,
                            is_delta,
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
                layout = tuple(term_layout(arg) for arg in item.args)
                steps.append(_NegStep(item, layout))
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
        self.num_slots = len(slot_of)
        self.steps = steps
        self.rel_specs = rel_specs
        shape, self._consts, self._roles = _plan_shape(steps, head_layout, self.num_slots)
        self._shape = shape
        self._kernel = _compiled_kernel(shape)
        #: whether a run over codes needs the decoding variant
        self._decoding = _orders_slots(shape)

    # ------------------------------------------------------------------
    def run(
        self,
        relation_of,
        delta_relation: "Relation | Frontier | None",
        live: set,
        stats,
        tracer=None,
        governor=None,
        interner=None,
    ):
        """Execute the plan; return ``(matches, fresh)``.

        ``fresh`` holds each head row that ``live`` — the head relation's
        row set — does not.  For a renaming rule it is ``scanned - live``,
        a set, or a list when the scan is a
        :class:`~repro.datalog.database.Frontier`; otherwise an
        insertion-ordered dict of the rows in order of first appearance.
        ``relation_of(predicate, arity)`` resolves non-delta relations;
        indexes are fetched once here (built on first use, counted in
        ``stats.index_builds`` and — under an enabled ``tracer`` —
        reported as ``index_build`` events).  An active ``governor`` is
        asked from inside the same kernel once per stride of scanned
        rows: a giant single-rule join stays inside its deadline and its
        ``max_facts``.

        With an ``interner`` the relations, ``live`` and therefore
        ``fresh`` hold its codes; the constants are
        encoded for this run (see :func:`_plan_shape`).
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
        kernel, consts = self._kernel, self._consts
        if interner is not None:
            consts = tuple(
                value if role is None else getattr(interner, role)(value)
                for value, role in zip(consts, self._roles)
            )
            if self._decoding:
                kernel = _compiled_kernel(self._shape, True)
                consts += (interner.values,)
        stats.env_allocations += 1
        matches, fresh = kernel(rels, stats, live, consts, governor)
        stats.env_allocations += matches
        return matches, fresh

    def describe(self) -> str:
        """One line per step — the plan the profiler and traces report.

        A scan whose key an outer loop fixes says which (:func:`_hoists`).
        """
        hoists = _hoists(self._shape[0])
        return "; ".join(
            step.describe() + (f" hoisted to loop {hoists[number]}" if number in hoists else "")
            for number, step in enumerate(self.steps)
        )

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
