"""EDB storage: one relation layout, two encodings of its values.

A :class:`Database` maps EDB predicate names to relation objects and
owns the **storage** that decides what their tuples hold (see
``docs/storage.md`` for the full contract):

* ``storage="rows"`` — :class:`Relation`: a set of tuples of plain
  Python values (the ``value`` payloads of
  :class:`~repro.datalog.terms.Constant`) with lazily built hash
  indexes keyed by the bound argument positions a join probe uses.
* ``storage="columnar"`` — :class:`ColumnarRelation`: the same
  :class:`Relation` over **interner codes** — a per-database
  :class:`Interner` maps every constant to a dense int, and a row is
  the tuple of its values' codes.

The generated join kernels of :mod:`repro.datalog.plan` read
``all_rows`` / ``index_for`` and write ``add_fresh`` in whichever
encoding a relation stores, so one kernel serves both.  The value API
(``add`` / ``extend`` / ``in`` / ``probe`` / ``rows`` / iteration /
``to_rows`` / ``discard`` / ``copy``) encodes and decodes at the
boundary, so reports, digests and checkpoints see values either
way.  Answers agree under ``==``; where ``1``, ``1.0``
and ``True`` meet, the two encodings may keep different spellings of
one value (``docs/storage.md``).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from itertools import islice, starmap
from operator import attrgetter, eq, itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .atoms import Atom
from .terms import Constant
from ..robustness.errors import ReproError

__all__ = [
    "STORAGES",
    "ArityMismatch",
    "NonGroundFact",
    "FactRows",
    "Interner",
    "Relation",
    "ColumnarRelation",
    "UnionView",
    "Database",
]

Value = object
Row = tuple

#: Valid ``storage`` arguments of :class:`Database` (and ``evaluate``).
STORAGES = ("rows", "columnar")

#: Probe-side sentinel for constants that were never interned: it hashes
#: and compares like any object but equals no real code, so a probe key
#: containing it simply misses every index bucket and row set.
_MISSING = object()


class ArityMismatch(ReproError, ValueError):
    """A row whose length is not its relation's arity.

    Relations raise it unnamed; :class:`Database` re-raises it naming
    the predicate, which is what the CLI and the daemon report.
    """

    def __init__(self, expected: int, got: int, predicate: str | None = None):
        super().__init__(expected, got, predicate)
        self.expected = expected
        self.got = got
        self.predicate = predicate

    def __str__(self) -> str:
        where = f" for {self.predicate}" if self.predicate else ""
        return f"arity mismatch{where}: expected {self.expected}, got {self.got}"


def _check_arity(arity: int, rows: list[Row]) -> None:
    """Raise :class:`ArityMismatch` for the first row not ``arity`` long."""
    if set(map(len, rows)) - {arity}:
        got = next(len(row) for row in rows if len(row) != arity)
        raise ArityMismatch(arity, got)


def _build_index(rows: Collection[Row], positions: tuple[int, ...]) -> dict:
    """``rows`` bucketed by their projection on ``positions``.

    An index on one position is keyed by the bare value, one on several
    by the value tuple — ``itemgetter`` returns exactly that, so the
    keys of the whole batch come from one ``map`` with no Python call
    and no 1-tuple per row, and a kernel probes a single column with the
    slot it already holds.  ``rows`` is walked twice, keys and rows in
    step: a set nobody touches meanwhile keeps its order.
    """
    built: dict = {}
    bucket = built.setdefault
    for key, row in zip(map(itemgetter(*positions), rows), rows):
        bucket(key, []).append(row)
    return built


def _index_key(positions: tuple[int, ...], key: Sequence[Value]):
    """A probe's key tuple as the index on ``positions`` files it."""
    return key[0] if len(positions) == 1 else tuple(key)


class Interner:
    """Dictionary encoding: constants to dense int codes, per database.

    Codes are assigned in first-intern order (``0, 1, 2, …``) and never
    change, so code rows stay valid as relations grow.  Lookup uses
    Python ``==``/``hash`` semantics — values that compare equal
    (``1``, ``1.0``, ``True``) share one code, as equal rows collapse
    into one element of a row-storage tuple set, so interning never
    changes which rows a database can tell apart.  It may change their
    spelling: a code decodes to the value interned *first*, database
    wide, where a row set keeps each row's own.

    ``hits`` counts interning calls that found an existing code — the
    ``intern_hits`` evaluation counter reports the delta accumulated
    during one evaluation.
    """

    __slots__ = ("codes", "values", "hits")

    def __init__(self, values: Iterable[Value] = ()):
        self.codes: dict = {}
        self.values: list = []
        self.hits = 0
        for value in values:
            self.intern(value)

    def intern(self, value: Value) -> int:
        """The code for ``value``, assigning a fresh one on first sight."""
        code = self.codes.get(value)
        if code is None:
            code = len(self.values)
            self.codes[value] = code
            self.values.append(value)
        else:
            self.hits += 1
        return code

    def code_of(self, value: Value):
        """Probe-side lookup: the code, or the missing sentinel.

        Never inserts — probe constants must not pollute the dictionary
        with values the data never contained.
        """
        return self.codes.get(value, _MISSING)

    def decode(self, code: int) -> Value:
        return self.values[code]

    def to_list(self) -> list:
        """The value table in code order (JSON-ready for checkpoints)."""
        return list(self.values)

    def digest(self) -> str:
        """SHA-256 over the value table in code order.

        Two interners with equal digests assign the same code to every
        value, so code rows and shard messages produced against one
        decode identically against the other.  This is the equality the
        parallel workers' mirrors are held to.
        """
        hasher = hashlib.sha256()
        for value in self.values:
            hasher.update(repr(value).encode("utf-8"))
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def __reduce__(self):
        # Pickle only the value table: codes are a pure function of it
        # (first-intern order) and ``hits`` is process-local telemetry.
        # This keeps worker hand-off payloads compact and guarantees the
        # unpickled interner assigns identical codes.
        return (Interner, (list(self.values),))

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"Interner(values={len(self.values)}, hits={self.hits})"


class Relation:
    """A set of same-arity tuples with lazily built hash indexes.

    ``all_rows``, ``index_for`` and ``add_fresh`` hand out and take the
    tuples as stored: the join kernels use them, and on a
    :class:`ColumnarRelation` they are interner codes.
    """

    __slots__ = ("arity", "_rows", "_indexes")

    def __init__(self, arity: int, rows: Iterable[Row] = ()):
        self.arity = arity
        self._rows: set[Row] = set()
        # positions -> (row projection, index): ``add`` keys every built
        # index with the function ``_build_index`` keyed it with.
        self._indexes: dict[tuple[int, ...], tuple[Callable[[Row], object], dict]] = {}
        if rows:  # the engines make empty relations by the dozen per run
            self.extend(rows)

    def add(self, row: Sequence[Value]) -> bool:
        """Insert a tuple; return True when it was new."""
        row = tuple(row)
        if len(row) != self.arity:
            raise ArityMismatch(self.arity, len(row))
        if row in self._rows:
            return False
        self._rows.add(row)
        for key_of, index in self._indexes.values():
            index.setdefault(key_of(row), []).append(row)
        return True

    def extend(self, rows: Iterable[Row]) -> int:
        """Bulk :meth:`add` of tuples; returns how many were new.

        Every row's arity is checked before the first is inserted.  A
        relation without built indexes takes the batch in one set update.
        """
        rows = list(rows)
        _check_arity(self.arity, rows)
        before = len(self._rows)
        if self._indexes:
            held = self._rows
            self.add_fresh([row for row in dict.fromkeys(rows) if row not in held])
        else:
            self._rows.update(rows)
        return len(self._rows) - before

    def add_fresh(self, rows: "list[Row] | set[Row]") -> None:
        """Bulk insert of rows the caller has already vetted.

        ``rows`` must be distinct stored tuples of this arity that the
        relation does not hold (a kernel has just filtered a head batch
        against :meth:`all_rows`): the row set takes them in one update
        and each built index files them in ``rows`` order, which leaves
        exactly the state row-by-row :meth:`add` would.  ``rows`` is a
        list (a kernel's ordered ``fresh`` dict, listed) or a set (a
        renaming rule's set difference, or another relation's row set),
        which the row set takes without hashing its rows again.
        """
        self._rows.update(rows)
        for key_of, index in self._indexes.values():
            for row in rows:
                index.setdefault(key_of(row), []).append(row)

    def discard(self, rows: Iterable[Row]) -> None:
        """Remove ``rows`` (an aborted ingest takes back what it added).

        Built indexes are dropped rather than edited; they rebuild on
        the next probe.
        """
        self._rows.difference_update(rows)
        self._indexes.clear()

    def encode(self, row: Sequence[Value]) -> Row:
        """The tuple this relation stores for the value row ``row``."""
        return tuple(row)

    def __contains__(self, row: Sequence[Value]) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> frozenset[Row]:
        return frozenset(self._rows)

    def probe(self, positions: tuple[int, ...], key: Row) -> list[Row]:
        """Rows whose projection on ``positions`` equals ``key``.

        Builds (and caches) a hash index for ``positions`` on first use.
        An empty ``positions`` short-circuits to all rows — no degenerate
        empty-keyed index is ever built or cached.
        """
        if not positions:
            return list(self._rows)
        return self.index_for(positions).get(_index_key(positions, key), [])

    def index_for(self, positions: tuple[int, ...], stats=None) -> dict:
        """The hash index keyed by the projection on ``positions``: the
        bare value for one position, the value tuple for several.

        Built lazily on first use and kept incrementally up to date by
        :meth:`add`, so one index serves every probe and every
        semi-naive iteration.  A build increments ``stats.index_builds``
        when a stats object is given.  ``positions`` must be non-empty —
        full scans go through :meth:`all_rows` instead.
        """
        if not positions:
            raise ValueError("index_for needs bound positions; use all_rows() for full scans")
        entry = self._indexes.get(positions)
        if entry is None:
            entry = itemgetter(*positions), _build_index(self._rows, positions)
            self._indexes[positions] = entry
            if stats is not None:
                stats.index_builds += 1
        return entry[1]

    def has_index(self, positions: tuple[int, ...]) -> bool:
        """Whether the index for ``positions`` has already been built."""
        return positions in self._indexes

    def all_rows(self) -> set[Row]:
        """The internal row set (read-only view — do not mutate).

        The no-index fast path for fully unbound probes and for
        membership tests."""
        return self._rows

    def to_rows(self) -> list[Row]:
        """The rows as a deterministically ordered list (sorted by repr).

        The serialization counterpart of :meth:`rows`: JSON-ready (rows
        stay tuples; callers listify) and stable across runs, so
        serialized relations diff and digest cleanly.
        """
        return sorted(self._rows, key=repr)

    def copy(self) -> "Relation":
        fresh = Relation(self.arity)
        fresh._rows = set(self._rows)
        return fresh

    def __repr__(self) -> str:
        return f"{type(self).__name__}(arity={self.arity}, rows={len(self._rows)})"


class ColumnarRelation(Relation):
    """A :class:`Relation` whose rows are interner codes.

    The row set holds one int tuple per row and :func:`_build_index`
    keys the indexes by codes, so the join kernels run on it as they
    run on a :class:`Relation`.  The value API encodes and decodes at
    the boundary through the shared :class:`Interner`; a value it never
    interned reads as the probe-miss sentinel, so a lookup of it misses
    and interns nothing.
    """

    __slots__ = ("interner",)

    def __init__(self, arity: int, interner: Interner, rows: Iterable[Row] = ()):
        super().__init__(arity)
        self.interner = interner
        if rows:
            self.extend(rows)

    def encode(self, row: Sequence[Value]) -> tuple:
        """The code row of ``row``; a value never interned reads as the
        probe-miss sentinel."""
        return tuple(map(self.interner.code_of, row))

    def _decoded(self, rows: Iterable[tuple]) -> list[Row]:
        value_of = self.interner.values.__getitem__
        return [tuple(map(value_of, row)) for row in rows]

    def add(self, row: Sequence[Value]) -> bool:
        """Insert a value tuple (interning it); return True when new."""
        row = tuple(row)
        if len(row) != self.arity:
            raise ArityMismatch(self.arity, len(row))
        return super().add(tuple(map(self.interner.intern, row)))

    def extend(self, rows: Iterable[Row]) -> int:
        """Bulk :meth:`add` of value tuples; returns how many were new.

        Every row's arity is checked before the first is interned;
        values are interned in order of appearance in ``rows``, so the
        codes are the ones row-by-row :meth:`add` would assign.
        """
        rows = list(rows)
        _check_arity(self.arity, rows)
        intern = self.interner.intern
        return super().extend([tuple(map(intern, row)) for row in rows])

    def discard(self, rows: Iterable[Row]) -> None:
        super().discard(map(self.encode, rows))

    def __contains__(self, row: Sequence[Value]) -> bool:
        return self.encode(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._decoded(self._rows))

    def rows(self) -> frozenset[Row]:
        return frozenset(self._decoded(self._rows))

    def probe(self, positions: tuple[int, ...], key: Row) -> list[Row]:
        return self._decoded(super().probe(positions, self.encode(key)))

    def to_rows(self) -> list[Row]:
        return sorted(self._decoded(self._rows), key=repr)

    def copy(self) -> "ColumnarRelation":
        """An independent relation **sharing** this one's interner: codes
        are append-only, so both stay valid against it."""
        fresh = ColumnarRelation(self.arity, self.interner)
        fresh._rows = set(self._rows)
        return fresh


class Frontier:
    """A semi-naive frontier: one round's new rows, as stored, in a list.

    The fixpoint loop files each row here as it files it into the live
    relation, which has just checked that the row is new: the rows are
    distinct by construction, and the next round only walks them, so
    holding them in a second hash set would hash every derived row
    twice.  A frontier reads as much of a :class:`Relation` as a kernel
    and the fixpoint loop use — ``len``, ``all_rows`` (a list: iteration and
    ``in``), ``index_for`` / ``has_index`` for a delta literal with a
    constant, and ``add_fresh`` — in either storage's encoding.
    """

    __slots__ = ("arity", "_rows", "_indexes")

    def __init__(self, arity: int):
        self.arity = arity
        self._rows: list[Row] = []
        self._indexes: dict[tuple[int, ...], tuple[Callable[[Row], object], dict]] = {}

    def add_fresh(self, rows: "list[Row] | set[Row]") -> None:
        """Append rows no row of this frontier equals (as
        :meth:`Relation.add_fresh`)."""
        self._rows += rows
        for key_of, index in self._indexes.values():
            for row in rows:
                index.setdefault(key_of(row), []).append(row)

    index_for = Relation.index_for
    has_index = Relation.has_index

    def all_rows(self) -> list[Row]:
        """The internal row list (read-only view — do not mutate)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Frontier(arity={self.arity}, rows={len(self._rows)})"


class UnionView:
    """A relation that is the union of ``members``, read on demand.

    What an evaluation hands out for a union view
    (:attr:`~repro.datalog.program.Program.union_views`): no row is
    stored, so the view is always as current as its members — the live
    relations an ingest extends in place.  It reads like a
    :class:`Relation` through the value API (``len``, ``in``,
    iteration, ``rows``, ``probe``, ``to_rows``) and ``all_rows``; a
    probe asks each member's own index.  The members share one storage
    (one database's relations), so on codes the union is taken before
    anything is decoded.
    """

    __slots__ = ("arity", "members")

    def __init__(self, arity: int, members: Sequence[Relation]):
        self.arity = arity
        self.members = tuple(members)

    def all_rows(self) -> "set[Row] | frozenset[Row]":
        """The stored rows of every member (codes on columnar storage)."""
        if len(self.members) == 1:
            return self.members[0].all_rows()
        return frozenset().union(*(m.all_rows() for m in self.members))

    def _decoded(self, rows: Iterable[Row]) -> Iterable[Row]:
        first = self.members[0]
        return first._decoded(rows) if isinstance(first, ColumnarRelation) else rows

    def rows(self) -> frozenset[Row]:
        return frozenset(self._decoded(self.all_rows()))

    def __len__(self) -> int:
        return len(self.all_rows())

    def __contains__(self, row: Sequence[Value]) -> bool:
        return any(row in member for member in self.members)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows())

    def probe(self, positions: tuple[int, ...], key: Row) -> list[Row]:
        """Rows whose projection on ``positions`` equals ``key``, each
        once, from every member's index."""
        if len(self.members) == 1:
            return self.members[0].probe(positions, key)
        found: dict = {}
        for member in self.members:
            found.update(dict.fromkeys(member.probe(positions, key)))
        return list(found)

    def to_rows(self) -> list[Row]:
        return sorted(self.rows(), key=repr)

    def __repr__(self) -> str:
        return f"UnionView(arity={self.arity}, members={len(self.members)})"


_value_of = attrgetter("value")


class NonGroundFact(ReproError, ValueError):
    """An atom holding a variable where a ground fact was required."""


def _row_of(fact: Atom) -> Row:
    """The value tuple of a ground fact (a variable has no ``value``)."""
    try:
        return tuple(map(_value_of, fact.args))
    except AttributeError:
        raise NonGroundFact(f"fact {fact} is not ground") from None


def _atom_of(predicate: str, row: Row) -> Atom:
    return Atom(predicate, tuple(map(Constant, row)))


class FactRows(Sequence):
    """Ground facts held as value rows; reads as a sequence of atoms.

    What :func:`~repro.datalog.parser.parse_facts` returns and what
    :class:`Database` loads without building an :class:`Atom` or a
    :class:`Constant`.  ``groups`` maps each predicate, in order of
    first appearance, to its rows in source order; ``order`` names the
    predicate of every fact in source order, which is what interner
    codes, journal records and ``list(facts)`` follow.  Neither may be
    mutated afterwards.

    Immutable, and otherwise the list of ground atoms it stands for:
    ``len``, indexing (a slice is a list), iteration, ``in``, ``==``
    with a list or tuple of atoms and ``repr``.  Atoms are built on
    demand, one per fact read.
    """

    __slots__ = ("_order", "_groups")

    def __init__(self, order: list[str], groups: dict[str, list[Row]]):
        self._order = order
        self._groups = groups

    @classmethod
    def of(cls, *sources: Iterable) -> "FactRows":
        """``sources`` one after the other as one :class:`FactRows`.

        A source is a :class:`FactRows`, whose rows are taken as they
        are, or an iterable of ground atoms and ``(predicate, row)``
        pairs in any mix.
        """
        order: list[str] = []
        groups: dict[str, list[Row]] = defaultdict(list)
        for source in sources:
            if isinstance(source, FactRows):
                order += source._order
                for predicate, rows in source.grouped().items():
                    groups[predicate] += rows
                continue
            for fact in source:
                if isinstance(fact, Atom):
                    predicate, row = fact.predicate, _row_of(fact)
                else:
                    predicate, row = fact
                order.append(predicate)
                groups[predicate].append(tuple(row))
        return cls(order, dict(groups))

    def grouped(
        self, encode: "Callable[[Value], object] | None" = None
    ) -> Mapping[str, list[Row]]:
        """Every predicate's rows, predicates in order of first appearance.

        Read-only.  With ``encode`` the rows are new ones, each value put
        through it fact by fact in source order — the order an interner
        has to see them in.
        """
        if encode is None:
            return self._groups
        encoded: dict[str, list[Row]] = defaultdict(list)
        for predicate, row in self._pairs():
            encoded[predicate].append(tuple(map(encode, row)))
        return encoded

    def _pairs(self) -> "Iterator[tuple[str, Row]]":
        """``(predicate, row)`` of every fact, in source order."""
        following = {p: iter(rows) for p, rows in self._groups.items()}
        return zip(self._order, map(next, map(following.__getitem__, self._order)))

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(starmap(_atom_of, list(self._pairs())[index]))
        start = range(len(self))[index]
        return _atom_of(*next(islice(self._pairs(), start, None)))

    def __iter__(self) -> Iterator[Atom]:
        return starmap(_atom_of, self._pairs())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (FactRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class Database:
    """A mapping from predicate names to relations (the EDB).

    Construct from ground :class:`Atom` facts or ``(predicate, row)``
    pairs; query with :meth:`relation` / :meth:`contains`.  ``storage``
    selects what every relation of this database stores: values
    (``"rows"``, :class:`Relation`) or the codes of one
    :class:`Interner` owned by the database (``"columnar"``,
    :class:`ColumnarRelation`).  The engines create their IDB and delta
    relations through :meth:`new_relation`, so a whole evaluation runs
    in the database's own encoding.
    """

    __slots__ = ("_relations", "storage", "interner")

    def __init__(
        self,
        facts: "Iterable[Atom | tuple[str, Sequence[Value]]]" = (),
        *,
        storage: str = "rows",
        interner: "Interner | None" = None,
    ):
        if storage not in STORAGES:
            raise ValueError(
                f"unknown storage {storage!r} (valid: {', '.join(STORAGES)})"
            )
        self.storage = storage
        self.interner = (
            (interner if interner is not None else Interner())
            if storage == "columnar"
            else None
        )
        self._relations: dict[str, Relation] = {}
        if not isinstance(facts, FactRows):
            facts = FactRows.of(facts)
        # One bulk load per relation.  Code rows are encoded here, in
        # fact order: codes follow first appearance across predicates,
        # exactly as fact-by-fact ``add_fact`` assigns them.
        intern = None if self.interner is None else self.interner.intern
        for predicate, rows in facts.grouped(intern).items():
            self._extend(predicate, rows, encoded=intern is not None)

    @classmethod
    def from_rows(
        cls,
        rows_by_predicate: Mapping[str, Iterable[Sequence[Value]]],
        *,
        storage: str = "rows",
    ) -> "Database":
        """Build a database directly from raw value tuples."""
        db = cls(storage=storage)
        for predicate, rows in rows_by_predicate.items():
            db._extend(predicate, list(map(tuple, rows)))
        return db

    def new_relation(self, arity: int) -> Relation:
        """An empty relation in this database's storage.

        The factory the engines use for IDB and delta relations, so
        derived relations share the database's interner: codes from the
        EDB and the IDB live in one dictionary.
        """
        if self.storage == "columnar":
            return ColumnarRelation(arity, self.interner)
        return Relation(arity)

    def to_storage(self, storage: str) -> "Database":
        """This database converted to ``storage`` (self when it already is).

        Conversion walks predicates and rows in deterministic
        (sorted-by-repr) order, so a columnar conversion assigns interner
        codes reproducibly for identical inputs.
        """
        if storage not in STORAGES:
            raise ValueError(
                f"unknown storage {storage!r} (valid: {', '.join(STORAGES)})"
            )
        if storage == self.storage:
            return self
        db = Database(storage=storage)
        for predicate, relation in sorted(self._relations.items()):
            target = db.new_relation(relation.arity)
            target.extend(relation.to_rows())
            db._relations[predicate] = target
        return db

    def _extend(self, predicate: str, rows: list[Row], *, encoded: bool = False) -> None:
        """Bulk-insert ``rows`` (interner codes when ``encoded``) into one relation."""
        relation = self._relations.get(predicate)
        if relation is None:
            if not rows:
                return
            relation = self.new_relation(len(rows[0]))
        try:
            if encoded:
                Relation.extend(relation, rows)  # stored as given: codes
            else:
                relation.extend(rows)
        except ArityMismatch as error:
            raise ArityMismatch(error.expected, error.got, predicate) from None
        self._relations[predicate] = relation

    def add_fact(self, fact: Atom) -> bool:
        return self.add_row(fact.predicate, _row_of(fact))

    def add_row(self, predicate: str, row: Sequence[Value]) -> bool:
        relation = self._relations.get(predicate)
        if relation is None:
            relation = self.new_relation(len(row))
            self._relations[predicate] = relation
        elif len(row) != relation.arity:
            raise ArityMismatch(relation.arity, len(row), predicate)
        return relation.add(row)

    def discard_rows(self, predicate: str, rows: Iterable[Row]) -> None:
        """Take ``rows`` back out (a rejected ingest un-stages its batch);
        a relation left empty is forgotten, as if never added to."""
        relation = self._relations[predicate]
        relation.discard(rows)
        if not len(relation):
            del self._relations[predicate]

    def relation(self, predicate: str, arity: int | None = None) -> Relation:
        """The relation for ``predicate`` (an empty one if absent)."""
        relation = self._relations.get(predicate)
        if relation is None:
            if arity is None:
                raise KeyError(f"unknown predicate {predicate} (pass arity for an empty relation)")
            return self.new_relation(arity)
        return relation

    def contains(self, predicate: str, row: Sequence[Value]) -> bool:
        relation = self._relations.get(predicate)
        return relation is not None and tuple(row) in relation

    def predicates(self) -> frozenset[str]:
        return frozenset(self._relations)

    def facts(self) -> Iterator[Atom]:
        """Iterate all stored facts as ground atoms."""
        for predicate in sorted(self._relations):
            for row in sorted(self._relations[predicate], key=repr):
                yield _atom_of(predicate, row)

    def size(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def to_dict(self, *, include_interner: bool = False) -> dict[str, dict[str, object]]:
        """A JSON-ready snapshot: predicate -> ``{"arity", "rows"}``.

        Rows become lists (JSON has no tuples); :meth:`from_dict`
        restores them.  Row values must be JSON scalars (ints, strings,
        floats, bools, ``None``) for the round trip to be lossless —
        which is what every parser-produced fact contains.

        Rows are always **decoded** values, never interner codes, so the
        default payload — and therefore every workload digest computed
        over it — is byte-identical across storage backends.  With
        ``include_interner=True`` a columnar database additionally
        writes its value table under the reserved ``"__interner__"``
        key, so :meth:`from_dict` can rebuild the same code assignment.
        """
        payload: dict[str, dict[str, object]] = {
            predicate: {
                "arity": relation.arity,
                "rows": [list(row) for row in relation.to_rows()],
            }
            for predicate, relation in sorted(self._relations.items())
        }
        if include_interner and self.interner is not None:
            payload["__interner__"] = {"values": self.interner.to_list()}
        return payload

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, Mapping[str, object]],
        *,
        storage: str | None = None,
    ) -> "Database":
        """Rebuild a database from a :meth:`to_dict` snapshot.

        Arity is honored even for empty relations, so an empty relation
        survives the round trip instead of degenerating to "unknown
        predicate".  A payload carrying ``"__interner__"`` restores a
        columnar database with the saved code assignment; ``storage``
        overrides the inferred backend (default: columnar when an
        interner travelled with the payload, rows otherwise).
        """
        entries = dict(payload)
        interner_entry = entries.pop("__interner__", None)
        if storage is None:
            storage = "columnar" if interner_entry is not None else "rows"
        interner = None
        if storage == "columnar" and interner_entry is not None:
            interner = Interner(interner_entry["values"])  # type: ignore[index]
        db = cls(storage=storage, interner=interner)
        for predicate, entry in entries.items():
            relation = db.new_relation(int(entry["arity"]))  # type: ignore[call-overload]
            relation.extend(map(tuple, entry["rows"]))  # type: ignore[arg-type]
            db._relations[predicate] = relation
        return db

    def copy(self) -> "Database":
        """An independent database in the same storage.

        Columnar copies **share** the interner (codes are append-only,
        so sharing keeps them mutually valid and copies cheap); rows and
        indexes are per-copy.
        """
        db = Database(storage=self.storage, interner=self.interner)
        db._relations = {p: r.copy() for p, r in self._relations.items()}
        return db

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{len(r)}" for p, r in sorted(self._relations.items()))
        return f"Database({inner})"
