"""Decision procedures for conjunctions of dense-order atoms.

The paper's order atoms ``gamma theta delta`` (Section 2) are interpreted
over a dense total order without endpoints.  This module provides, for a
conjunction of such atoms over variables and constants:

* :meth:`OrderConstraintSet.is_satisfiable` — exact satisfiability,
* :meth:`OrderConstraintSet.entails` — exact entailment (a closure read),
* :meth:`OrderConstraintSet.implied_equalities` — the partition of terms
  forced equal (used to substitute ``X`` for ``Y`` whenever the order
  atoms of a rule imply ``X = Y``, as the algorithm of Section 4.1
  assumes),
* :meth:`OrderConstraintSet.model` — a satisfying assignment of rational
  values to variables (used to instantiate symbolic derivations and to
  build canonical databases),
* :meth:`OrderConstraintSet.project` — the strongest entailed atoms over
  a given set of terms (used by order-constraint propagation).

The algorithm is the classic one: merge ``=`` classes with union-find,
build the strict/weak inequality digraph (with the true order among the
constants added), condense to strongly connected components, and declare
unsatisfiability exactly when an SCC contains a strict edge or the two
sides of a ``!=`` atom.  Over dense orders without endpoints this test
is sound and complete.

Entailment and projection are *read* from that one condensed graph
rather than refuted atom by atom.  Per SCC the structure keeps, as
integer bitmasks over SCC ids, what it reaches, what reaches it, what
it reaches through at least one strict edge, and the ``!=`` pairs.
``C |= a = b`` iff ``a`` and ``b`` share an SCC and ``C |= a <= b`` iff
``a`` reaches ``b``.  ``C |= a < b`` iff ``a`` reaches ``b`` and
collapsing the nodes between them (``reach[a] & coreach[b]``, exactly
what assuming ``b <= a`` would merge) is contradictory: a strict edge
*or a ``!=`` pair* lies among them — ``a <= m, m <= b, a != b`` forces
``a < b`` without any strict edge.  ``C |= a != b`` iff one of the two
is strictly below the other or they are an explicit ``!=`` pair.

A question may mention terms the set does not.  A variable it never
mentions is unconstrained, and so is a lone constant with no other
constant to be ordered against: neither needs a node.  Any other
foreign constant is added as an extra node before condensation, so it
gets its true order against the set's constants (``X < 3`` entails
``X < 5`` only through ``3 < 5``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ..datalog.atoms import OrderAtom, evaluate_comparison
from ..datalog.terms import Constant, Term, Variable
from ..robustness.errors import ReproError

__all__ = ["OrderConstraintSet", "UnsatisfiableError", "UnsupportedModelError"]


class UnsatisfiableError(ReproError, ValueError):
    """Raised by operations that require a satisfiable constraint set."""


class UnsupportedModelError(ReproError, NotImplementedError):
    """Raised by ``model()`` for order edges through non-numeric constants."""


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


#: strongest relation between two terms -> the comparisons it entails
_ENTAILED = {
    "=": ("=", "<=", ">="),
    "<": ("<", "<=", "!="),
    ">": (">", ">=", "!="),
    "<=": ("<=",),
    ">=": (">=",),
    "!=": ("!=",),
    None: (),
}


class _Structure:
    """The condensed constraint graph every question is read from.

    Nodes are the terms of ``atoms`` plus the ``extra`` terms (see the
    module docstring); ``terms`` keeps the former only.
    """

    __slots__ = (
        "terms",
        "extra",
        "constants",
        "edges",
        "neq_pairs",
        "satisfiable",
        "node",
        "scc_members",
        "_closure",
    )

    def __init__(self, atoms: Sequence[OrderAtom], extra: Sequence[Term] = ()):
        self.terms: list[Term] = []
        seen: set[Term] = set()
        for atom in atoms:
            for term in (atom.left, atom.right):
                if term not in seen:
                    seen.add(term)
                    self.terms.append(term)
        self.extra = tuple(t for t in dict.fromkeys(extra) if t not in seen)
        nodes = self.terms + list(self.extra)
        parent: dict[Term, Term] = {t: t for t in nodes}

        def find(term: Term) -> Term:
            root = term
            while parent[root] != root:
                root = parent[root]
            while parent[term] != term:
                parent[term], term = root, parent[term]
            return root

        def union(a: Term, b: Term) -> None:
            ra, rb = find(a), find(b)
            if ra == rb:
                return
            # Prefer constants as representatives.
            if isinstance(ra, Constant):
                parent[rb] = ra
            else:
                parent[ra] = rb

        satisfiable = True
        for atom in atoms:
            if atom.op == "=":
                left, right = atom.left, atom.right
                if isinstance(left, Constant) and isinstance(right, Constant):
                    if left.value != right.value:
                        satisfiable = False
                union(left, right)
        # Detect a class holding two constants with different values.
        const_of_class: dict[Term, Constant] = {}
        self.constants = 0
        for term in nodes:
            if isinstance(term, Constant):
                self.constants += 1
                root = find(term)
                existing = const_of_class.get(root)
                if existing is not None and existing.value != term.value:
                    satisfiable = False
                const_of_class.setdefault(root, term)

        classes = sorted({find(t) for t in nodes}, key=str)
        self.edges: set[tuple[Term, Term, bool]] = set()  # (src, dst, strict)
        self.neq_pairs: list[tuple[Term, Term]] = []
        for atom in atoms:
            op, left, right = atom.op, find(atom.left), find(atom.right)
            if op in (">", ">="):
                op = "<" if op == ">" else "<="
                left, right = right, left
            if op == "<":
                self.edges.add((left, right, True))
            elif op == "<=":
                self.edges.add((left, right, False))
            elif op == "!=":
                self.neq_pairs.append((left, right))
        # Add the true order among comparable constant classes.
        const_classes = [c for c in classes if c in const_of_class]
        for i, ca in enumerate(const_classes):
            for cb in const_classes[i + 1:]:
                va, vb = const_of_class[ca].value, const_of_class[cb].value
                if _is_numeric(va) == _is_numeric(vb):
                    if evaluate_comparison(va, vb, "<"):
                        self.edges.add((ca, cb, True))
                    elif evaluate_comparison(vb, va, "<"):
                        self.edges.add((cb, ca, True))
                    # equal constant values in distinct classes cannot
                    # happen: they were unioned above
                else:
                    # Different families: distinct domain elements.
                    self.neq_pairs.append((ca, cb))

        scc_of, self.scc_members = _condense(classes, self.edges)
        #: term -> id of its SCC (ids are reverse-topological, see _condense)
        self.node: dict[Term, int] = {t: scc_of[find(t)] for t in nodes}
        node = self.node
        self.satisfiable = (
            satisfiable
            and not any(strict and node[s] == node[d] for s, d, strict in self.edges)
            and not any(node[a] == node[b] for a, b in self.neq_pairs)
        )
        self._closure: tuple[list[int], list[int], list[int], set[int]] | None = None

    def _close(self) -> tuple[list[int], list[int], list[int], set[int]]:
        """``(reach, coreach, strict, unequal)`` of a satisfiable structure.

        The first three map an SCC id to a bitmask of SCC ids: the SCCs
        it reaches (itself included), those that reach it, and those it
        reaches through at least one strict edge.  ``unequal`` holds
        each ``!=`` pair as a two-bit mask.
        """
        node, count = self.node, len(self.scc_members)
        successors: list[list[tuple[int, bool]]] = [[] for _ in range(count)]
        for src, dst, is_strict in self.edges:
            if node[src] != node[dst]:
                successors[node[src]].append((node[dst], is_strict))
        reach, strict = [0] * count, [0] * count
        # Ids are reverse-topological: every successor of ``i`` has a
        # smaller id, so it is closed before ``i`` is.
        for i in range(count):
            reached, strictly = 1 << i, 0
            for j, is_strict in successors[i]:
                reached |= reach[j]
                strictly |= reach[j] if is_strict else strict[j]
            reach[i], strict[i] = reached, strictly
        coreach = [1 << i for i in range(count)]
        for i in reversed(range(count)):
            for j, _ in successors[i]:
                coreach[j] |= coreach[i]
        unequal = {1 << node[a] | 1 << node[b] for a, b in self.neq_pairs}
        self._closure = reach, coreach, strict, unequal
        return self._closure

    def strongest(self, left: Term, right: Term) -> str | None:
        """The strongest comparison a satisfiable set forces between two
        terms (``left op right``), or ``None`` when it forces none."""
        if left == right:
            return "="
        a, b = self.node.get(left), self.node.get(right)
        if a is None or b is None:
            return None  # an unconstrained term (module docstring)
        if a == b:
            return "="
        reach, coreach, strict, unequal = self._closure or self._close()
        for low, high, op in ((a, b, "<"), (b, a, ">")):
            if reach[low] >> high & 1:
                if strict[low] >> high & 1:
                    return op
                between = reach[low] & coreach[high]
                if any(pair & between == pair for pair in unequal):
                    return op
                return op + "="
        return "!=" if (1 << a | 1 << b) in unequal else None


def _condense(
    nodes: Sequence[Term], edges: set[tuple[Term, Term, bool]]
) -> tuple[dict[Term, int], list[list[Term]]]:
    """Tarjan SCC condensation; returns (node -> scc id, components in reverse topo order)."""
    adjacency: dict[Term, list[Term]] = {n: [] for n in nodes}
    for src, dst, _ in edges:
        adjacency[src].append(dst)
    index: dict[Term, int] = {}
    low: dict[Term, int] = {}
    on_stack: set[Term] = set()
    stack: list[Term] = []
    counter = [0]
    scc_of: dict[Term, int] = {}
    components: list[list[Term]] = []

    for start in nodes:
        if start in index:
            continue
        work: list[tuple[Term, Iterator[Term]]] = [(start, iter(adjacency[start]))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(adjacency[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                component: list[Term] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc_of[member] = len(components)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return scc_of, components


#: Every set without atoms reads from this one structure.
_EMPTY = _Structure(())


class OrderConstraintSet:
    """An immutable conjunction of dense-order atoms with decision procedures."""

    __slots__ = ("atoms", "_structure")

    def __init__(self, atoms: Iterable[OrderAtom] = ()):
        self.atoms: tuple[OrderAtom, ...] = tuple(atoms)
        self._structure: _Structure | None = None

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(a) for a in self.atoms) + "}"

    def _struct(self, terms: Iterable[Term] = ()) -> _Structure:
        """The structure that questions about ``terms`` are read from.

        Built once over the atoms, and once more whenever a question
        brings constants that need a node and have none yet (module
        docstring); the constants of earlier questions stay nodes.
        """
        wanted = tuple(t for t in dict.fromkeys(terms) if isinstance(t, Constant))
        structure = self._structure
        if structure is None:
            structure = _Structure(self.atoms, wanted) if self.atoms else _EMPTY
        missing = tuple(c for c in wanted if c not in structure.node)
        if missing and structure.constants + len(missing) > 1:
            structure = _Structure(self.atoms, structure.extra + missing)
        self._structure = structure
        return structure

    # ------------------------------------------------------------------
    # Decision procedures
    # ------------------------------------------------------------------
    def is_satisfiable(self) -> bool:
        """Exact satisfiability over a dense total order without endpoints."""
        return self._struct().satisfiable

    def entails(self, atom: OrderAtom) -> bool:
        """Exact entailment, read from the closure of the condensed graph.

        An unsatisfiable set entails everything.
        """
        structure = self._struct((atom.left, atom.right))
        if not structure.satisfiable:
            return True
        return atom.op in _ENTAILED[structure.strongest(atom.left, atom.right)]

    def implied_equalities(self) -> list[frozenset[Term]]:
        """Groups of terms forced equal (size >= 2 groups only).

        Raises :class:`UnsatisfiableError` on an unsatisfiable set, where
        "forced equal" is vacuous.
        """
        structure = self._struct()
        if not structure.satisfiable:
            raise UnsatisfiableError("constraint set is unsatisfiable")
        groups: dict[int, set[Term]] = {}
        for term in structure.terms:
            groups.setdefault(structure.node[term], set()).add(term)
        return [frozenset(g) for g in groups.values() if len(g) >= 2]

    def equality_substitution(self) -> dict[Variable, Term]:
        """A substitution realizing the implied equalities.

        Each forced-equal group maps its variables to the group's
        constant if it has one, otherwise to the lexicographically first
        variable.  Applying it to a rule performs the paper's "substitute
        X for Y whenever the order atoms imply X = Y" preprocessing step.
        """
        mapping: dict[Variable, Term] = {}
        for group in self.implied_equalities():
            constants = sorted((t for t in group if isinstance(t, Constant)), key=str)
            variables = sorted((t for t in group if isinstance(t, Variable)), key=lambda v: v.name)
            representative: Term = constants[0] if constants else variables[0]
            for var in variables:
                if var != representative:
                    mapping[var] = representative
        return mapping

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------
    def model(self) -> dict[Variable, object] | None:
        """A satisfying assignment, or ``None`` when unsatisfiable.

        Variables constrained only through ``=``/``!=`` with string
        constants receive those strings; all other variables receive
        :class:`fractions.Fraction` values.  All weak edges are
        strengthened to strict ones (always possible on a dense order
        once forced equalities are merged), which also discharges every
        ``!=`` atom.
        """
        structure = self._struct()
        if not structure.satisfiable:
            return None
        if structure.extra:
            # Extra constants would take part in the assignment.
            structure = _Structure(self.atoms)
        scc_count = len(structure.scc_members)
        # Value per SCC.  SCCs holding a constant are pinned to it.
        pinned: dict[int, object] = {}
        for component in range(scc_count):
            for member in structure.scc_members[component]:
                if isinstance(member, Constant):
                    pinned[component] = member.value
        # Build the SCC DAG.
        successors: dict[int, set[int]] = {i: set() for i in range(scc_count)}
        predecessors: dict[int, set[int]] = {i: set() for i in range(scc_count)}
        for src, dst, _ in structure.edges:
            a, b = structure.node[src], structure.node[dst]
            if a != b:
                successors[a].add(b)
                predecessors[b].add(a)
        # Order edges through non-numeric constants would need a merged
        # order over mixed families; restrict models to the numeric case.
        for src, dst, _ in structure.edges:
            for end in (src, dst):
                node = structure.node[end]
                value = pinned.get(node)
                if value is not None and not _is_numeric(value):
                    raise UnsupportedModelError(
                        "model() supports non-numeric constants only in =/!= atoms"
                    )
        # scc ids from Tarjan come in reverse topological order.
        topo_order = list(reversed(range(scc_count)))
        # Upper bounds: the least pinned numeric value reachable from each SCC.
        upper: dict[int, Fraction | None] = {i: None for i in range(scc_count)}
        for node in reversed(topo_order):
            bound = None
            value = pinned.get(node)
            if value is not None and _is_numeric(value):
                bound = Fraction(value)
            for succ in successors[node]:
                succ_bound = upper[succ]
                if succ_bound is not None and (bound is None or succ_bound < bound):
                    bound = succ_bound
            upper[node] = bound
        # Assign each class a value strictly above all its predecessors and
        # strictly below its least pinned upper bound, avoiding every value
        # already taken (all weak edges were strengthened to strict after
        # condensation, which also discharges the != atoms).  The interval
        # is nonempty because strict cycles were excluded, and density
        # guarantees room around the finitely many forbidden points.
        values: dict[int, object] = {}
        taken: set[Fraction] = {
            Fraction(p) for p in pinned.values() if _is_numeric(p)
        }
        for node in topo_order:
            if node in pinned:
                values[node] = pinned[node]
                continue
            lower: Fraction | None = None
            for pred in predecessors[node]:
                pred_value = values.get(pred)
                if pred_value is not None and _is_numeric(pred_value):
                    candidate = Fraction(pred_value)
                    if lower is None or candidate > lower:
                        lower = candidate
            hi = upper[node]
            if lower is None and hi is None:
                value = Fraction(0)
            elif lower is None:
                value = hi - 1  # type: ignore[operand-type]
            elif hi is None:
                value = lower + 1
            else:
                value = (lower + hi) / 2
            while value in taken:
                if hi is None:
                    value += 1
                else:
                    value = (value + hi) / 2
            taken.add(value)
            values[node] = value
        assignment: dict[Variable, object] = {}
        for term in structure.terms:
            if isinstance(term, Variable):
                assignment[term] = values[structure.node[term]]
        return assignment

    # ------------------------------------------------------------------
    # Projection
    # ------------------------------------------------------------------
    def project(self, terms: Sequence[Term]) -> frozenset[OrderAtom]:
        """The strongest entailed atoms among ``terms`` (canonical form).

        For every unordered pair the single strongest relation is
        emitted: ``=`` beats ``<`` beats ``<=``/``!=`` (the latter two
        can co-occur only as ``<``).  The result uses normalized
        orientation so syntactic comparisons of projections are stable.
        """
        structure = self._struct(terms)
        if not structure.satisfiable:
            raise UnsatisfiableError("projection of an unsatisfiable set is undefined")
        # Insertion in pair order: it decides the frozenset's iteration
        # order, which rule bodies built from projections inherit.
        entailed: set[OrderAtom] = set()
        items = list(dict.fromkeys(terms))
        for i, left in enumerate(items):
            for right in items[i + 1:]:
                op = structure.strongest(left, right)
                if op is not None:
                    entailed.add(OrderAtom(left, op, right).normalized())
        return frozenset(entailed)
