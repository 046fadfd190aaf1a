"""The bottom-up adornment phase of the query-tree algorithm (Section 4.1).

An *adornment* of a predicate ``p`` is a set of *triplets*
``(I, sigma, s)`` where ``I`` names an integrity constraint, ``s`` is
the set of EDB atoms of ``I`` not yet mapped into the subtree below a
``p``-node, and ``sigma`` maps the frontier variables of ``s`` (those
shared with mapped atoms) to argument positions of ``p`` — or to a
constant, when the mapped image was a constant.

The phase computes, by a fixpoint over the rules:

* the set of adornments of every IDB predicate,
* the set of *adorned rules* ``P1`` (``p^Ap :- q1^A1, ..., c``), each
  remembering how every head triplet arose (which rule-level mapping
  and which contributing subgoal triplets) — the information the
  top-down phase needs to push labels from parents to children,
* inconsistency: a rule-adornment combination producing a triplet with
  an **empty** ``s`` (all atoms of an ic mapped) is *inconsistent* and
  generates no adorned rule — precisely the derivations-guaranteed-empty
  that semantic query optimization removes.

Local order / negated atoms (Section 4.2) are enforced here through the
``retention`` hook: when a triplet maps an anchor atom ``a`` of an ic
into an EDB occurrence of a rule, the associated local atom ``h(l)``
must appear in the rule (order atoms are checked by entailment against
the rule's order constraints; negated atoms syntactically).  Triplets
failing the check are dropped, exactly as in the modified algorithm.

Representation notes (documented deviations):

* EDB equality patterns are realized per rule occurrence instead of by
  pre-enumerating pattern predicates — equivalent, but generated on
  demand and with constants preserved.
* When an adorned subgoal's triplet maps a variable to several argument
  positions holding *distinct* terms at the occurrence, the combination
  is dropped (the paper's patterns equate them; such heads with
  repeated variables are rare and the drop is sound — it only weakens
  pruning, never correctness).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ..constraints.dense_order import OrderConstraintSet
from ..constraints.integrity import IntegrityConstraint
from ..cq.homomorphism import extend_homomorphism
from ..datalog.atoms import Atom, OrderAtom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Substitution, Term, Variable
from ..observability.trace import get_tracer
from ..robustness.budget import Budget, Governor
from ..robustness.errors import BudgetExceededError


class AdornmentLimitError(BudgetExceededError, RuntimeError):
    """The per-predicate adornment count exceeded ``max_adornments``.

    Subclasses ``RuntimeError`` for backward compatibility with callers
    of the original guard, and ``BudgetExceededError`` so every front
    door reports it like any budget trip — governed run or not.
    """

__all__ = [
    "Triplet",
    "SigmaImage",
    "Derivation",
    "AdornedRule",
    "AdornmentResult",
    "LocalAtomIndex",
    "Frontier",
    "FrontierTable",
    "compute_adornments",
    "base_triplets",
    "trivial_triplet",
]

#: A sigma image: the set of argument positions holding the image term,
#: or the constant the variable is bound to.
SigmaImage = object  # frozenset[int] | Constant


@dataclass(frozen=True)
class Triplet:
    """A predicate-level triplet ``(I, sigma, s)``.

    ``ic`` indexes the constraint list; ``unmapped`` holds body-atom
    indices of the ic's positive atoms still unmapped; ``sigma`` is a
    canonically sorted tuple of ``(variable name, image)`` pairs.
    """

    ic: int
    unmapped: frozenset[int]
    sigma: tuple[tuple[str, SigmaImage], ...]

    @staticmethod
    def make(ic: int, unmapped: Iterable[int], sigma: Mapping[str, SigmaImage]) -> "Triplet":
        return Triplet(
            ic,
            frozenset(unmapped),
            tuple(sorted(sigma.items(), key=lambda kv: kv[0])),
        )

    def sigma_dict(self) -> dict[str, SigmaImage]:
        return dict(self.sigma)

    def is_trivial(self) -> bool:
        return not self.sigma and bool(self.unmapped)

    def render(self, constraints: Sequence[IntegrityConstraint]) -> str:
        ic = constraints[self.ic]
        atoms = [repr(ic.positive_atoms[i]) for i in sorted(self.unmapped)]
        sigma = ", ".join(
            f"{name}->{positions}" for name, positions in self.sigma
        )
        return "{" + ", ".join(atoms) + ("}" if not sigma else "} with " + sigma)


def trivial_triplet(ic_index: int, ic: IntegrityConstraint) -> Triplet:
    """The empty-mapping triplet (always present, always redundant)."""
    return Triplet.make(ic_index, range(len(ic.positive_atoms)), {})


def prune_redundant(triplets: Iterable[Triplet]) -> frozenset[Triplet]:
    """Drop triplets dominated by stronger ones.

    A triplet is *redundant* with respect to another of the same ic when
    its unmapped set is a superset and its sigma carries no information
    beyond the stronger triplet's (every binding appears there too) —
    the paper's Section 4 remark, applied "at the end of the
    construction" only: the fixpoints keep all triplets.
    """
    items = list(set(triplets))
    kept: list[Triplet] = []
    for candidate in items:
        dominated = False
        for other in items:
            if other is candidate or other.ic != candidate.ic:
                continue
            if other == candidate:
                continue
            if not other.unmapped <= candidate.unmapped:
                continue
            candidate_sigma = candidate.sigma_dict()
            other_sigma = other.sigma_dict()
            if all(
                name in other_sigma and other_sigma[name] == image
                for name, image in candidate_sigma.items()
            ) and (other.unmapped < candidate.unmapped or set(other_sigma) > set(candidate_sigma)):
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    return frozenset(kept)


@dataclass(frozen=True)
class Derivation:
    """How one head triplet arose inside a rule (for label push-down).

    ``rule_sigma`` maps ic-variable names to rule-level terms;
    ``contributors`` holds, per positive subgoal, the predicate-level
    triplet chosen there (EDB occurrences included).
    """

    ic: int
    unmapped: frozenset[int]
    rule_sigma: tuple[tuple[str, Term], ...]
    contributors: tuple[Triplet, ...]

    def rule_sigma_dict(self) -> dict[str, Term]:
        return dict(self.rule_sigma)


@dataclass(frozen=True)
class AdornedRule:
    """One rule of the adorned program ``P1``.

    ``rule`` is the original (plain-predicate) rule; the adorned
    rendering attaches ``head_adornment`` to the head predicate and
    ``subgoal_adornments[i]`` to the i-th positive subgoal (``None``
    marks EDB subgoals, whose adornment is their base adornment).
    """

    rule: Rule
    rule_index: int
    head_adornment: frozenset[Triplet]
    subgoal_adornments: tuple[frozenset[Triplet] | None, ...]
    derivations: tuple[Derivation, ...]
    head_triplet_origins: tuple[tuple[Triplet, tuple[int, ...]], ...]
    """Pairs (head triplet, indices into ``derivations`` that produced it)."""

    @cached_property
    def _origins(self) -> dict[Triplet, tuple[int, ...]]:
        return dict(self.head_triplet_origins)

    def origins_of(self, head_triplet: Triplet) -> tuple[int, ...]:
        return self._origins.get(head_triplet, ())


class LocalAtomIndex:
    """Anchors and local atoms per (constraint index, positive-atom index).

    Built by :mod:`repro.core.local_atoms`; the plain Section 4.1
    algorithm uses an empty index.
    """

    def __init__(self) -> None:
        self._by_anchor: dict[tuple[int, int], list[tuple[object, bool]]] = {}

    def add(self, ic_index: int, atom_index: int, local_atom: object, is_order: bool) -> None:
        self._by_anchor.setdefault((ic_index, atom_index), []).append(
            (local_atom, is_order)
        )

    def local_atoms_of(self, ic_index: int, atom_index: int) -> list[tuple[object, bool]]:
        return self._by_anchor.get((ic_index, atom_index), [])

    def __bool__(self) -> bool:
        return bool(self._by_anchor)


@dataclass
class AdornmentResult:
    """Output of the bottom-up phase."""

    program: Program
    constraints: tuple[IntegrityConstraint, ...]
    adornments: dict[str, list[frozenset[Triplet]]]
    adorned_rules: list[AdornedRule]
    adornment_ids: dict[tuple[str, frozenset[Triplet]], int]
    frontiers: "FrontierTable" = field(repr=False, compare=False)
    """The frontier table both phases of one rewrite read."""
    inconsistencies: list[tuple[int, Derivation]] = field(default_factory=list)
    """(rule index, derivation) pairs whose residue came out empty."""

    def __post_init__(self) -> None:
        self._rules_by_head: dict[tuple[str, frozenset[Triplet]], list[AdornedRule]] = {}
        for adorned in self.adorned_rules:
            key = (adorned.rule.head.predicate, adorned.head_adornment)
            self._rules_by_head.setdefault(key, []).append(adorned)

    def adorned_name(self, predicate: str, adornment: frozenset[Triplet]) -> str:
        """A stable printable name ``p@k`` for an adorned predicate."""
        index = self.adornment_ids[(predicate, adornment)]
        return f"{predicate}@{index}"

    def rules_for(
        self, predicate: str, adornment: frozenset[Triplet]
    ) -> list[AdornedRule]:
        """The adorned rules for ``predicate`` with head ``adornment``,
        in the order they were adorned."""
        return list(self._rules_by_head.get((predicate, adornment), ()))


# ----------------------------------------------------------------------
# Frontiers of partially mapped ic's
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Frontier:
    """What the positive atoms of an ic leave exposed once some are mapped.

    ``variables`` are the frontier variables (shared between unmapped
    and mapped atoms), ``names`` their names, and ``unmapped_names`` the
    names of every variable of the unmapped atoms.
    """

    variables: frozenset[Variable]
    names: frozenset[str]
    unmapped_names: frozenset[str]


class FrontierTable(dict):
    """The :class:`Frontier` of each ``(ic index, unmapped)`` pair over
    one constraint list, computed on first use.  Both phases of one
    rewrite share it through :attr:`AdornmentResult.frontiers`."""

    def __init__(self, constraints: Sequence[IntegrityConstraint]) -> None:
        super().__init__()
        self.constraints = tuple(constraints)

    def __missing__(self, key: tuple[int, frozenset[int]]) -> Frontier:
        ic_index, unmapped = key
        unmapped_vars: set[Variable] = set()
        mapped_vars: set[Variable] = set()
        for index, atom in enumerate(self.constraints[ic_index].positive_atoms):
            (unmapped_vars if index in unmapped else mapped_vars).update(atom.variables())
        shared = frozenset(unmapped_vars & mapped_vars)
        frontier = self[key] = Frontier(
            shared,
            frozenset(v.name for v in shared),
            frozenset(v.name for v in unmapped_vars),
        )
        return frontier


# ----------------------------------------------------------------------
# Base triplets for EDB occurrences
# ----------------------------------------------------------------------
def _retention_ok(
    rule: Rule,
    rule_order: OrderConstraintSet,
    hom: Substitution,
    ic_index: int,
    mapped_indices: Iterable[int],
    local_index: LocalAtomIndex,
) -> bool:
    """The Section 4.2 retention condition for newly mapped anchor atoms."""
    if not local_index:
        return True
    negated_in_rule = {lit.atom for lit in rule.negative_literals}
    for atom_index in mapped_indices:
        for local_atom, is_order in local_index.local_atoms_of(ic_index, atom_index):
            if is_order:
                assert isinstance(local_atom, OrderAtom)
                if not rule_order.entails(local_atom.substitute(hom)):
                    return False
            else:
                assert isinstance(local_atom, Atom)
                if local_atom.substitute(hom) not in negated_in_rule:
                    return False
    return True


def base_triplets(
    occurrence: Atom,
    rule: Rule,
    rule_order: OrderConstraintSet,
    frontiers: FrontierTable,
    local_index: LocalAtomIndex,
) -> list[tuple[Triplet, dict[str, Term]]]:
    """All triplets of an EDB occurrence within ``rule``, for every ic of
    ``frontiers.constraints``.

    Returns pairs (predicate-level triplet, rule-level sigma): the
    predicate-level sigma speaks in argument positions of the occurrence
    atom; the rule-level sigma in the rule's own terms, which is what
    combination across subgoals uses.  The trivial triplet of every ic
    is always included.
    """
    results: list[tuple[Triplet, dict[str, Term]]] = []
    for ic_index, ic in enumerate(frontiers.constraints):
        results.append((trivial_triplet(ic_index, ic), {}))
        positives = ic.positive_atoms
        indices = frozenset(range(len(positives)))
        # Only atoms over the occurrence's predicate have an image in it.
        mappable = [
            i for i, atom in enumerate(positives)
            if atom.predicate == occurrence.predicate
        ]
        for size in range(1, len(mappable) + 1):
            for subset in itertools.combinations(mappable, size):
                chosen = [positives[i] for i in subset]
                for hom in extend_homomorphism(chosen, [occurrence]):
                    if not _retention_ok(
                        rule, rule_order, hom, ic_index, subset, local_index
                    ):
                        continue
                    unmapped = indices - frozenset(subset)
                    frontier = frontiers[(ic_index, unmapped)].variables
                    rule_sigma: dict[str, Term] = {}
                    sigma: dict[str, SigmaImage] = {}
                    ok = True
                    for var in frontier:
                        image = hom.apply(var)
                        rule_sigma[var.name] = image
                        if isinstance(image, Constant):
                            sigma[var.name] = image
                        else:
                            positions = frozenset(
                                i for i, arg in enumerate(occurrence.args) if arg == image
                            )
                            if not positions:
                                ok = False
                                break
                            sigma[var.name] = positions
                    if not ok:
                        continue
                    # Non-frontier mapped variables still matter at rule
                    # level (they may become frontier after combining).
                    for var in hom:
                        if var.name not in rule_sigma:
                            rule_sigma[var.name] = hom.apply(var)
                    triplet = Triplet.make(ic_index, unmapped, sigma)
                    results.append((triplet, rule_sigma))
    # Deduplicate while keeping the first rule-level sigma per triplet key.
    seen: set[tuple[Triplet, tuple[tuple[str, Term], ...]]] = set()
    unique: list[tuple[Triplet, dict[str, Term]]] = []
    for triplet, rule_sigma in results:
        key = (triplet, tuple(sorted(rule_sigma.items())))
        if key not in seen:
            seen.add(key)
            unique.append((triplet, rule_sigma))
    return unique


# ----------------------------------------------------------------------
# Combining triplets inside one rule
# ----------------------------------------------------------------------
def _occurrence_image(
    triplet: Triplet, occurrence: Atom
) -> dict[str, Term] | None:
    """Rule-level sigma induced by a predicate-level triplet at an occurrence.

    Returns ``None`` when a position set covers distinct occurrence
    terms (the documented drop case).
    """
    rule_sigma: dict[str, Term] = {}
    for name, image in triplet.sigma:
        if isinstance(image, Constant):
            rule_sigma[name] = image
            continue
        assert isinstance(image, frozenset)
        terms = {occurrence.args[i] for i in image}
        if len(terms) != 1:
            return None
        rule_sigma[name] = next(iter(terms))
    return rule_sigma


def _combine_rule_triplets(
    ic_index: int,
    ic: IntegrityConstraint,
    per_subgoal: Sequence[list[tuple[Triplet, dict[str, Term]]]],
) -> list[Derivation]:
    """All compatible combinations of one triplet per positive subgoal.

    Implements ``(I, sigma1 U ... U sigman, s1 ∩ ... ∩ sn)`` with the
    compatibility requirement that shared ic variables map to the same
    rule term.
    """
    derivations: list[Derivation] = []

    def descend(
        index: int,
        sigma: dict[str, Term],
        unmapped: frozenset[int],
        contributors: list[Triplet],
    ) -> None:
        if index == len(per_subgoal):
            derivations.append(
                Derivation(
                    ic_index,
                    unmapped,
                    tuple(sorted(sigma.items())),
                    tuple(contributors),
                )
            )
            return
        for triplet, rule_sigma in per_subgoal[index]:
            merged = dict(sigma)
            compatible = True
            for name, term in rule_sigma.items():
                existing = merged.get(name)
                if existing is None:
                    merged[name] = term
                elif existing != term:
                    compatible = False
                    break
            if not compatible:
                continue
            contributors.append(triplet)
            descend(index + 1, merged, unmapped & triplet.unmapped, contributors)
            contributors.pop()

    full = frozenset(range(len(ic.positive_atoms)))
    descend(0, {}, full, [])
    return derivations


def _head_positions(head: Atom) -> dict[Term, frozenset[int]]:
    """Each head term mapped to the argument positions holding it."""
    positions: dict[Term, frozenset[int]] = {}
    for i, arg in enumerate(head.args):
        positions[arg] = positions.get(arg, frozenset()) | {i}
    return positions


def _head_triplet_from(
    derivation: Derivation,
    frontier: Frontier,
    head_positions: Mapping[Term, frozenset[int]],
) -> Triplet | None:
    """Project a rule-level derivation onto the head predicate.

    Frontier variables must be visible in the head (else the triplet is
    not inherited); visible non-frontier variables of the unmapped atoms
    are kept as well.
    """
    rule_sigma = derivation.rule_sigma_dict()
    sigma: dict[str, SigmaImage] = {}
    for name in frontier.names:
        image = rule_sigma.get(name)
        if image is None:
            return None
        if isinstance(image, Constant):
            sigma[name] = image
        elif image in head_positions:
            sigma[name] = head_positions[image]
        else:
            return None  # frontier variable invisible at the head
    for name, image in rule_sigma.items():
        if name in sigma or name not in frontier.unmapped_names:
            continue
        if isinstance(image, Constant):
            sigma[name] = image
        elif image in head_positions:
            sigma[name] = head_positions[image]
    return Triplet.make(derivation.ic, derivation.unmapped, sigma)


# ----------------------------------------------------------------------
# The bottom-up fixpoint
# ----------------------------------------------------------------------
def _new_choices(
    seen: tuple[int, ...] | None, sizes: tuple[int, ...]
) -> Iterable[tuple[int, ...]]:
    """Adornment-index tuples over ``sizes`` not enumerated over ``seen``.

    ``seen`` holds the per-subgoal adornment counts of a rule's previous
    visit (``None``: never visited).  The tuples come in the
    lexicographic order of the full product, so adorned rules and
    adornment numbers arise in the order a full re-enumeration would
    produce them.
    """
    if seen is None:
        return itertools.product(*map(range, sizes))
    # One block per position holding the first new index (as in
    # semi-naive evaluation), merged back into the product's order.
    return sorted(
        itertools.chain.from_iterable(
            itertools.product(
                *map(range, seen[:first]),
                range(seen[first], sizes[first]),
                *map(range, sizes[first + 1:]),
            )
            for first in range(len(sizes))
        )
    )


#: Per ic index, the triplets one subgoal offers, each with its
#: rule-level sigma.
_ByIc = list[list[tuple[Triplet, dict[str, Term]]]]


class _RuleWork:
    """One rule's share of the fixpoint, kept across rounds: its IDB
    subgoals, the adornment counts its last visit saw, the triplet
    options of its EDB subgoals (built on the first visit that
    enumerates anything) and of each adornment met at an IDB subgoal."""

    def __init__(self, rule: Rule, idb: frozenset[str], ics: int) -> None:
        self.rule = rule
        self.positives = rule.positive_literals
        self.idb_positions = [
            i for i, literal in enumerate(self.positives) if literal.predicate in idb
        ]
        self.idb_predicates = [self.positives[i].predicate for i in self.idb_positions]
        self.head_positions = _head_positions(rule.head)
        self.seen: tuple[int, ...] | None = None
        self._ics = ics
        self._edb_options: list[_ByIc | None] | None = None
        self._idb_options: dict[tuple[int, int], _ByIc] = {}

    def edb_options(
        self, frontiers: FrontierTable, local_index: LocalAtomIndex
    ) -> list[_ByIc | None]:
        """Per positive subgoal, its base triplets by ic (``None`` at IDB
        subgoals)."""
        if self._edb_options is None:
            rule_order = OrderConstraintSet(self.rule.order_atoms)
            self._edb_options = [None] * len(self.positives)
            for i, literal in enumerate(self.positives):
                if i in self.idb_positions:
                    continue
                by_ic: _ByIc = [[] for _ in range(self._ics)]
                for triplet, rule_sigma in base_triplets(
                    literal.atom, self.rule, rule_order, frontiers, local_index
                ):
                    by_ic[triplet.ic].append((triplet, rule_sigma))
                self._edb_options[i] = by_ic
        return self._edb_options

    def idb_options(
        self, position: int, index: int, adornment: frozenset[Triplet]
    ) -> _ByIc:
        """The triplets of ``adornment``, the ``index``-th of the IDB
        subgoal at ``position``, by ic."""
        options = self._idb_options.get((position, index))
        if options is None:
            atom = self.positives[position].atom
            options = self._idb_options[(position, index)] = [[] for _ in range(self._ics)]
            for triplet in adornment:
                rule_sigma = _occurrence_image(triplet, atom)
                if rule_sigma is not None:
                    options[triplet.ic].append((triplet, rule_sigma))
        return options


def compute_adornments(
    program: Program,
    constraints: Sequence[IntegrityConstraint],
    *,
    local_index: LocalAtomIndex | None = None,
    max_adornments: int = 4096,
    treat_complete_as_inconsistent: bool = True,
    budget: "Budget | Governor | None" = None,
) -> AdornmentResult:
    """Run the bottom-up phase and build the adorned program ``P1``.

    ``max_adornments`` bounds the per-predicate adornment count (the
    worst case is doubly exponential — Theorem 5.1); exceeding it raises
    :class:`AdornmentLimitError` (a ``RuntimeError``) rather than
    looping for hours.  ``budget`` (a
    :class:`~repro.robustness.budget.Budget` or a shared running
    :class:`~repro.robustness.budget.Governor`) additionally polls the
    wall-clock deadline at every round and (strided) at every
    adorned-rule expansion.

    With ``treat_complete_as_inconsistent=False`` a complete mapping
    (empty residue) does *not* abort the adorned rule: the empty-residue
    triplet is kept and propagated.  This mode supports the quasi-local
    test of Section 4.2, which runs the original algorithm "while
    mapping only EDB atoms and not generating the inconsistent adornment
    even when all EDB atoms are mapped".
    """
    local_index = local_index or LocalAtomIndex()
    constraints = tuple(constraints)
    frontiers = FrontierTable(constraints)
    idb = program.idb_predicates
    adornments: dict[str, list[frozenset[Triplet]]] = {p: [] for p in idb}
    adorned_rules: list[AdornedRule] = []
    adornment_ids: dict[tuple[str, frozenset[Triplet]], int] = {}
    inconsistencies: list[tuple[int, Derivation]] = []
    works = [_RuleWork(rule, idb, len(constraints)) for rule in program.rules]

    def register(predicate: str, adornment: frozenset[Triplet]) -> bool:
        """Record an adornment; True when new."""
        if (predicate, adornment) in adornment_ids:
            return False
        adornment_ids[(predicate, adornment)] = len(adornments[predicate]) + 1
        adornments[predicate].append(adornment)
        if len(adornments[predicate]) > max_adornments:
            raise AdornmentLimitError(
                f"adornment count for {predicate} exceeded {max_adornments}",
                phase="adornments",
                limit="max_adornments",
            )
        return True

    governor = Governor.of(budget)
    tracer = get_tracer()
    trace_on = tracer.enabled
    rounds = 0

    changed = True
    with tracer.span(
        "adornments.compute", rules=len(program.rules), constraints=len(constraints)
    ) as compute_span:
        while changed:
            if governor is not None:
                governor.check("adornments")
            changed = False
            rounds += 1
            round_start = (len(adorned_rules), len(adornment_ids))
            for rule_index, work in enumerate(works):
                rule = work.rule
                # Adornments available per IDB subgoal; a visit enumerates
                # only the choices its previous visit could not see.
                sizes = tuple(len(adornments[p]) for p in work.idb_predicates)
                if not all(sizes) or sizes == work.seen:
                    continue
                seen, work.seen = work.seen, sizes
                edb_options = work.edb_options(frontiers, local_index)
                for indices in _new_choices(seen, sizes):
                    if governor is not None:
                        governor.tick("adornments")
                    choice: list[frozenset[Triplet] | None] = [None] * len(edb_options)
                    # Per-subgoal triplet options (rule-level sigma attached),
                    # indexed by ic.
                    per_subgoal_by_ic = list(edb_options)
                    for position, predicate, index in zip(
                        work.idb_positions, work.idb_predicates, indices
                    ):
                        choice[position] = adornments[predicate][index]
                        per_subgoal_by_ic[position] = work.idb_options(
                            position, index, choice[position]
                        )

                    derivations: list[Derivation] = []
                    inconsistent = False
                    for ic_index, ic in enumerate(constraints):
                        if not ic.positive_atoms:
                            continue
                        per_subgoal = [
                            options[ic_index] for options in per_subgoal_by_ic
                        ]
                        if per_subgoal and any(not opts for opts in per_subgoal):
                            # A subgoal with no triplet options for this ic
                            # cannot happen (the trivial triplet is always
                            # there), but guard anyway.
                            continue
                        for derivation in _combine_rule_triplets(ic_index, ic, per_subgoal):
                            if not derivation.unmapped:
                                inconsistencies.append((rule_index, derivation))
                                if treat_complete_as_inconsistent:
                                    inconsistent = True
                                    break
                            derivations.append(derivation)
                        if inconsistent:
                            break
                    if inconsistent:
                        continue
                    # Project onto the head.
                    head_triplets: dict[Triplet, list[int]] = {}
                    for d_index, derivation in enumerate(derivations):
                        head_triplet = _head_triplet_from(
                            derivation,
                            frontiers[(derivation.ic, derivation.unmapped)],
                            work.head_positions,
                        )
                        if head_triplet is not None:
                            head_triplets.setdefault(head_triplet, []).append(d_index)
                    head_adornment = frozenset(head_triplets)
                    register(rule.head.predicate, head_adornment)
                    adorned_rules.append(
                        AdornedRule(
                            rule=rule,
                            rule_index=rule_index,
                            head_adornment=head_adornment,
                            subgoal_adornments=tuple(choice),
                            derivations=tuple(derivations),
                            head_triplet_origins=tuple(
                                (t, tuple(indices)) for t, indices in head_triplets.items()
                            ),
                        )
                    )
                    changed = True
            if trace_on:
                tracer.event(
                    "adornments.round",
                    index=rounds,
                    new_adorned_rules=len(adorned_rules) - round_start[0],
                    new_adornments=len(adornment_ids) - round_start[1],
                )
        if trace_on:
            compute_span.set(
                rounds=rounds,
                adorned_rules=len(adorned_rules),
                adornments=len(adornment_ids),
                inconsistencies=len(inconsistencies),
            )
    return AdornmentResult(
        program=program,
        constraints=constraints,
        adornments=adornments,
        adorned_rules=adorned_rules,
        adornment_ids=adornment_ids,
        inconsistencies=inconsistencies,
        frontiers=frontiers,
    )
