"""Seeded input generators: every text the benchmark feeds the program.

Copies, not imports, of the ``repro.workloads`` families - the program
under test receives only program / constraint / fact *text* and goal
strings, all a pure function of ``(workload, seed, profile)``.

The generators are built so that the *amount of work* barely depends on
the seed: graph shapes are regular (random permutations between layers,
fixed chain lengths, complete trees) and the seed chooses node ids,
wiring, fact order and goal constants.  Run-to-run spread across seeds
then measures the machine, not the dice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Programs and integrity constraints (the paper's examples and companions)
# --------------------------------------------------------------------------

AB_RULES = (
    "p(X, Y) :- a(X, Y).",
    "p(X, Y) :- b(X, Y).",
    "p(X, Y) :- a(X, Z), p(Z, Y).",
    "p(X, Y) :- b(X, Z), p(Z, Y).",
)
AB_ICS = (":- a(X, Y), b(Y, Z).",)

GOODPATH_RULES = (
    "path(X, Y) :- step(X, Y).",
    "path(X, Y) :- step(X, Z), path(Z, Y).",
    "goodPath(X, Y) :- startPoint(X), path(X, Y), endPoint(Y).",
)
GOODPATH_ICS_31 = (":- startPoint(X), endPoint(Y), Y <= X.",)
GOODPATH_ICS_ORDER = (
    ":- startPoint(X), endPoint(Y), Y <= X.",
    ":- startPoint(X), step(X, Y), X < 100.",
    ":- step(X, Y), X >= Y.",
)

SG_RULES = (
    "sg(X, Y) :- sibling(X, Y).",
    "sg(X, Y) :- parent(X, XP), sg(XP, YP), parent(Y, YP).",
    "query(X, Y) :- leftTree(X), sg(X, Y), rightTree(Y).",
)
SG_ICS = (
    ":- leftTree(X), rightTree(X).",
    ":- sibling(X, Y), leftTree(X), rightTree(Y).",
)

TAINT_RULES = (
    "taint(V) :- source(V).",
    "taint(V) :- flow(W, V), taint(W).",
    "alarm(V) :- sink(V), taint(V).",
)
TAINT_ICS = (":- source(V), sink(V).", ":- flow(W, V), sanitizer(W).")

FLIGHT_RULES = (
    "leg(X, Y, F) :- segment_a(X, Y, F).",
    "leg(X, Y, F) :- segment_b(X, Y, F).",
    "route(X, Y) :- leg(X, Y, F).",
    "route(X, Y) :- leg(X, Z, F), route(Z, Y).",
    "trip(X, Y) :- origin(X), route(X, Y), destination(Y).",
)
FLIGHT_ICS = (
    ":- segment_a(X, H, F1), hub(H), segment_b(H, Y, F2).",
    ":- segment_a(X, Y, F), F <= 0.",
    ":- segment_b(X, Y, F), F <= 0.",
)

# Section 4.2: an ic with a negated *local* atom (case-split rewriting).
GATES_RULES = (
    "reach(X, Y) :- edge(X, Y).",
    "reach(X, Y) :- edge(X, Z), reach(Z, Y).",
    "safe(X, Y) :- source(X), reach(X, Y).",
)
GATES_ICS = (":- edge(X, Y), not open_gate(X).",)


@dataclass(frozen=True)
class Case:
    """One (program, ic's, facts, goal) unit of work, as text."""

    name: str
    program: str
    constraints: str
    facts: str
    goal: str

    @property
    def query(self) -> str:
        return self.goal.split("(", 1)[0]


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _shuffled(rng: random.Random, lines) -> list:
    out = list(lines)
    rng.shuffle(out)
    return out


def _case(rng, name, rules, ics, facts, goal) -> Case:
    # Rule and ic order stay fixed: the rewrite's cost depends on it
    # (colored closure by up to 20 %), and seeds must not change the work.
    return Case(name, _text(rules), _text(ics), _text(_shuffled(rng, facts)), goal)


# --------------------------------------------------------------------------
# Fact generators (lists of fact strings plus the ids goals may bind)
# --------------------------------------------------------------------------


def layered_edges(
    rng: random.Random,
    layers: "list[str]",
    width: int,
    branching: int,
    ids: "list[int]",
) -> list:
    """A layered DAG: ``layers[i]`` names the edge predicate from layer
    ``i`` to ``i + 1``; every node gets ``branching`` successors through
    random permutations, so in- and out-degrees are all equal."""
    facts = []
    for layer, pred in enumerate(layers):
        perms = [rng.sample(range(width), width) for _ in range(branching)]
        for k in range(width):
            left = ids[layer * width + k]
            for perm in perms:
                facts.append(f"{pred}({left}, {ids[(layer + 1) * width + perm[k]]}).")
    return sorted(set(facts))


def ab_graph(rng, *, layers_b, layers_a, width, branching, components=1):
    """``b``-layers then ``a``-layers (so ``:- a(X,Y), b(Y,Z)`` holds), in
    ``components`` disjoint copies.  Returns ``(facts, node ids by
    component)``; ids are distinct random integers."""
    per = (layers_b + layers_a + 1) * width
    pool = rng.sample(range(1, 20 * per * components), per * components)
    facts, nodes = [], []
    for c in range(components):
        ids = pool[c * per:(c + 1) * per]
        facts += layered_edges(
            rng, ["b"] * layers_b + ["a"] * layers_a, width, branching, ids
        )
        nodes.append(ids)
    return facts, nodes


def chains(rng, *, marked, unmarked, length, low, low_length):
    """Good-path data satisfying all three order ic's.

    ``marked`` chains run from a start point (all in ``[100, 100+K)``)
    to an end point (all above every start point); ``unmarked`` chains
    share the region but carry no start/end marks; ``low`` decoy chains
    live entirely below 100.  Chains are disjoint arithmetic lanes, so
    steps strictly increase.  Returns ``(facts, start points)``.
    """
    lanes = marked + unmarked
    base = 100 + rng.randrange(50)
    lane_of = rng.sample(range(lanes), lanes)
    facts, starts = [], []
    for chain in range(lanes):
        lane = lane_of[chain]
        nodes = [base + lane] + [
            base + lanes + lane + hop * lanes for hop in range(length)
        ]
        facts += [f"step({a}, {b})." for a, b in zip(nodes, nodes[1:])]
        if chain < marked:
            starts.append(nodes[0])
            facts += [f"startPoint({nodes[0]}).", f"endPoint({nodes[-1]})."]
    floor = -(low * (low_length + 1)) - 1000 - rng.randrange(50)
    for chain in range(low):
        nodes = [floor + chain + hop * low for hop in range(low_length + 1)]
        facts += [f"step({a}, {b})." for a, b in zip(nodes, nodes[1:])]
    return facts, starts


def family_trees(rng, *, depth, fanout):
    """Two complete family trees under one unmarked common ancestor, so
    ``query`` has answers while the same-generation ic's hold (the
    ancestor is neither left nor right; no sibling edge goes left to
    right).  Returns ``(facts, left-tree nodes)``."""
    count = 2 * sum(fanout ** d for d in range(depth + 1)) + 1
    ids = rng.sample(range(1, 20 * count), count)
    ancestor = ids.pop()
    facts = [f"sibling({ancestor}, {ancestor})."]
    left_nodes = []
    for side in ("leftTree", "rightTree"):
        root = ids.pop()
        facts += [f"parent({root}, {ancestor}).", f"{side}({root})."]
        frontier, members = [root], [root]
        for _ in range(depth):
            fresh = []
            for node in frontier:
                for _ in range(fanout):
                    child = ids.pop()
                    facts += [f"parent({child}, {node}).", f"{side}({child})."]
                    fresh.append(child)
            members += fresh
            frontier = fresh
        if side == "leftTree":
            left_nodes = members
    return facts, left_nodes


def dataflow(rng, *, components, size, sourced):
    """Taint data: ``components`` disjoint dataflow graphs of ``size``
    variables; only the first ``sourced`` hold a source, a sanitizer
    and a sink the source reaches.  Sanitizers have no outgoing flow and
    no variable is both source and sink."""
    ids = rng.sample(range(1, 20 * components * size), components * size)
    facts = []
    for c in range(components):
        var = ids[c * size:(c + 1) * size]
        spine = var[: size // 2]
        facts += [f"flow({a}, {b})." for a, b in zip(spine, spine[1:])]
        for v in var[size // 2:]:
            facts.append(f"flow({rng.choice(spine[:-1])}, {v}).")
        if c < sourced:
            facts += [
                f"source({spine[0]}).",
                f"sink({spine[-1]}).",
                f"sink({var[-1]}).",
                f"sanitizer({var[-2]}).",
            ]
    return sorted(set(facts))


def flights(rng, *, cities, segments):
    ids = rng.sample(range(1, 50 * cities), cities)
    hubs = set(ids[:2])
    origin, destination = ids[2], ids[3]
    facts = [f"hub({h})." for h in sorted(hubs)]
    facts += [
        f"origin({origin}).",
        f"destination({destination}).",
        f"segment_b({origin}, {destination}, {rng.randint(50, 500)}).",
    ]
    for _ in range(segments):
        source, target = rng.sample(ids, 2)
        fare = rng.randint(50, 500)
        # ``a`` never lands at a hub, so no a-then-b-from-hub pattern.
        kind = "a" if rng.random() < 0.5 and target not in hubs else "b"
        facts.append(f"segment_{kind}({source}, {target}, {fare}).")
    return sorted(set(facts)), origin


def gates(rng, *, nodes):
    ids = rng.sample(range(1, 50 * nodes), nodes)
    facts = [f"edge({a}, {b})." for a, b in zip(ids, ids[1:])]
    facts += [f"open_gate({a})." for a in ids[:-1]]
    facts.append(f"source({ids[0]}).")
    return facts, ids[0]


def colored_closure(colors: int):
    """Closure over ``colors`` edge predicates with chained
    forbidden-successor ic's (the knob behind Theorem 5.1's bound)."""
    names = [f"e{i}" for i in range(colors)]
    rules = []
    for name in names:
        rules += [f"p(X, Y) :- {name}(X, Y).", f"p(X, Y) :- {name}(X, Z), p(Z, Y)."]
    ics = [f":- {a}(X, Y), {b}(Y, Z)." for a, b in zip(names, names[1:])]
    return rules, ics


# --------------------------------------------------------------------------
# Sizes.  ``full`` is what the committed numbers use; ``smoke`` drives the
# same code paths in a few seconds for the harness's own tests.
# --------------------------------------------------------------------------

SIZES = {
    "full": {
        "closure_ab": dict(layers_b=5, layers_a=5, width=50, branching=3),
        "closure_chains": dict(marked=8, unmarked=0, length=100, low=8, low_length=100),
        "closure_sg": dict(depth=7, fanout=2),
        "load_taint": dict(components=650, size=24, sourced=40),
        "load_chains": dict(marked=40, unmarked=2200, length=5, low=800, low_length=5),
        "load_ab": dict(layers_b=2, layers_a=2, width=10, branching=2, components=65),
        "compile_nodes": 10,
        "serve_ab": dict(layers_b=4, layers_a=4, width=14, branching=2),
        "serve_chains": dict(marked=8, unmarked=4, length=30, low=4, low_length=30),
    },
    "smoke": {
        "closure_ab": dict(layers_b=2, layers_a=2, width=8, branching=2),
        "closure_chains": dict(marked=3, unmarked=0, length=12, low=2, low_length=12),
        "closure_sg": dict(depth=3, fanout=2),
        "load_taint": dict(components=30, size=10, sourced=4),
        "load_chains": dict(marked=4, unmarked=40, length=4, low=10, low_length=4),
        "load_ab": dict(layers_b=2, layers_a=2, width=4, branching=2, components=6),
        "compile_nodes": 6,
        "serve_ab": dict(layers_b=2, layers_a=2, width=4, branching=2),
        "serve_chains": dict(marked=3, unmarked=2, length=5, low=2, low_length=5),
    },
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def closure_full(seed: int, profile: str = "full") -> "list[Case]":
    """All-free goals over mid-sized EDBs: the fixpoint dominates."""
    rng, size = _rng("closure_full", seed), SIZES[profile]
    ab_facts, _ = ab_graph(rng, **size["closure_ab"])
    chain_facts, _ = chains(rng, **size["closure_chains"])
    sg_facts, _ = family_trees(rng, **size["closure_sg"])
    return [
        _case(rng, "ab", AB_RULES, AB_ICS, ab_facts, "p(X, Y)"),
        _case(rng, "goodpath", GOODPATH_RULES, GOODPATH_ICS_ORDER, chain_facts,
              "goodPath(X, Y)"),
        _case(rng, "sg", SG_RULES, SG_ICS, sg_facts, "query(X, Y)"),
    ]


def point_load(seed: int, profile: str = "full") -> "list[Case]":
    """Selective goals over large, mostly irrelevant EDBs: loading dominates."""
    rng, size = _rng("point_load", seed), SIZES[profile]
    taint_facts = dataflow(rng, **size["load_taint"])
    chain_facts, starts = chains(rng, **size["load_chains"])
    ab_facts, nodes = ab_graph(rng, **size["load_ab"])
    width = size["load_ab"]["width"]
    return [
        _case(rng, "taint", TAINT_RULES, TAINT_ICS, taint_facts, "alarm(V)"),
        _case(rng, "goodpath", GOODPATH_RULES, GOODPATH_ICS_ORDER, chain_facts,
              f"goodPath({rng.choice(starts)}, Y)"),
        _case(rng, "ab", AB_RULES, AB_ICS, ab_facts,
              f"p({rng.choice(rng.choice(nodes)[:width])}, Y)"),
    ]


def rewrite_compile(seed: int, profile: str = "full") -> "list[Case]":
    """Twelve distinct program/ic/goal texts over tiny EDBs: the
    rewrite, the order solver and the magic transform dominate."""
    rng, size = _rng("rewrite_compile", seed), SIZES[profile]
    n = size["compile_nodes"]
    cases = []

    def add(name, rules, ics, facts, goal):
        cases.append(_case(rng, name, rules, ics, facts, goal))

    chain_facts, starts = chains(rng, marked=3, unmarked=2, length=n, low=2, low_length=n)
    add("goodpath31", GOODPATH_RULES, GOODPATH_ICS_31, chain_facts,
        f"goodPath({rng.choice(starts)}, Y)")
    add("goodpath_order", GOODPATH_RULES, GOODPATH_ICS_ORDER, chain_facts,
        f"goodPath({rng.choice(starts)}, Y)")
    ab_facts, nodes = ab_graph(rng, layers_b=2, layers_a=2, width=n // 2, branching=2)
    add("ab_bf", AB_RULES, AB_ICS, ab_facts, f"p({nodes[0][0]}, Y)")
    add("ab_fb", AB_RULES, AB_ICS, ab_facts, f"p(X, {nodes[0][-1]})")
    sg_facts, left = family_trees(rng, depth=2, fanout=2)
    add("sg", SG_RULES, SG_ICS, sg_facts, f"query({left[-1]}, Y)")
    add("taint", TAINT_RULES, TAINT_ICS, dataflow(rng, components=3, size=n, sourced=2),
        "alarm(V)")
    flight_facts, origin = flights(rng, cities=n, segments=3 * n)
    add("flight", FLIGHT_RULES, FLIGHT_ICS, flight_facts, f"trip({origin}, Y)")
    gate_facts, source = gates(rng, nodes=n)
    add("gates", GATES_RULES, GATES_ICS, gate_facts, f"safe({source}, Y)")
    for colors in (2, 3, 4, 5):
        rules, ics = colored_closure(colors)
        ids = rng.sample(range(1, 1000), (colors + 1) * 3)
        # Colors descend along the path (e_{k-1} first), so no e_i edge
        # is ever followed by an e_{i+1} edge.
        order = [f"e{i}" for i in reversed(range(colors))]
        facts = layered_edges(rng, order, 3, 2, ids)
        add(f"colors{colors}", rules, ics, facts, f"p({ids[0]}, Y)")
    return cases


BATCH = {
    "closure_full": closure_full,
    "point_load": point_load,
    "rewrite_compile": rewrite_compile,
}

#: The unit whose latency ``heavy_p50_ms`` reports, per batch workload.
HEAVY_UNIT = {"closure_full": "ab", "point_load": "taint", "rewrite_compile": "colors5"}


# --------------------------------------------------------------------------
# serve_mixed: tenants and the per-connection op script
# --------------------------------------------------------------------------

CONNECTIONS = 2
SHARED_TENANT = "shared"


@dataclass(frozen=True)
class Tenant:
    name: str
    program: str
    constraints: str
    facts: str
    query: str


@dataclass(frozen=True)
class Op:
    """One scripted request: ``kind`` is query / materialized / shared /
    rare / ingest; ``text`` is the goal, or the fact for an ingest."""

    kind: str
    tenant: str
    text: str


class ServeScript:
    """Tenants plus one endless, deterministic op stream per connection.

    Each connection writes only to its own a/b tenant, so every tenant
    sees one op sequence whatever the interleaving, and every response
    has exactly one right answer.  Ingested edges stay inside one zone
    (``b`` before ``a``), so the ic keeps holding.
    """

    #: kind -> share of ops.  ``rare`` queries use the uncacheable
    #: ``magic-first`` order: the artifact cache misses on each of them.
    MIX = (("query", 0.45), ("materialized", 0.25), ("shared", 0.20),
           ("rare", 0.05), ("ingest", 0.05))

    def __init__(self, seed: int, profile: str = "full"):
        size = SIZES[profile]
        rng = _rng("serve_mixed", seed)
        self.seed = seed
        self.tenants: list[Tenant] = []
        self._graphs = []
        shape = size["serve_ab"]
        for conn in range(CONNECTIONS):
            facts, nodes = ab_graph(rng, **shape)
            self.tenants.append(
                Tenant(f"ab{conn}", _text(AB_RULES), _text(AB_ICS),
                       _text(_shuffled(rng, facts)), "p")
            )
            self._graphs.append((nodes[0], set(facts)))
        chain_facts, self._starts = chains(rng, **size["serve_chains"])
        self.tenants.append(
            Tenant(SHARED_TENANT, _text(GOODPATH_RULES), _text(GOODPATH_ICS_ORDER),
                   _text(_shuffled(rng, chain_facts)), "goodPath")
        )
        self._shape = shape

    def ops(self, conn: int):
        """The endless op stream of connection ``conn``."""
        rng = _rng(f"serve_mixed/ops{conn}", self.seed)
        ids, edges = self._graphs[conn]
        edges = set(edges)
        width = self._shape["width"]
        layers_b = self._shape["layers_b"]
        layers = layers_b + self._shape["layers_a"]
        tenant = f"ab{conn}"
        kinds = [k for k, _ in self.MIX]
        weights = [w for _, w in self.MIX]
        while True:
            kind = rng.choices(kinds, weights)[0]
            if kind == "shared":
                yield Op(kind, SHARED_TENANT, f"goodPath({rng.choice(self._starts)}, Y)")
            elif kind == "ingest":
                for _ in range(64):
                    layer = rng.randrange(layers)
                    pred = "b" if layer < layers_b else "a"
                    left = ids[layer * width + rng.randrange(width)]
                    right = ids[(layer + 1) * width + rng.randrange(width)]
                    fact = f"{pred}({left}, {right})."
                    if fact not in edges:
                        edges.add(fact)
                        yield Op(kind, tenant, fact)
                        break
                # A saturated graph has no new edge to offer: skip the op.
            else:
                # Bind a node with successors (any layer but the last).
                node = ids[rng.randrange(layers * width)]
                yield Op(kind, tenant, f"p({node}, Y)")

    def probe_ops(self) -> "list[Op]":
        """One checked query per tenant (asked after every restart)."""
        out = [Op("materialized", f"ab{c}", f"p({self._graphs[c][0][0]}, Y)")
               for c in range(CONNECTIONS)]
        out.append(Op("shared", SHARED_TENANT, f"goodPath({self._starts[0]}, Y)"))
        return out
