"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``optimize``     rewrite a program to incorporate its constraints
``run``          evaluate a program (optionally optimized) over facts
``magic``        magic-sets transformation for a bound query atom
``pipeline``     chain the semantic rewrite and magic sets (either order)
``session``      durable evaluation: run (start or restart) / ingest / inspect
``serve``        boot the multi-tenant HTTP serving daemon
``client``       talk to a running daemon (register / query / ingest / stats)
``trace``        print the structured trace of a rewrite + evaluation
``profile``      per-rule / per-predicate hot-path breakdown
``bench``        the repo benchmark: every argument goes to ``perf/run.py``
``report``       regenerate EXPERIMENTS.md from the benchmark suite
``check``        check a fact base against integrity constraints
``satisfiable``  decide satisfiability of the query predicate
``empty``        decide program emptiness (Proposition 5.2)
``contained``    decide containment of a program in a union of CQs

File formats: programs and constraints use the textual syntax of
:mod:`repro.datalog.parser` (rules ``head :- body.``, constraints
``:- body.``); fact files hold ground facts ``p(1, 2).``.  Program
files may also carry inline facts: a ground, body-less statement whose
predicate no rule derives is EDB data (see ``examples/good_path.dl``),
so ``run``/``trace``/``profile`` work without ``--data``.

``run``, ``magic`` and ``pipeline`` accept ``--trace``: the command
runs under an enabled tracer and appends a per-span work/time summary.

Examples::

    python -m repro optimize program.dl --constraints ics.dl --query goodPath --explain
    python -m repro run program.dl --constraints ics.dl --query p --data facts.dl --compare
    python -m repro magic program.dl --goal 'p(1, Y)' --data facts.dl --compare
    python -m repro pipeline program.dl --constraints ics.dl --goal 'p(1, Y)' \
        --order magic-first --data facts.dl --compare --trace
    python -m repro session run program.dl --query p --data facts.dl \
        --checkpoint-dir ./ckpts
    python -m repro session ingest program.dl --query p --data facts.dl \
        --facts new_facts.dl --checkpoint-dir ./ckpts
    python -m repro session inspect program.dl --query p --data facts.dl \
        --checkpoint-dir ./ckpts
    python -m repro trace examples/good_path.dl --query goodPath \
        --constraints examples/good_path_ics.dl
    python -m repro profile examples/good_path.dl --query goodPath --top 5
    python -m repro bench --smoke
    python -m repro report --regenerate --check
    python -m repro check ics.dl --data facts.dl
    python -m repro satisfiable program.dl --constraints ics.dl --query p
    python -m repro contained program.dl --query t --ucq queries.dl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# The front end every evaluating command runs (parse, rewrite, magic,
# evaluate) is imported here, and so is what ``main`` needs to report an
# error.  Whatever only some commands run is imported inside them: the
# decision procedures, sessions, the daemon, its client, the profiler
# and the report renderers.
from .constraints.integrity import IntegrityConstraint, violations
from .core.rewrite import optimize
from .datalog.database import Database, FactRows
from .datalog.evaluation import EvaluationStats, evaluate
from .datalog.parser import (
    parse_atom,
    parse_constraints,
    parse_facts,
    parse_program,
    parse_program_and_facts,
    parse_rules,
)
from .datalog.program import Program
from .magic.pipeline import PIPELINE_ORDERS, check_equivalence, run_pipeline
from .magic.transform import magic_transform, match_query_atom
from .observability.trace import JsonlSink, RingBufferSink, tracing
from .robustness.budget import Budget, Governor, parse_limit_value, parse_timeout_value
from .robustness.errors import EvaluationAborted, ReproError, UsageError

if TYPE_CHECKING:
    from .persist.session import Session

__all__ = ["main"]


def _read(path: str) -> str:
    return Path(path).read_text()


def _timeout_value(text: str) -> float:
    """argparse ``type=`` for ``--timeout``: shared CLI/daemon message."""
    return parse_timeout_value(text)  # type: ignore[return-value]


def _max_facts_value(text: str) -> int:
    return parse_limit_value(text, option="max-facts")  # type: ignore[return-value]


def _max_iterations_value(text: str) -> int:
    return parse_limit_value(text, option="max-iterations")  # type: ignore[return-value]


def _budget_from(args: argparse.Namespace) -> Governor | None:
    """One shared governor for the whole command (or ``None`` unbounded).

    The deadline is anchored here, before any work starts, so
    ``--timeout`` bounds rewrite + transform + evaluation together
    rather than each phase separately.
    """
    budget = Budget(
        timeout=getattr(args, "timeout", None),
        max_iterations=getattr(args, "max_iterations", None),
        max_facts=getattr(args, "max_facts", None),
    )
    if budget.unlimited:
        return None
    return Governor(budget)


def _load_program(args: argparse.Namespace) -> Program:
    program = parse_program(_read(args.program), query=args.query)
    if program.query is None:
        raise UsageError("--query is required for this command")
    return program


def _load_constraints(args: argparse.Namespace) -> list[IntegrityConstraint]:
    if not getattr(args, "constraints", None):
        return []
    return parse_constraints(_read(args.constraints))


def _load_database(path: str) -> Database:
    return Database(parse_facts(_read(path)))


def _database_from(args: argparse.Namespace, inline_facts) -> Database:
    """Combine a program file's inline facts with an optional --data file."""
    if getattr(args, "data", None):
        return Database(FactRows.of(inline_facts, parse_facts(_read(args.data))))
    return Database(inline_facts)


def _with_optional_trace(args: argparse.Namespace, body) -> int:
    """Run ``body`` under a tracer when ``--trace`` was given and append
    the per-span summary to the command's output."""
    if not getattr(args, "trace", False):
        return body()
    from .observability.report import trace_summary

    sink = RingBufferSink()
    with tracing(sink):
        code = body()
    print("\ntrace summary:")
    print(trace_summary(sink))
    return code


def _cmd_optimize(args: argparse.Namespace) -> int:
    program = _load_program(args)
    constraints = _load_constraints(args)
    report = optimize(program, constraints)
    if args.explain:
        print(report.explain())
    else:
        print(report.summary())
        print()
        if report.program is not None:
            print(report.program)
        else:
            print("% query unsatisfiable: the rewritten program is empty")
    if args.dot:
        from .core.visualize import querytree_dot

        Path(args.dot).write_text(querytree_dot(report.tree, include_labels=True))
        print(f"\nquery tree written to {args.dot} (render with dot -Tpng)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program, inline_facts = parse_program_and_facts(_read(args.program), query=args.query)
    if program.query is None:
        raise UsageError("--query is required for this command")
    constraints = _load_constraints(args)
    database = _database_from(args, inline_facts)
    governor = _budget_from(args)

    def body() -> int:
        original = evaluate(program, database, budget=governor)
        print(f"answers ({len(original.query_rows())}):")
        for row in sorted(original.query_rows(), key=repr):
            print(f"  {program.query}{row!r}")
        print(
            f"work: {original.stats.probes} probes, "
            f"{original.stats.rows_scanned} rows scanned, "
            f"{original.stats.facts_derived} facts derived"
        )
        if args.compare:
            report = optimize(program, constraints, budget=governor)
            rewritten = report.evaluation(database, budget=governor)
            if rewritten is None:
                print("optimized: query unsatisfiable (empty program)")
                return 0
            match = rewritten.query_rows() == original.query_rows()
            print(
                f"optimized work: {rewritten.stats.probes} probes, "
                f"{rewritten.stats.rows_scanned} rows scanned, "
                f"{rewritten.stats.facts_derived} facts derived "
                f"(answers {'match' if match else 'DIFFER — is the database consistent?'})"
            )
        return 0

    return _with_optional_trace(args, body)


def _load_goal(args: argparse.Namespace):
    try:
        return parse_atom(args.goal)
    except Exception as exc:
        raise UsageError(f"cannot parse --goal {args.goal!r}: {exc}") from exc


def _print_work(label: str, stats) -> None:
    print(
        f"{label}: {stats.probes} probes, {stats.rows_scanned} rows scanned, "
        f"{stats.facts_derived} facts derived"
    )


def _answer_goal(
    args: argparse.Namespace,
    label: str,
    original: Program,
    final: Program | None,
    goal,
    database: Database,
    governor: Governor | None,
    differ: str = "answers DIFFER",
) -> int:
    """Print ``final``'s answers to ``goal`` and what they cost; only
    under ``--compare`` is ``original`` evaluated too (exit 1 on a mismatch)."""
    check = None
    if args.compare:
        check = check_equivalence(original, final, goal, database, budget=governor)
        answers, stats = check.transformed_answers, check.transformed_stats
    elif final is None:
        answers, stats = frozenset(), EvaluationStats()
    else:
        result = evaluate(final, database, budget=governor)
        answers = frozenset(
            row for row in result.query_rows() if match_query_atom(row, goal)
        )
        stats = result.stats
    print(f"\nanswers ({len(answers)}):")
    for row in sorted(answers, key=repr):
        print(f"  {goal.predicate}{row!r}")
    _print_work(f"{label} work", stats)
    if check is None:
        return 0
    _print_work("original work", check.original_stats)
    print("answers match" if check.equivalent else differ)
    return 0 if check.equivalent else 1


def _cmd_magic(args: argparse.Namespace) -> int:
    goal = _load_goal(args)
    program, inline_facts = parse_program_and_facts(
        _read(args.program), query=goal.predicate
    )
    governor = _budget_from(args)

    def body() -> int:
        mp = magic_transform(program, goal)
        print(mp.summary())
        print()
        print(mp.program)
        if args.data or inline_facts:
            database = _database_from(args, inline_facts)
            return _answer_goal(
                args, "magic", program, mp.program, goal, database, governor
            )
        return 0

    return _with_optional_trace(args, body)


def _cmd_pipeline(args: argparse.Namespace) -> int:
    goal = _load_goal(args)
    program, inline_facts = parse_program_and_facts(
        _read(args.program), query=goal.predicate
    )
    constraints = _load_constraints(args)
    governor = _budget_from(args)

    def body() -> int:
        report = run_pipeline(program, constraints, goal, order=args.order, budget=governor)
        print(report.summary())
        print()
        if report.program is None:
            print("% query unsatisfiable: the pipeline produced an empty program")
        else:
            print(report.program)
        if args.data or inline_facts:
            database = _database_from(args, inline_facts)
            return _answer_goal(
                args, "pipeline", program, report.program, goal, database, governor,
                differ="answers DIFFER — is the database consistent?",
            )
        return 0

    return _with_optional_trace(args, body)


def _session_from(args: argparse.Namespace) -> Session:
    from .persist.journal import IngestJournal
    from .persist.session import Session

    program, inline_facts = parse_program_and_facts(_read(args.program), query=args.query)
    if program.query is None:
        raise UsageError("--query is required for this command")
    database = _database_from(args, inline_facts)
    return Session(
        program,
        database,
        journal=IngestJournal(Path(args.checkpoint_dir) / "journal"),
        budget=_budget_from(args),
    )


def _print_session_outcome(session: Session, outcome) -> None:
    result = outcome.result
    program = result.program
    print(f"mode: {outcome.mode}")
    print(f"checkpoints written: {outcome.checkpoints_written}")
    if outcome.replayed:
        print(f"journal records replayed: {outcome.replayed}")
    rows = result.query_rows()
    print(f"answers ({len(rows)}):")
    for row in sorted(rows, key=repr):
        print(f"  {program.query}{row!r}")
    print(
        f"work: {result.stats.iterations} iterations, "
        f"{result.stats.rows_scanned} rows scanned, "
        f"{result.stats.facts_derived} facts derived"
    )


def _cmd_session_run(args: argparse.Namespace) -> int:
    # A fresh process over the initial files: the checkpoint directory
    # may hold more than they do.  Start or restart, recovery decides.
    session = _session_from(args)
    _print_session_outcome(session, session.recover())
    return 0


def _cmd_session_ingest(args: argparse.Namespace) -> int:
    session = _session_from(args)
    facts = parse_facts(_read(args.facts))
    if not facts:
        raise UsageError(f"--facts file {args.facts} holds no ground facts")
    outcome = session.ingest(facts)
    # This process is about to exit: leave the next command a base
    # covering the ingest instead of a journal suffix to replay.
    session.checkpoint()
    _print_session_outcome(session, outcome)
    return 0


def _cmd_session_inspect(args: argparse.Namespace) -> int:
    import json as _json

    session = _session_from(args)
    print(_json.dumps(session.inspect(), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.app import ServeApp
    from .serve.http import run_server

    defaults = Budget(
        timeout=args.timeout,
        max_iterations=args.max_iterations,
        max_facts=args.max_facts,
    )
    app = ServeApp(
        persist_root=None if args.persist_dir is None else Path(args.persist_dir),
        defaults=None if defaults.unlimited else defaults,
    )
    return run_server(app, host=args.host, port=args.port)


def _print_aborted_response(payload: dict) -> None:
    """Print an abort's 503 body to stderr: a local abort and a daemon
    503 read the same (exit 1)."""
    print(f"aborted: {payload.get('error')}", file=sys.stderr)
    partial = payload.get("partial")
    if partial:
        print(
            f"partial results: {partial.get('facts_derived', 0)} facts derived in "
            f"{partial.get('iterations', 0)} iterations "
            f"({partial.get('wall_time_seconds', 0.0):.3f}s, "
            f"{partial.get('rows_scanned', 0)} rows scanned)",
            file=sys.stderr,
        )
    if "partial_answers" in payload:
        print(f"partial answers: {payload['partial_answers']} rows", file=sys.stderr)


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from .serve.client import ServeClient, ServeClientError

    with ServeClient.from_url(args.url) as client:
        try:
            if args.client_command == "health":
                payload = client.health()
            elif args.client_command == "stats":
                payload = client.stats()
            elif args.client_command == "register":
                payload = client.register(
                    args.name,
                    _read(args.program),
                    constraints=None if not args.constraints else _read(args.constraints),
                    facts=None if not args.data else _read(args.data),
                    query=args.query,
                )
            elif args.client_command == "inspect":
                payload = client.inspect(args.name)
            elif args.client_command == "query":
                payload = client.query(
                    args.name,
                    args.goal,
                    mode=args.mode,
                    order=args.order,
                    timeout=args.timeout,
                    max_facts=args.max_facts,
                    max_iterations=args.max_iterations,
                )
            else:  # ingest
                payload = client.ingest(args.name, _read(args.facts))
        except ServeClientError as exc:
            if exc.status == 503 and exc.payload.get("aborted"):
                _print_aborted_response(exc.payload)
                return 1
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ConnectionError, OSError) as exc:
            print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
            return 2
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .observability.report import render_trace

    program, inline_facts = parse_program_and_facts(_read(args.program), query=args.query)
    constraints = _load_constraints(args)
    database = _database_from(args, inline_facts)

    sink = RingBufferSink()
    sinks = [sink]
    jsonl = None
    if args.jsonl:
        jsonl = JsonlSink(args.jsonl)
        sinks.append(jsonl)
    try:
        with tracing(*sinks):
            target = program
            if constraints:
                if program.query is None:
                    raise UsageError(
                        "--query is required to trace the semantic rewrite"
                    )
                report = optimize(program, constraints)
                target = report.program
            if target is not None:
                evaluate(target, database)
    finally:
        if jsonl is not None:
            jsonl.close()
    print(render_trace(sink, limit=args.limit))
    if args.jsonl:
        print(f"\n{len(sink)} events written to {args.jsonl}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .observability.profile import profile_evaluation

    program, inline_facts = parse_program_and_facts(_read(args.program), query=args.query)
    database = _database_from(args, inline_facts)
    profile, result = profile_evaluation(program, database)
    print(profile.render(top=args.top))
    if program.query is not None:
        print(f"\nanswers: {len(result.query_rows())} rows in {program.query}")
    return 0


def _bench(argv: Sequence[str]) -> int:
    """``repro bench <args>`` is ``python perf/run.py <args>``: the repo
    has one benchmark (see ``perf/README.md``) and it lives beside
    ``src/`` in a checkout, not in the installed package."""
    import subprocess  # only this command needs it; keep it off every other start

    script = Path(__file__).resolve().parents[2] / "perf" / "run.py"
    if not script.is_file():
        raise UsageError(
            f"repro bench runs perf/run.py of a source checkout; {script} does not exist"
        )
    return subprocess.call([sys.executable, str(script), *argv])


def _cmd_report(args: argparse.Namespace) -> int:
    from .observability.report import regenerate_experiments

    if not args.regenerate:
        raise UsageError("pass --regenerate (optionally with --check)")
    stale, _content = regenerate_experiments(
        args.benchmarks, args.output, check=args.check
    )
    if args.check:
        if stale:
            print(
                f"{args.output} is stale — regenerate with: "
                "python -m repro report --regenerate"
            )
            return 1
        print(f"{args.output} is up to date")
        return 0
    print(f"{'regenerated' if stale else 'unchanged'}: {args.output}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    constraints = parse_constraints(_read(args.constraints_file))
    database = _load_database(args.data)
    bad = 0
    for ic in constraints:
        count = violations(ic, database)
        if count:
            bad += 1
            print(f"VIOLATED ({count} instantiation(s)): {ic}")
    if bad:
        print(f"{bad} of {len(constraints)} constraints violated")
        return 1
    print(f"all {len(constraints)} constraints satisfied")
    return 0


def _cmd_satisfiable(args: argparse.Namespace) -> int:
    from .core.reachability import is_satisfiable

    program = _load_program(args)
    constraints = _load_constraints(args)
    answer = is_satisfiable(program, constraints)
    print("satisfiable" if answer else "unsatisfiable")
    return 0 if answer else 1


def _cmd_empty(args: argparse.Namespace) -> int:
    from .core.emptiness import is_empty_program, unsatisfiable_initialization_rules

    program = parse_program(_read(args.program))
    constraints = _load_constraints(args)
    if is_empty_program(program, constraints):
        print("empty: no IDB predicate is satisfiable")
        for rule in unsatisfiable_initialization_rules(program, constraints):
            print(f"  unsatisfiable initialization rule: {rule}")
        return 1
    print("nonempty")
    return 0


def _cmd_contained(args: argparse.Namespace) -> int:
    from .core.containment import program_contained_in_ucq
    from .cq.conjunctive import ConjunctiveQuery, UnionOfConjunctiveQueries

    program = _load_program(args)
    rules = parse_rules(_read(args.ucq))
    union = UnionOfConjunctiveQueries(
        tuple(ConjunctiveQuery.from_rule(rule) for rule in rules)
    )
    answer = program_contained_in_ucq(program, union)
    print("contained" if answer else "not contained")
    return 0 if answer else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic query optimization in Datalog programs (PODS 1995)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def program_command(name: str, help_text: str):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("program", help="program file (Datalog rules)")
        cmd.add_argument("--constraints", help="integrity constraint file")
        cmd.add_argument("--query", help="query predicate name")
        return cmd

    cmd = program_command("optimize", "rewrite a program to incorporate its constraints")
    cmd.add_argument("--explain", action="store_true", help="print the full account")
    cmd.add_argument("--dot", help="write the query tree as a DOT file")
    cmd.set_defaults(func=_cmd_optimize)

    def trace_flag(cmd) -> None:
        cmd.add_argument(
            "--trace", action="store_true",
            help="run under a tracer and append a per-span summary",
        )

    def budget_flags(cmd) -> None:
        # The type= callables raise UsageError with the same normalized
        # message the serving daemon returns as HTTP 400, so CLI and
        # daemon diagnose malformed limits identically.
        cmd.add_argument(
            "--timeout", type=_timeout_value, default=None, metavar="SECONDS",
            help="wall-clock budget for the whole command; on expiry the "
            "command stops with whatever partial results it has (exit code 1)",
        )
        cmd.add_argument(
            "--max-facts", type=_max_facts_value, default=None, metavar="N",
            help="stop evaluation after deriving more than N facts (exit code 1)",
        )
        cmd.add_argument(
            "--max-iterations", type=_max_iterations_value, default=None, metavar="N",
            help="stop evaluation after N semi-naive iterations, total "
            "across SCCs (exit code 1)",
        )

    cmd = program_command("run", "evaluate a program over a fact base")
    cmd.add_argument("--data", help="fact file (inline program facts also count)")
    cmd.add_argument(
        "--compare", action="store_true", help="also run the optimized program"
    )
    trace_flag(cmd)
    budget_flags(cmd)
    cmd.set_defaults(func=_cmd_run)

    cmd = sub.add_parser("magic", help="magic-sets transformation for a bound query atom")
    cmd.add_argument("program", help="program file (Datalog rules)")
    cmd.add_argument("--goal", required=True, help="query atom, e.g. 'p(1, Y)'")
    cmd.add_argument("--data", help="fact file (evaluate the magic program)")
    cmd.add_argument(
        "--compare", action="store_true",
        help="also evaluate the original program and compare answers",
    )
    trace_flag(cmd)
    budget_flags(cmd)
    cmd.set_defaults(func=_cmd_magic)

    cmd = sub.add_parser(
        "pipeline", help="semantic rewrite + magic sets, chained in either order"
    )
    cmd.add_argument("program", help="program file (Datalog rules)")
    cmd.add_argument("--constraints", help="integrity constraint file")
    cmd.add_argument("--goal", required=True, help="query atom, e.g. 'p(1, Y)'")
    cmd.add_argument(
        "--order", default="semantic-first", choices=PIPELINE_ORDERS,
        help="stage ordering",
    )
    cmd.add_argument("--data", help="fact file (evaluate the final program)")
    cmd.add_argument(
        "--compare", action="store_true",
        help="also evaluate the original program and compare answers",
    )
    trace_flag(cmd)
    budget_flags(cmd)
    cmd.set_defaults(func=_cmd_pipeline)

    session = sub.add_parser(
        "session",
        help="durable evaluation sessions: run (start or restart) / ingest / inspect",
    )
    session_sub = session.add_subparsers(dest="session_command", required=True)

    def session_command(name: str, help_text: str, func):
        cmd = session_sub.add_parser(name, help=help_text)
        cmd.add_argument("program", help="program file (Datalog rules, inline facts allowed)")
        cmd.add_argument("--query", help="query predicate name")
        cmd.add_argument("--data", help="fact file (inline program facts also count)")
        cmd.add_argument(
            "--checkpoint-dir", required=True, metavar="DIR",
            help="session directory: its journal holds the base EDB and the "
            "ingests since (created if missing)",
        )
        budget_flags(cmd)
        cmd.set_defaults(func=func)
        return cmd

    session_command(
        "run",
        "start, or restart from the directory's journal",
        _cmd_session_run,
    )
    cmd = session_command(
        "ingest", "add EDB facts and re-derive incrementally", _cmd_session_ingest
    )
    cmd.add_argument(
        "--facts", required=True, metavar="FILE",
        help="file of new ground facts to ingest",
    )
    session_command(
        "inspect", "summarize the directory's base and journal as JSON",
        _cmd_session_inspect,
    )

    cmd = sub.add_parser(
        "serve", help="boot the multi-tenant HTTP serving daemon"
    )
    cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    cmd.add_argument("--port", type=int, default=8484, help="bind port (0 = ephemeral)")
    cmd.add_argument(
        "--persist-dir", metavar="DIR",
        help="root directory for per-tenant journals (a restart recovers every "
        "acknowledged ingest)",
    )
    budget_flags(cmd)  # the server-side ceiling every request is clamped to
    cmd.set_defaults(func=_cmd_serve)

    client = sub.add_parser("client", help="talk to a running serving daemon")
    client.add_argument(
        "--url", default="http://127.0.0.1:8484", help="daemon base URL"
    )
    client_sub = client.add_subparsers(dest="client_command", required=True)
    ccmd = client_sub.add_parser("health", help="GET /healthz")
    ccmd.set_defaults(func=_cmd_client)
    ccmd = client_sub.add_parser("stats", help="GET /stats")
    ccmd.set_defaults(func=_cmd_client)
    ccmd = client_sub.add_parser("register", help="PUT /programs/{name}")
    ccmd.add_argument("name", help="tenant name")
    ccmd.add_argument("--program", required=True, help="program file (inline facts allowed)")
    ccmd.add_argument("--constraints", help="integrity constraint file")
    ccmd.add_argument("--data", help="fact file")
    ccmd.add_argument("--query", help="query predicate name")
    ccmd.set_defaults(func=_cmd_client)
    ccmd = client_sub.add_parser("inspect", help="GET /programs/{name}")
    ccmd.add_argument("name", help="tenant name")
    ccmd.set_defaults(func=_cmd_client)
    ccmd = client_sub.add_parser("query", help="POST /programs/{name}/query")
    ccmd.add_argument("name", help="tenant name")
    ccmd.add_argument("--goal", required=True, help="query atom, e.g. 'p(1, Y)'")
    # Sent only when given, so the daemon's default applies otherwise.
    ccmd.add_argument(
        "--mode", choices=("magic", "materialized"),
        help="answer from the resident fixpoint (the daemon's default) or "
        "via the magic-sets pipeline",
    )
    ccmd.add_argument(
        "--order", choices=PIPELINE_ORDERS,
        help="pipeline stage ordering (implies --mode magic; "
        "refused beside --mode materialized)",
    )
    budget_flags(ccmd)  # per-request limits, clamped by the server ceiling
    ccmd.set_defaults(func=_cmd_client)
    ccmd = client_sub.add_parser("ingest", help="POST /programs/{name}/ingest")
    ccmd.add_argument("name", help="tenant name")
    ccmd.add_argument("--facts", required=True, metavar="FILE", help="new ground facts")
    ccmd.set_defaults(func=_cmd_client)

    cmd = program_command("trace", "print the structured trace of a rewrite + evaluation")
    cmd.add_argument("--data", help="fact file (inline program facts also count)")
    cmd.add_argument("--limit", type=int, help="print at most N events")
    cmd.add_argument("--jsonl", help="also write the trace as JSON Lines to this file")
    cmd.set_defaults(func=_cmd_trace)

    cmd = sub.add_parser("profile", help="per-rule / per-predicate hot-path breakdown")
    cmd.add_argument("program", help="program file (Datalog rules, inline facts allowed)")
    cmd.add_argument("--query", help="query predicate name")
    cmd.add_argument("--data", help="fact file (inline program facts also count)")
    cmd.add_argument("--top", type=int, default=10, help="show the top K rules (default 10)")
    cmd.set_defaults(func=_cmd_profile)

    # Listed for --help only: main() hands ``bench`` to perf/run.py unparsed.
    sub.add_parser("bench", help="the repo benchmark (arguments go to perf/run.py)")

    cmd = sub.add_parser("report", help="regenerate EXPERIMENTS.md from the benchmarks")
    cmd.add_argument(
        "--regenerate", action="store_true",
        help="rebuild the report from benchmarks/*.py experiment() definitions",
    )
    cmd.add_argument(
        "--check", action="store_true",
        help="don't write; exit 1 when the committed report is stale",
    )
    cmd.add_argument("--benchmarks", default="benchmarks", help="benchmarks directory")
    cmd.add_argument("--output", default="EXPERIMENTS.md", help="report path")
    cmd.set_defaults(func=_cmd_report)

    cmd = sub.add_parser("check", help="check facts against constraints")
    cmd.add_argument("constraints_file", help="integrity constraint file")
    cmd.add_argument("--data", required=True, help="fact file")
    cmd.set_defaults(func=_cmd_check)

    cmd = program_command("satisfiable", "decide query satisfiability (Thm 5.1)")
    cmd.set_defaults(func=_cmd_satisfiable)

    cmd = sub.add_parser("empty", help="decide program emptiness (Prop 5.2)")
    cmd.add_argument("program", help="program file")
    cmd.add_argument("--constraints", help="integrity constraint file")
    cmd.set_defaults(func=_cmd_empty)

    cmd = program_command("contained", "program ⊑ union of CQs (Prop 5.1)")
    cmd.add_argument("--ucq", required=True, help="file of CQ rules over the query head")
    cmd.set_defaults(func=_cmd_contained)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point.  Exit codes: 0 success, 1 budget exceeded (partial
    results were printed), 2 usage or input error."""
    try:
        if argv is None:
            argv = sys.argv[1:]
        if argv and argv[0] == "bench":
            return _bench(argv[1:])
        # parse_args sits inside the try: malformed --timeout/--max-facts
        # values raise UsageError from their type= callables and must
        # reach the exit-code-2 handler below, not a traceback.
        args = build_parser().parse_args(argv)
        return args.func(args)
    except EvaluationAborted as exc:
        # Loads repro.serve and repro.serve.wire only: the package's
        # __init__ imports none of the daemon's modules.
        from .serve.wire import aborted_payload

        _print_aborted_response(aborted_payload(exc))
        return 1
    except BrokenPipeError:
        # stdout was closed by a pager/head downstream; not our error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
