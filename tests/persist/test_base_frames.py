"""One durable format: a base is a journal frame, one per directory.

A base starts a fresh segment and is fsynced before every older segment
is unlinked, so however many ingests a directory has seen it holds one
base plus the ingest records after it; a base write that fails, or a
crash before the compaction that follows it, loses no acknowledged row;
and a directory an older build left (``ckpt-*.json`` bases beside the
journal) is read once and then holds a base frame instead.
"""

import shutil
from pathlib import Path

from reference_model import model_fixpoint
from repro.datalog.database import Database
from repro.datalog.parser import parse_program
from repro.persist import FlakyJournal, IngestJournal, RetryPolicy, Session
from repro.robustness import FaultInjector

PROGRAM = parse_program(
    """
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    q(Y) :- path(1, Y).
    """,
    query="q",
)
CHAIN = [(n, n + 1) for n in range(1, 31)]

#: A directory the parent build wrote (see the upgrade test's docstring).
PARENT_SESSION = Path(__file__).resolve().parent / "fixtures" / "parent-session"


def _database(extra=()):
    return Database.from_rows({"edge": CHAIN + list(extra)})


def _journal(root):
    return IngestJournal(root / "journal")


def _segments(root):
    """Each segment's frames, oldest segment first."""
    journal = _journal(root)
    frames = journal.frames()
    paths = sorted((root / "journal").glob("journal-*.log"))
    by_segment = [list(journal._segments[path]) for path in paths]
    assert sum(map(len, by_segment)) == len(frames)
    return by_segment


def _rows(outcome):
    return {pred: outcome.result.rows(pred) for pred in PROGRAM.idb_predicates}


def test_two_hundred_ingests_leave_one_base_and_the_records_after_it(tmp_path):
    session = Session(PROGRAM, _database(), journal=_journal(tmp_path))
    session.recover()
    ingested = []
    written = 0
    for node in range(31, 231):
        ingested.append((node, node + 1))
        written += session.ingest([("edge", ingested[-1])]).checkpoints_written
    session.journal.close()
    assert written >= 5  # bases followed the journal's lag all along
    segments = _segments(tmp_path)
    bases = [frame for segment in segments for frame in segment if frame.base]
    assert len(bases) == 1
    # Every segment starts at or after the base: it is the oldest
    # segment's first frame, and every other frame is an ingest record
    # after it.
    assert segments[0][0] == bases[0]
    assert all(
        frame.seq > bases[0].seq for segment in segments for frame in segment[1:]
    )
    assert not list(tmp_path.rglob("ckpt-*"))
    recovered = Session(PROGRAM, _database(), journal=_journal(tmp_path)).recover()
    assert _rows(recovered) == model_fixpoint(PROGRAM, _database(ingested))


def test_a_torn_base_write_loses_no_acknowledged_row(tmp_path):
    """``checkpoint.save`` tears every base write (half a frame lands in
    the fresh segment) until the retries run out: the ingests stay
    acknowledged by their journal records beside the older base, and a
    restart recovers every one of them."""
    injector = FaultInjector()
    session = Session(
        PROGRAM,
        _database(),
        journal=FlakyJournal(_journal(tmp_path), injector, flavors=("torn",)),
        retry=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0),
    )
    session.ingest([("edge", (31, 32))])
    assert session.checkpoint()  # the older base
    injector.arm_random("checkpoint.save", rate=1.0)
    ingested = [(31, 32)]
    for node in range(32, 45):
        ingested.append((node, node + 1))
        outcome = session.ingest([("edge", ingested[-1])])
        assert outcome.checkpoints_written == 0
    assert any(step.stage == "session.checkpoint" for step in outcome.fallback_chain)
    assert injector.fired  # the tear really happened
    session.journal.close()  # the kill: only the directory survives
    restarted = Session(PROGRAM, _database(), journal=_journal(tmp_path))
    recovered = restarted.recover()
    assert recovered.replayed == len(ingested) - 1
    assert _rows(recovered) == model_fixpoint(PROGRAM, _database(ingested))
    # The recovery's own base covered everything, and only it is left.
    [[base]] = _segments(tmp_path)
    assert base.base and len(base.rows) == len(CHAIN) + len(ingested)


def test_a_crash_between_the_base_and_its_compaction_loses_nothing(tmp_path):
    """The base landed and was fsynced, the older segments did not go:
    recovery folds in the new base, finds the older records stale, and
    the compaction the crash skipped happens then."""
    writer = Session(PROGRAM, _database(), journal=_journal(tmp_path))
    for node in range(31, 35):
        writer.ingest([("edge", (node, node + 1))])
    writer.journal.write_base(writer._base_record(writer.journal.next_seq()))
    writer.journal.close()  # killed before compact()
    assert len(_segments(tmp_path)) == 2
    recovered = Session(PROGRAM, _database(), journal=_journal(tmp_path)).recover()
    assert recovered.mode == "recovered" and recovered.replayed == 0
    ingested = [(node, node + 1) for node in range(31, 35)]
    assert _rows(recovered) == model_fixpoint(PROGRAM, _database(ingested))
    [[base]] = _segments(tmp_path)
    assert base.base


def test_a_directory_the_parent_build_wrote_upgrades_to_a_base_frame(tmp_path):
    """``fixtures/parent-session`` was written by the build before bases
    became journal frames: a version-3 ``ckpt-*.json`` holding two
    ingests whose journal records were compacted away, and a journal
    (version-1 frames) holding the two ingests since.  Recipe, run with
    that build's ``src`` on the path::

        program = parse_program(
            "path(X, Y) :- edge(X, Y).\\n"
            "path(X, Y) :- path(X, Z), edge(Z, Y).\\n"
            "q(Y) :- path(1, Y).\\n",
            query="q",
        )
        session = Session(
            program,
            Database.from_rows({"edge": [(n, n + 1) for n in range(1, 31)]}),
            store=CheckpointStore("parent-session"),
        )
        session.recover()
        session.ingest([("edge", (31, 32))])
        session.ingest([("edge", (32, 33))])
        assert session.checkpoint()  # a version-3 base; the journal prefix goes
        session.ingest([("edge", (33, 34))])
        session.ingest([("edge", ("a", "b"))])
        session.journal.close()

    Recovery from the initial EDB returns every acknowledged row, writes
    a base frame, and leaves no ``ckpt-*.json``; the next restart folds
    that frame in and replays nothing.
    """
    root = tmp_path / "parent-session"
    shutil.copytree(PARENT_SESSION, root)
    assert len(list(root.glob("ckpt-*.json"))) == 1
    acked = [(31, 32), (32, 33), (33, 34), ("a", "b")]
    expected = model_fixpoint(PROGRAM, _database(acked))
    for want_replayed in (2, 0):
        session = Session(PROGRAM, _database(), journal=_journal(root))
        outcome = session.recover()
        session.journal.close()
        assert outcome.mode == "recovered" and outcome.replayed == want_replayed
        assert outcome.result.database.relation("edge").rows() == set(CHAIN + acked)
        assert _rows(outcome) == expected
        assert not list(root.glob("ckpt-*.json"))
        [[base]] = _segments(root)
        assert base.base and set(base.rows) == {("edge", row) for row in CHAIN + acked}
