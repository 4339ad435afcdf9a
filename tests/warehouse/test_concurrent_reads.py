"""Reads stay whole while compaction and gc run on another thread.

A writer thread ingests into two sources in turn, compacts every 4th
commit and collects garbage every 16th, under a tight tier policy that
makes compaction unlink superseded segment files and gc evict the
oldest top-tier ones.  Meanwhile the main thread keeps asking SQL and
``Warehouse.query`` for totals.  Every read must succeed, and every
answer must be a state the writer actually committed: per source, the
ops of the ingests still live after some mutation (a prefix of the
ingest order, less what gc evicted), taken at one instant across both
sources.
"""

import random
import sys
import threading
import time

from repro.core.profile import Layer, Profile
from repro.core.profileset import ProfileSet
from repro.warehouse import CompactionPolicy, Warehouse, execute_sql

SOURCES = ("alpha", "beta")
ROUNDS = 70  # per round: three GROUP BYs, one count() and one query()
MAX_COMMITS = 4000


def small_pset(rng):
    out = ProfileSet()
    for op in rng.sample(["read", "write", "llseek", "fsync"],
                         rng.randint(1, 3)):
        prof = Profile(op, layer=rng.choice((Layer.FILESYSTEM,
                                              Layer.USER)))
        for _ in range(rng.randint(1, 12)):
            prof.add(rng.uniform(10.0, 1e6))
        out.insert(prof)
    return out


def live_totals(wh, ops_by_epoch):
    """Per-source ops held by the live segments, from metas alone.

    Windows of different tiers may overlap (a tier-2 window can cover
    epochs whose data still sits in a tier-1 segment), but each epoch's
    ops live in exactly one segment, so the union of windows counts
    every live epoch once.
    """
    totals = []
    for src in SOURCES:
        epochs = set()
        for meta in wh.segments(src):
            epochs.update(range(meta.epoch, meta.epoch_end + 1))
        totals.append(sum(ops for e, ops in enumerate(ops_by_epoch[src])
                          if e in epochs))
    return tuple(totals)


def test_sql_and_query_survive_concurrent_compaction(tmp_path):
    wh = Warehouse(tmp_path, policy=CompactionPolicy(fanout=2,
                                                     keep=(2, 2, 2)))
    ops_by_epoch = {src: [] for src in SOURCES}
    legal = {(0, 0)}
    stop = threading.Event()
    writer_errors = []

    def writer():
        rng = random.Random(16)
        try:
            for commit in range(1, MAX_COMMITS + 1):
                if stop.is_set():
                    break
                src = SOURCES[commit % 2]
                pset = small_pset(rng)
                meta = wh.ingest(src, pset)
                assert meta.epoch == len(ops_by_epoch[src])
                ops_by_epoch[src].append(pset.total_ops())
                legal.add(live_totals(wh, ops_by_epoch))
                if commit % 4 == 0:
                    wh.compact()
                if commit % 16 == 0:
                    wh.gc()
                    legal.add(live_totals(wh, ops_by_epoch))
        except Exception as exc:  # reported by the main thread
            writer_errors.append(exc)

    thread = threading.Thread(target=writer)
    answers, errors = [], []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    started = time.perf_counter()
    try:
        thread.start()
        for _ in range(ROUNDS):
            try:
                by_source = dict(execute_sql(
                    wh, "SELECT source, count() GROUP BY source").rows)
                answers.append(tuple(by_source.get(src, 0)
                                     for src in SOURCES))
                execute_sql(wh, "SELECT op, p99() GROUP BY op")
                buckets = execute_sql(
                    wh, "SELECT bucket, count() GROUP BY bucket").rows
                [[count]] = execute_sql(wh, "SELECT count()").rows
                answers.append((count,))
                answers.append((sum(n for _, n in buckets),))
                queried = wh.query(SOURCES[0]).total_ops()
                answers.append((queried, None))
            except Exception as exc:
                errors.append(exc)
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(switch)
    elapsed = time.perf_counter() - started

    assert not thread.is_alive()

    assert not writer_errors, writer_errors[:1]
    assert not errors, f"{len(errors)} failed reads, first: {errors[0]!r}"
    assert len(ops_by_epoch[SOURCES[0]]) > 16, "writer barely ran"
    sums = {sum(state) for state in legal}
    firsts = {state[0] for state in legal}
    for answer in answers:
        if len(answer) == 2 and answer[1] is None:
            assert answer[0] in firsts, answer
        elif len(answer) == 2:
            assert answer in legal, answer
        else:
            assert answer[0] in sums, answer
    assert elapsed < 10.0
