"""Tests for the ``osprof db sql`` analytics engine.

Three layers of guarantees:

* the parser/validator turns every malformed query into a
  :class:`QueryError` naming the problem (never a traceback),
* aggregation matches a naive per-row reference exactly — count by
  integer arithmetic, ``total_latency()`` bit-for-bit via the shared
  Shewchuk accumulation (a hypothesis property),
* the single-group aggregate path equals ``Warehouse.query`` — the
  engine is a projection of the same merge, not a second opinion.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.compare import earth_movers_distance
from repro.core.buckets import BucketSpec
from repro.core.profile import Layer, Profile
from repro.core.profileset import ProfileSet
from repro.warehouse import (ColumnarSegment, QueryError, Warehouse,
                             execute_sql, parse_sql)


def pset(samples, layer=Layer.FILESYSTEM):
    out = ProfileSet()
    for op, latencies in samples.items():
        prof = Profile(op, layer=layer)
        for latency in latencies:
            prof.add(latency)
        out.insert(prof)
    return out


@pytest.fixture
def wh(tmp_path):
    """Two sources, two epochs each, mixed ops and layers."""
    wh = Warehouse(tmp_path)
    wh.ingest("web-1", pset({"read": [100.0] * 6, "write": [900.0] * 2}),
              epoch=0)
    wh.ingest("web-1", pset({"read": [120.0] * 4,
                             "llseek": [10.0] * 8}, layer=Layer.USER),
              epoch=1)
    wh.ingest("db-1", pset({"read": [5000.0] * 3, "fsync": [2e6] * 2}),
              epoch=0)
    wh.save_baseline("clean", wh.query("web-1"))
    return wh


class TestParseErrors:
    @pytest.mark.parametrize("query", [
        "",
        "SELEKT op",
        "SELECT",
        "SELECT op FROM segments",
        "SELECT op,",
        "SELECT op GROUP BY",
        "SELECT op WHERE",
        "SELECT op WHERE op =",
        "SELECT op WHERE op = read",          # unquoted string
        "SELECT op GROUP BY op LIMIT -1",
        "SELECT op GROUP BY op LIMIT many",
        "SELECT op GROUP BY op ORDER BY",
        "SELECT count( GROUP BY op",
        "SELECT op GROUP BY op extra",        # trailing input
        "SELECT op WHERE op IN 'read'",       # IN needs a list
        "SELECT 'lit'",                       # literal is not a column
    ])
    def test_malformed_is_query_error(self, query):
        with pytest.raises(QueryError):
            parse_sql(query)

    @pytest.mark.parametrize("query,needle", [
        ("SELECT bogus", "unknown column"),
        ("SELECT bogus()", "unknown aggregate"),
        ("SELECT op, count()", "GROUP BY"),            # mixing needs grouping
        ("SELECT count() GROUP BY op ORDER BY layer", "ORDER BY"),
        ("SELECT p0()", "percentile"),
        ("SELECT p100.5()", "percentile"),
        ("SELECT emd()", "baseline"),
        ("SELECT emd('b') GROUP BY layer", "op"),      # emd needs op grouping
        ("SELECT p99_drift('b') GROUP BY source", "op"),
        ("SELECT count() WHERE epoch = 'x'", "mismatch"),
        ("SELECT count() WHERE op = 3", "mismatch"),
        ("SELECT min_latency(), bucket GROUP BY bucket", "bucket"),
    ])
    def test_static_errors_name_the_problem(self, query, needle):
        with pytest.raises(QueryError, match=needle):
            parse_sql(query)

    def test_bare_projection_parses(self):
        stmt = parse_sql("SELECT source, op ORDER BY op LIMIT 5")
        assert [i.name for i in stmt.items] == ["source", "op"]
        assert stmt.limit == 5

    def test_keywords_are_case_insensitive(self):
        a = parse_sql("select op, count() group by op order by op limit 2")
        b = parse_sql("SELECT op, count() GROUP BY op ORDER BY op LIMIT 2")
        assert a == b


class TestExecution:
    def test_unknown_column_is_clean_error(self, wh):
        with pytest.raises(QueryError, match="unknown column"):
            execute_sql(wh, "SELECT nope, count() GROUP BY nope")

    def test_missing_baseline_is_value_error(self, wh):
        with pytest.raises(ValueError, match="ghost"):
            execute_sql(wh, "SELECT op, emd('ghost') GROUP BY op")

    def test_empty_where_returns_no_rows(self, wh):
        result = execute_sql(
            wh, "SELECT op, count() WHERE source = 'nope' GROUP BY op")
        assert result.rows == []

    def test_aggregate_only_on_empty_scan_returns_zero(self, tmp_path):
        empty = Warehouse(tmp_path / "empty")
        result = execute_sql(empty, "SELECT count()")
        assert result.rows == [[0]]

    def test_count_and_grouping(self, wh):
        result = execute_sql(
            wh, "SELECT source, count() GROUP BY source ORDER BY source")
        assert result.columns == ["source", "count()"]
        assert result.rows == [["db-1", 5], ["web-1", 20]]

    def test_where_filters_rows(self, wh):
        result = execute_sql(
            wh, "SELECT op, count() WHERE source = 'web-1' AND epoch >= 1 "
                "GROUP BY op ORDER BY op")
        assert result.rows == [["llseek", 8], ["read", 4]]

    def test_in_and_not(self, wh):
        result = execute_sql(
            wh, "SELECT op, count() WHERE op IN ('fsync', 'llseek') "
                "GROUP BY op ORDER BY op")
        assert result.rows == [["fsync", 2], ["llseek", 8]]
        result = execute_sql(
            wh, "SELECT op, count() WHERE NOT op IN ('read', 'write') "
                "AND source != 'db-1' GROUP BY op")
        assert result.rows == [["llseek", 8]]

    def test_order_by_aggregate_desc_with_limit(self, wh):
        result = execute_sql(
            wh, "SELECT op, count() GROUP BY op "
                "ORDER BY count() DESC, op LIMIT 2")
        assert result.rows == [["read", 13], ["llseek", 8]]

    def test_total_latency_matches_warehouse_query(self, wh):
        result = execute_sql(
            wh, "SELECT total_latency() WHERE source = 'web-1'")
        assert result.rows[0][0] == wh.query("web-1").total_latency()

    def test_mean_is_total_over_count(self, wh):
        rows = execute_sql(
            wh, "SELECT op, count(), total_latency(), mean_latency() "
                "GROUP BY op").rows
        for _, count, total, mean in rows:
            assert mean == total / count

    def test_min_max_latency(self, wh):
        result = execute_sql(
            wh, "SELECT min_latency(), max_latency() WHERE op = 'read'")
        merged = ProfileSet.merged(
            [wh.load_segment(m) for m in wh.segments()])
        assert result.rows[0] == [merged["read"].histogram.min_latency,
                                  merged["read"].histogram.max_latency]

    def test_percentile_is_bucket_midpoint(self, wh):
        spec = BucketSpec()
        [[p50]] = execute_sql(
            wh, "SELECT p50() WHERE op = 'fsync'").rows
        assert p50 == spec.mid(spec.bucket(2e6))

    def test_peak_bucket_is_modal(self, wh):
        spec = BucketSpec()
        [[peak]] = execute_sql(
            wh, "SELECT peak_bucket() WHERE op = 'llseek'").rows
        assert peak == spec.bucket(10.0)

    def test_emd_matches_compare_module(self, wh):
        baseline = wh.load_baseline("clean")
        rows = execute_sql(
            wh, "SELECT op, emd('clean') WHERE source = 'web-1' "
                "GROUP BY op ORDER BY op").rows
        merged = wh.query("web-1")
        for op, value in rows:
            assert value == pytest.approx(earth_movers_distance(
                merged[op], baseline[op]))

    def test_drift_is_zero_against_itself(self, wh):
        rows = execute_sql(
            wh, "SELECT op, p50_drift('clean') WHERE source = 'web-1' "
                "GROUP BY op").rows
        assert all(value == 0.0 for _, value in rows)

    def test_baseline_gap_yields_null(self, wh):
        # db-1's fsync is absent from the web-1 baseline: NULL, not a
        # crash, and NULL sorts after every real value.
        rows = execute_sql(
            wh, "SELECT op, emd('clean') GROUP BY op "
                "ORDER BY emd('clean')").rows
        assert rows[-1] == ["fsync", None]

    def test_bucket_level_rows_expand_per_bucket(self, wh):
        rows = execute_sql(
            wh, "SELECT op, bucket, count WHERE op = 'read' "
                "AND source = 'db-1'").rows
        spec = BucketSpec()
        assert rows == [["read", spec.bucket(5000.0), 3]]

    def test_bucket_level_total_is_midpoint_estimate(self, wh):
        spec = BucketSpec()
        [[total]] = execute_sql(
            wh, "SELECT total_latency() WHERE op = 'llseek' "
                "AND bucket >= 0").rows
        assert total == spec.mid(spec.bucket(10.0)) * 8

    def test_raw_projection_with_order(self, wh):
        result = execute_sql(
            wh, "SELECT source, epoch, op WHERE op = 'read' "
                "ORDER BY source, epoch")
        assert result.rows == [["db-1", 0, "read"], ["web-1", 0, "read"],
                               ["web-1", 1, "read"]]

    def test_as_dict_shape(self, wh):
        reply = execute_sql(wh, "SELECT count()").as_dict()
        assert set(reply) == {"columns", "rows"}


latency_strat = st.lists(st.floats(min_value=0.5, max_value=1e9),
                         min_size=1, max_size=12)
segment_strat = st.dictionaries(
    st.sampled_from(["read", "write", "llseek", "fsync"]),
    latency_strat, min_size=1, max_size=3)


class _Meta:
    def __init__(self, source, epoch, resid):
        self.source, self.epoch = source, epoch
        self.epoch_end, self.tier = epoch, 0
        self.resid = resid


class _FakeWarehouse:
    """In-memory stand-in exposing the read interface execute_sql uses."""

    def __init__(self, segments):
        # Source order, then insertion order: the warehouse's scan order.
        self._view = []
        for source, epoch, ps in sorted(segments, key=lambda s: s[0]):
            resid = tuple(
                (prof.operation, tuple(prof.histogram.latency_residual()))
                for prof in ps if prof.histogram.latency_residual())
            self._view.append((_Meta(source, epoch, resid),
                               ColumnarSegment.from_bytes(ps.to_bytes())))

    def snapshot(self, source=None, *, kind="profile"):
        assert source is None and kind == "profile"
        return list(self._view)

    def load_baseline(self, name):
        raise ValueError(f"no baseline named {name!r}")


class TestGroupByProperty:
    @given(st.lists(segment_strat, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_group_by_matches_naive_reference(self, sample_sets):
        segments = [("src-%d" % (i % 2), i, pset(samples))
                    for i, samples in enumerate(sample_sets)]
        fake = _FakeWarehouse(segments)
        rows = execute_sql(
            fake, "SELECT source, op, count(), total_latency() "
                  "GROUP BY source, op ORDER BY source, op").rows

        # Naive reference: walk every (segment, profile) row, collect
        # counts by integer addition and every profile's exact partials,
        # then round once with math.fsum — the same exactness contract
        # the engine promises.
        counts, partials = {}, {}
        for source, _, ps in segments:
            for prof in ps:
                key = (source, prof.operation)
                counts[key] = counts.get(key, 0) + prof.total_ops
                partials.setdefault(key, []).extend(
                    prof.histogram._latency_partials)
        want = [[source, op, counts[(source, op)],
                 math.fsum(partials[(source, op)])]
                for source, op in sorted(counts)]
        assert rows == want

    @given(st.lists(segment_strat, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_ungrouped_count_is_total_ops(self, sample_sets):
        segments = [("src", i, pset(samples))
                    for i, samples in enumerate(sample_sets)]
        fake = _FakeWarehouse(segments)
        [[count]] = execute_sql(fake, "SELECT count()").rows
        assert count == sum(ps.total_ops() for _, _, ps in segments)
