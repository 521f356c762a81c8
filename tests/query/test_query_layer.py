"""Tests for the volcano query layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.generators import input_from_frequencies, uniform_input
from repro.data.relation import Relation
from repro.errors import ConfigError
from repro.query import (
    Batch,
    Filter,
    GroupByAggregate,
    HashJoin,
    Limit,
    Materialize,
    Project,
    ScalarAggregate,
    TableScan,
    TopK,
)


def scan(columns, batch_size=7):
    return TableScan(columns, batch_size=batch_size)


class TestBatch:
    def test_basic(self):
        b = Batch({"a": np.arange(3), "b": np.arange(3) * 10})
        assert len(b) == 3
        assert b.schema == ["a", "b"]
        assert b.column("b").tolist() == [0, 10, 20]

    def test_ragged_rejected(self):
        with pytest.raises(ConfigError):
            Batch({"a": np.arange(3), "b": np.arange(4)})

    def test_missing_column(self):
        with pytest.raises(ConfigError):
            Batch({"a": np.arange(2)}).column("z")

    def test_filter_select_rename(self):
        b = Batch({"a": np.arange(4), "b": np.arange(4) * 2})
        f = b.filter(np.array([True, False, True, False]))
        assert f.column("a").tolist() == [0, 2]
        s = b.select(["b"])
        assert s.schema == ["b"]
        r = b.rename({"a": "x"})
        assert r.schema == ["x", "b"]

    def test_concat_schema_check(self):
        a = Batch({"x": np.arange(2)})
        c = Batch({"y": np.arange(2)})
        with pytest.raises(ConfigError):
            Batch.concat([a, c])
        combined = Batch.concat([a, Batch({"x": np.arange(3)})])
        assert len(combined) == 5


class TestScanFilterProject:
    def test_scan_batches(self):
        op = scan({"k": np.arange(20)}, batch_size=6)
        sizes = [len(b) for b in op]
        assert sizes == [6, 6, 6, 2]
        assert len(op.collect()) == 20

    def test_scan_from_relation(self):
        rel = Relation.from_keys(np.arange(10, dtype=np.uint32), seed=0)
        op = TableScan.from_relation(rel, batch_size=4)
        assert op.schema() == ["key", "payload"]
        assert len(op.collect()) == 10

    def test_filter(self):
        op = Filter(scan({"k": np.arange(20)}),
                    lambda b: b.column("k") % 2 == 0)
        assert op.collect().column("k").tolist() == list(range(0, 20, 2))

    def test_project_rename_and_compute(self):
        op = Project(scan({"k": np.arange(5)}),
                     {"key": "k", "double": lambda b: b.column("k") * 2})
        out = op.collect()
        assert out.schema == ["key", "double"]
        assert out.column("double").tolist() == [0, 2, 4, 6, 8]

    def test_limit(self):
        op = Limit(scan({"k": np.arange(100)}, batch_size=7), 10)
        assert len(op.collect()) == 10
        assert len(Limit(scan({"k": np.arange(5)}), 100).collect()) == 5
        with pytest.raises(ConfigError):
            Limit(scan({"k": np.arange(5)}), -1)

    def test_materialize_buffers_once(self):
        op = Materialize(scan({"k": np.arange(9)}, batch_size=2))
        first = op.collect()
        second = op.collect()
        assert np.array_equal(first.column("k"), second.column("k"))


class TestHashJoin:
    def join_counts(self, r_freqs, s_freqs, **kwargs):
        ji = input_from_frequencies(r_freqs, s_freqs, seed=1)
        left = TableScan.from_relation(ji.s, "key", "s_pay", batch_size=13)
        right = TableScan.from_relation(ji.r, "key", "r_pay")
        join = HashJoin(left, right, "key", "key", **kwargs)
        return join.collect()

    def test_inner_join_count(self):
        out = self.join_counts([2, 3, 0], [4, 1, 5])
        assert len(out) == 2 * 4 + 3 * 1

    def test_schema_disambiguation(self):
        out = self.join_counts([1], [1])
        assert out.schema == ["key", "s_pay", "build_key", "r_pay"]
        assert np.array_equal(out.column("key"), out.column("build_key"))

    def test_matches_ground_truth_counts(self):
        ji = uniform_input(3000, 3000, n_keys=500, seed=2)
        left = TableScan.from_relation(ji.s, "key", "s_pay", batch_size=256)
        right = TableScan.from_relation(ji.r, "key", "r_pay")
        out = HashJoin(left, right, "key", "key").collect()
        from tests.conftest import expected_summary
        count, checksum = expected_summary(ji)
        assert len(out) == count
        prods = (out.column("r_pay").astype(np.uint64)
                 * out.column("s_pay").astype(np.uint64))
        assert int(np.sum(prods, dtype=np.uint64)) == checksum

    @pytest.mark.slow
    def test_skew_aware_same_result(self):
        plain = self.join_counts([5000, 1, 1], [5000, 1, 1])
        aware = self.join_counts([5000, 1, 1], [5000, 1, 1],
                                 skew_aware=True, sample_rate=0.05)
        assert len(plain) == len(aware) == 5000 * 5000 + 2
        assert np.array_equal(np.sort(plain.column("r_pay")),
                              np.sort(aware.column("r_pay")))

    def test_output_batches_bounded(self):
        ji = input_from_frequencies([1000], [1000], seed=3)
        left = TableScan.from_relation(ji.s, "key", "s_pay")
        right = TableScan.from_relation(ji.r, "key", "r_pay")
        join = HashJoin(left, right, "key", "key", max_output_batch=4096)
        sizes = [len(b) for b in join]
        assert sum(sizes) == 10**6
        # each probe row expands to 1000 rows; chunks hold ~4 probe rows
        assert max(sizes) <= 8192

    def test_key_validation(self):
        left = scan({"a": np.arange(3)})
        right = scan({"b": np.arange(3)})
        with pytest.raises(ConfigError):
            HashJoin(left, right, "missing", "b")
        with pytest.raises(ConfigError):
            HashJoin(left, right, "a", "missing")

    def test_empty_sides(self):
        left = scan({"key": np.empty(0, np.uint32)})
        right = scan({"key": np.arange(5, dtype=np.uint32)})
        assert len(HashJoin(left, right, "key", "key").collect()) == 0
        assert len(HashJoin(right, left, "key", "key").collect()) == 0


class TestAggregates:
    def test_group_by_count_sum(self):
        op = GroupByAggregate(
            scan({"g": np.array([1, 2, 1, 1]), "v": np.array([10, 20, 30, 40])},
                 batch_size=2),
            key="g",
            aggs={"n": ("count", None), "total": ("sum", "v")},
        )
        out = op.collect()
        rows = dict(zip(out.column("g").tolist(),
                        zip(out.column("n").tolist(),
                            out.column("total").tolist())))
        assert rows == {1: (3, 80), 2: (1, 20)}

    def test_group_by_min_max_across_batches(self):
        op = GroupByAggregate(
            scan({"g": np.array([7, 7, 7, 7]), "v": np.array([5, 1, 9, 3])},
                 batch_size=1),
            key="g",
            aggs={"lo": ("min", "v"), "hi": ("max", "v")},
        )
        out = op.collect()
        assert out.column("lo").tolist() == [1]
        assert out.column("hi").tolist() == [9]

    def test_group_by_empty_input(self):
        op = GroupByAggregate(scan({"g": np.empty(0, np.uint32)}),
                              key="g", aggs={"n": ("count", None)})
        assert len(op.collect()) == 0

    def test_group_by_validation(self):
        child = scan({"g": np.arange(3)})
        with pytest.raises(ConfigError):
            GroupByAggregate(child, key="zzz", aggs={})
        with pytest.raises(ConfigError):
            GroupByAggregate(child, key="g", aggs={"x": ("median", "g")})
        with pytest.raises(ConfigError):
            GroupByAggregate(child, key="g", aggs={"x": ("sum", "zzz")})

    def test_scalar_aggregate(self):
        op = ScalarAggregate(
            scan({"v": np.array([3, 1, 4, 1, 5])}, batch_size=2),
            aggs={"n": ("count", None), "s": ("sum", "v"),
                  "lo": ("min", "v"), "hi": ("max", "v")},
        )
        out = op.collect()
        assert out.column("n").tolist() == [5]
        assert out.column("s").tolist() == [14]
        assert out.column("lo").tolist() == [1]
        assert out.column("hi").tolist() == [5]

    def test_top_k(self):
        op = TopK(scan({"v": np.array([5, 9, 1, 7])}), by="v", k=2)
        assert op.collect().column("v").tolist() == [9, 7]
        asc = TopK(scan({"v": np.array([5, 9, 1, 7])}), by="v", k=2,
                   descending=False)
        assert asc.collect().column("v").tolist() == [1, 5]


class TestEndToEndQuery:
    def test_join_then_aggregate_equals_expected(self):
        """count(*) of the join via the query layer == analytic count."""
        ji = uniform_input(2000, 2000, n_keys=300, seed=4)
        left = TableScan.from_relation(ji.s, "key", "s_pay", batch_size=333)
        right = TableScan.from_relation(ji.r, "key", "r_pay")
        join = HashJoin(left, right, "key", "key", skew_aware=True)
        agg = ScalarAggregate(join, aggs={"n": ("count", None)})
        from tests.conftest import expected_summary
        count, _ = expected_summary(ji)
        assert agg.collect().column("n").tolist() == [count]


@given(st.lists(st.integers(0, 8), min_size=1, max_size=20),
       st.lists(st.integers(0, 8), min_size=1, max_size=20),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_hash_join_property(r_freqs, s_freqs, skew_aware):
    n = min(len(r_freqs), len(s_freqs))
    ji = input_from_frequencies(r_freqs[:n], s_freqs[:n], seed=0)
    left = TableScan.from_relation(ji.s, "key", "s_pay", batch_size=3)
    right = TableScan.from_relation(ji.r, "key", "r_pay")
    join = HashJoin(left, right, "key", "key", skew_aware=skew_aware,
                    sample_rate=0.5, max_output_batch=16)
    expected = sum(a * b for a, b in zip(r_freqs[:n], s_freqs[:n]))
    assert len(join.collect()) == expected
