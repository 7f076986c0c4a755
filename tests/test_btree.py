"""Tests for the minidb B+-tree, including hypothesis-based invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb import Database, DuplicateKey, KeyNotFound


def fresh_tree(entry_size=64, page_size=512):
    db = Database(page_size=page_size)
    return db.create_table("t", entry_size=entry_size)


class TestBasicOps:
    def test_insert_get(self):
        t = fresh_tree()
        t.insert((1,), "a")
        assert t.get((1,)) == "a"

    def test_get_missing_raises(self):
        t = fresh_tree()
        with pytest.raises(KeyNotFound):
            t.get((1,))

    def test_duplicate_insert_raises(self):
        t = fresh_tree()
        t.insert((1,), "a")
        with pytest.raises(DuplicateKey):
            t.insert((1,), "b")
        assert t.get((1,)) == "a"

    def test_insert_overwrite(self):
        t = fresh_tree()
        t.insert((1,), "a")
        t.insert((1,), "b", overwrite=True)
        assert t.get((1,)) == "b"
        assert t.entry_total == 1

    def test_update_existing(self):
        t = fresh_tree()
        t.insert((1,), "a")
        t.update((1,), "z")
        assert t.get((1,)) == "z"

    def test_update_missing_raises(self):
        t = fresh_tree()
        with pytest.raises(KeyNotFound):
            t.update((1,), "z")

    def test_read_modify_write(self):
        t = fresh_tree()
        t.insert((1,), 10)
        new = t.read_modify_write((1,), lambda v: v + 5)
        assert new == 15
        assert t.get((1,)) == 15

    def test_delete(self):
        t = fresh_tree()
        t.insert((1,), "a")
        assert t.delete((1,)) == "a"
        with pytest.raises(KeyNotFound):
            t.get((1,))
        assert t.entry_total == 0

    def test_delete_missing_raises(self):
        t = fresh_tree()
        with pytest.raises(KeyNotFound):
            t.delete((1,))

    def test_contains(self):
        t = fresh_tree()
        t.insert((2,), "x")
        assert t.contains((2,))
        assert not t.contains((3,))


class TestSplitsAndScans:
    def test_splits_grow_height(self):
        t = fresh_tree(entry_size=64, page_size=256)  # tiny leaves
        for i in range(100):
            t.insert((i,), i)
        assert t.height > 1
        assert t.splits > 0
        t.check_invariants()
        for i in range(100):
            assert t.get((i,)) == i

    def test_reverse_insertion_order(self):
        t = fresh_tree(entry_size=64, page_size=256)
        for i in reversed(range(80)):
            t.insert((i,), i)
        t.check_invariants()
        assert [k for k, _ in t.scan_range((0,))] == [
            (i,) for i in range(80)
        ]

    def test_scan_range_bounds(self):
        t = fresh_tree()
        for i in range(20):
            t.insert((i,), i)
        got = list(t.scan_range((5,), (9,)))
        assert [k[0] for k, _ in got] == [5, 6, 7, 8]

    def test_scan_limit(self):
        t = fresh_tree()
        for i in range(20):
            t.insert((i,), i)
        got = list(t.scan_range((0,), limit=3))
        assert len(got) == 3

    def test_scan_crosses_leaf_boundaries(self):
        t = fresh_tree(entry_size=64, page_size=256)
        for i in range(60):
            t.insert((i,), i)
        assert t.height > 1
        keys = [k[0] for k, _ in t.scan_range((0,))]
        assert keys == list(range(60))

    def test_first_key(self):
        t = fresh_tree()
        assert t.first_key() is None
        for i in (5, 3, 9):
            t.insert((i,), i)
        assert t.first_key() == (3,)
        assert t.first_key((4,)) == (5,)

    def test_tuple_keys_cluster(self):
        t = fresh_tree()
        for d in (1, 2):
            for o in range(5):
                t.insert((d, o), f"{d}-{o}")
        keys = [k for k, _ in t.scan_range((1, 0), (2, 0))]
        assert keys == [(1, o) for o in range(5)]


class TestHypothesisInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "get", "update"]),
                st.integers(min_value=0, max_value=200),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, ops):
        """The tree behaves exactly like a sorted dict, and its structural
        invariants hold after every batch of operations."""
        t = fresh_tree(entry_size=64, page_size=256)
        reference = {}
        for op, key_int in ops:
            key = (key_int,)
            if op == "insert":
                if key in reference:
                    with pytest.raises(DuplicateKey):
                        t.insert(key, key_int)
                else:
                    t.insert(key, key_int)
                    reference[key] = key_int
            elif op == "delete":
                if key in reference:
                    assert t.delete(key) == reference.pop(key)
                else:
                    with pytest.raises(KeyNotFound):
                        t.delete(key)
            elif op == "update":
                if key in reference:
                    t.update(key, key_int * 2)
                    reference[key] = key_int * 2
                else:
                    with pytest.raises(KeyNotFound):
                        t.update(key, 0)
            else:  # get
                if key in reference:
                    assert t.get(key) == reference[key]
                else:
                    with pytest.raises(KeyNotFound):
                        t.get(key)
        t.check_invariants()
        scanned = dict(t.scan_range((-1,)))
        assert scanned == reference

    @given(st.lists(st.integers(0, 500), unique=True, max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_scan_is_sorted_after_random_inserts(self, keys):
        t = fresh_tree(entry_size=64, page_size=256)
        for k in keys:
            t.insert((k,), k)
        scanned = [k[0] for k, _ in t.scan_range((-1,))]
        assert scanned == sorted(keys)
        t.check_invariants()


class TestStats:
    def test_stats_shape(self):
        t = fresh_tree(page_size=256)
        for i in range(100):
            t.insert((i,), i)
        stats = t.stats()
        assert stats["entries"] == 100
        assert stats["height"] == t.height
        assert stats["leaf_pages"] >= 2
        assert 0.0 < stats["leaf_fill"] <= 1.0
        assert stats["splits"] == t.splits

    def test_empty_tree_stats(self):
        db = Database()
        t = db.create_table("t")
        stats = t.stats()
        assert stats["entries"] == 0
        assert stats["leaf_pages"] == 1
        assert stats["leaf_fill"] == 0.0
