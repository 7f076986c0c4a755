"""Tests for the TPC-C workload: schema, loader, inputs, transactions."""

import pytest

from repro.minidb import EngineOptions
from repro.tpcc import (
    BENCHMARKS,
    InputGenerator,
    TPCCScale,
    fresh_database,
    generate_workload,
)
from repro.tpcc import schema as S
from repro.tpcc.delivery import delivery, delivery_outer
from repro.tpcc.neworder import new_order
from repro.tpcc.orderstatus import order_status
from repro.tpcc.payment import payment
from repro.tpcc.stocklevel import stock_level
from repro.trace import TraceRecorder, TransactionTraceBuilder

TINY = TPCCScale.tiny()


def tiny_db():
    rec = TraceRecorder()
    db, state = fresh_database(TINY, recorder=rec,
                               options=EngineOptions.optimized())
    return db, state, rec


def run_txn(fn, db, state, rec, seed=1, tls=True):
    gen = InputGenerator(TINY, seed=seed)
    builder = TransactionTraceBuilder("t", rec, tls_mode=tls)
    result = fn(db, state, builder, gen)
    return result, builder.finish()


class TestSchema:
    def test_last_name_rule(self):
        assert S.last_name(0) == "BARBARBAR"
        assert S.last_name(371) == "PRICALLYOUGHT"

    def test_key_clustering(self):
        assert S.order_line_key(1, 5, 1) < S.order_line_key(1, 5, 2)
        assert S.order_line_key(1, 5, 9) < S.order_line_key(1, 6, 1)
        assert S.order_line_key(1, 9, 1) < S.order_line_key(2, 1, 1)

    def test_scales(self):
        assert TPCCScale.paper().items == 100_000
        assert TPCCScale.tiny().items < TPCCScale().items


class TestInputs:
    def test_deterministic_with_seed(self):
        a = InputGenerator(TINY, seed=9)
        b = InputGenerator(TINY, seed=9)
        assert [a.item() for _ in range(20)] == [
            b.item() for _ in range(20)
        ]

    def test_ranges(self):
        gen = InputGenerator(TINY, seed=3)
        for _ in range(200):
            assert 1 <= gen.district() <= TINY.districts
            assert 1 <= gen.customer() <= TINY.customers_per_district
            assert 1 <= gen.item() <= TINY.items
            assert 10 <= gen.threshold() <= 20
        items = gen.order_items()
        assert 5 <= len(items) <= 15
        assert all(1 <= q <= 10 for _, q in items)


class TestLoader:
    def test_cardinalities(self):
        db, state, _ = tiny_db()
        assert db.table("item").entry_total == TINY.items
        assert db.table("stock").entry_total == TINY.items
        assert db.table("customer").entry_total == (
            TINY.districts * TINY.customers_per_district
        )
        per_district = TINY.initial_orders + TINY.initial_new_orders
        assert db.table("orders").entry_total == (
            TINY.districts * per_district
        )
        assert db.table("new_order").entry_total == (
            TINY.districts * TINY.initial_new_orders
        )

    def test_district_next_o_id_consistent(self):
        db, _, _ = tiny_db()
        d = db.table("district").get(S.district_key(1))
        per_district = TINY.initial_orders + TINY.initial_new_orders
        assert d["next_o_id"] == per_district + 1

    def test_all_trees_valid(self):
        db, _, _ = tiny_db()
        db.check_invariants()

    def test_loading_is_untraced(self):
        rec = TraceRecorder()
        sink = []
        rec.set_target(sink)
        fresh_database(TINY, recorder=rec)
        assert sink == []


class TestNewOrder:
    def test_semantics(self):
        db, state, rec = tiny_db()
        result, trace = run_txn(new_order, db, state, rec)
        d_id, o_id = result["d_id"], result["o_id"]
        # The order exists with the right line count.
        order = db.table("orders").get(S.order_key(d_id, o_id))
        assert order["ol_cnt"] == result["lines"]
        # Its lines exist and stock was updated.
        lines = list(
            db.table("order_line").scan_range(
                S.order_line_key(d_id, o_id, 0),
                S.order_line_key(d_id, o_id + 1, 0),
            )
        )
        assert len(lines) == result["lines"]
        # District counter advanced.
        district = db.table("district").get(S.district_key(d_id))
        assert district["next_o_id"] == o_id + 1
        # NEW_ORDER row exists for the new order.
        assert db.table("new_order").contains(S.new_order_key(d_id, o_id))

    def test_stock_decremented(self):
        db, state, rec = tiny_db()
        before = {
            i: db.table("stock").get(S.stock_key(i))["quantity"]
            for i in range(1, TINY.items + 1)
        }
        result, _ = run_txn(new_order, db, state, rec)
        changed = 0
        for i in range(1, TINY.items + 1):
            after = db.table("stock").get(S.stock_key(i))["quantity"]
            if after != before[i]:
                changed += 1
        assert changed >= 1

    def test_epoch_per_item(self):
        db, state, rec = tiny_db()
        result, trace = run_txn(new_order, db, state, rec)
        assert trace.epoch_count() == result["lines"]

    def test_trace_has_serial_and_parallel(self):
        db, state, rec = tiny_db()
        _, trace = run_txn(new_order, db, state, rec)
        assert 0.0 < trace.coverage < 1.0

    def test_log_published_after_commit(self):
        db, state, rec = tiny_db()
        run_txn(new_order, db, state, rec)
        assert db.log.pending_epoch_records() == 0
        kinds = {r.kind for r in db.log.records}
        assert "order.insert" in kinds and "commit" in kinds


class TestDelivery:
    def test_inner_delivers_each_district(self):
        db, state, rec = tiny_db()
        before = db.table("new_order").entry_total
        result, trace = run_txn(delivery, db, state, rec)
        assert result["districts_delivered"] == TINY.districts
        assert db.table("new_order").entry_total == before - TINY.districts

    def test_outer_equivalent_effects(self):
        db1, s1, r1 = tiny_db()
        db2, s2, r2 = tiny_db()
        res1, _ = run_txn(delivery, db1, s1, r1, seed=5)
        res2, _ = run_txn(delivery_outer, db2, s2, r2, seed=5)
        assert res1["districts_delivered"] == res2["districts_delivered"]
        assert [r["o_id"] for r in res1["results"]] == [
            r["o_id"] for r in res2["results"]
        ]

    def test_outer_one_epoch_per_district(self):
        db, state, rec = tiny_db()
        _, trace = run_txn(delivery_outer, db, state, rec)
        assert trace.epoch_count() == TINY.districts

    def test_outer_higher_coverage_than_inner(self):
        db1, s1, r1 = tiny_db()
        db2, s2, r2 = tiny_db()
        _, t_in = run_txn(delivery, db1, s1, r1, seed=5)
        _, t_out = run_txn(delivery_outer, db2, s2, r2, seed=5)
        assert t_out.coverage > t_in.coverage

    def test_customer_credited(self):
        db, state, rec = tiny_db()
        result, _ = run_txn(delivery, db, state, rec)
        first = result["results"][0]
        cust = db.table("customer").get(
            S.customer_key(first["d_id"], first["c_id"])
        )
        assert cust["delivery_cnt"] >= 1

    def test_order_lines_stamped(self):
        db, state, rec = tiny_db()
        result, _ = run_txn(delivery, db, state, rec)
        first = result["results"][0]
        line = db.table("order_line").get(
            S.order_line_key(first["d_id"], first["o_id"], 1)
        )
        assert line["delivery_d"] is not None


class TestReadOnlyTransactions:
    def test_stock_level_counts(self):
        db, state, rec = tiny_db()
        result, trace = run_txn(stock_level, db, state, rec)
        assert 0 <= result["low_stock"] <= TINY.items
        assert trace.epoch_count() >= 1

    def test_stock_level_mutates_nothing(self):
        db, state, rec = tiny_db()
        before = db.table("stock").entry_total
        run_txn(stock_level, db, state, rec)
        assert db.table("stock").entry_total == before

    def test_order_status_reports_lines(self):
        db, state, rec = tiny_db()
        result, _ = run_txn(order_status, db, state, rec)
        assert result["o_id"] is not None
        assert len(result["lines"]) >= 1

    def test_payment_updates_balances(self):
        db, state, rec = tiny_db()
        result, _ = run_txn(payment, db, state, rec)
        wh = db.table("warehouse").get(S.warehouse_key())
        assert wh["ytd"] == pytest.approx(result["amount"])
        cust = db.table("customer").get(
            S.customer_key(result["d_id"], result["c_id"])
        )
        assert cust["balance"] == pytest.approx(-10.0 - result["amount"])
        assert db.table("history").entry_total == 1


class TestDriver:
    def test_all_benchmarks_generate(self):
        for name in BENCHMARKS:
            gw = generate_workload(
                name, tls_mode=True, n_transactions=1, scale=TINY
            )
            assert gw.trace.instruction_count > 0
            gw.db.check_invariants()

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError):
            generate_workload("bogus", scale=TINY)

    def test_same_seed_same_work(self):
        a = generate_workload("new_order", n_transactions=2, seed=7,
                              scale=TINY)
        b = generate_workload("new_order", n_transactions=2, seed=7,
                              scale=TINY)
        assert [r["o_id"] for r in a.results] == [
            r["o_id"] for r in b.results
        ]
        assert a.trace.instruction_count == b.trace.instruction_count

    def test_sequential_and_tls_do_same_database_work(self):
        seq = generate_workload("new_order", tls_mode=False,
                                n_transactions=2, seed=7, scale=TINY)
        tls = generate_workload("new_order", tls_mode=True,
                                n_transactions=2, seed=7, scale=TINY)
        assert [r["o_id"] for r in seq.results] == [
            r["o_id"] for r in tls.results
        ]
        assert seq.trace.epoch_count() == 0
        assert tls.trace.epoch_count() > 0

    def test_tls_overhead_is_bounded(self):
        seq = generate_workload("new_order", tls_mode=False,
                                n_transactions=2, seed=7, scale=TINY)
        tls = generate_workload("new_order", tls_mode=True,
                                n_transactions=2, seed=7, scale=TINY)
        ratio = tls.trace.instruction_count / seq.trace.instruction_count
        assert 0.8 < ratio < 1.3


class TestConsistency:
    """TPC-C clause 3.3.2 consistency conditions (adapted)."""

    def test_initial_load_consistent(self):
        from repro.tpcc import check_consistency

        db, _, _ = tiny_db()
        check_consistency(db, TINY.districts)

    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_consistent_after_each_benchmark(self, bench):
        from repro.tpcc import check_consistency

        gw = generate_workload(bench, n_transactions=2, scale=TINY)
        check_consistency(gw.db, TINY.districts)

    def test_detects_missing_carrier(self):
        from repro.tpcc import ConsistencyError, check_consistency
        from repro.tpcc import schema as S

        db, _, _ = tiny_db()
        # Corrupt: delete a NEW_ORDER row without stamping the order.
        key = next(iter(
            k for k, _ in db.table("new_order").scan_range(
                S.new_order_key(1, 0), S.new_order_key(2, 0), limit=1
            )
        ))
        db.table("new_order").delete(key)
        with pytest.raises(ConsistencyError):
            check_consistency(db, TINY.districts)

    def test_detects_line_count_drift(self):
        from repro.tpcc import ConsistencyError, check_consistency
        from repro.tpcc import schema as S

        db, _, _ = tiny_db()
        db.table("order_line").delete(S.order_line_key(1, 1, 1))
        with pytest.raises(ConsistencyError):
            check_consistency(db, TINY.districts)

    def test_detects_counter_drift(self):
        from repro.tpcc import ConsistencyError, check_consistency
        from repro.tpcc import schema as S

        db, _, _ = tiny_db()

        def bump(row):
            row["next_o_id"] += 5
            return row

        db.table("district").read_modify_write(S.district_key(1), bump)
        with pytest.raises(ConsistencyError):
            check_consistency(db, TINY.districts)


class TestMixWorkload:
    def test_standard_mix_runs_and_stays_consistent(self):
        from repro.tpcc import check_consistency, generate_mix_workload

        gw = generate_mix_workload(n_transactions=10, scale=TINY)
        assert len(gw.results) == 10
        types = {r["_type"] for r in gw.results}
        assert types <= set(BENCHMARKS)
        check_consistency(gw.db, TINY.districts)

    def test_mix_weights_respected(self):
        from repro.tpcc import generate_mix_workload

        gw = generate_mix_workload(
            mix={"new_order": 1.0}, n_transactions=5, scale=TINY
        )
        assert all(r["_type"] == "new_order" for r in gw.results)

    def test_mix_deterministic(self):
        from repro.tpcc import generate_mix_workload

        a = generate_mix_workload(n_transactions=6, seed=3, scale=TINY)
        b = generate_mix_workload(n_transactions=6, seed=3, scale=TINY)
        assert [r["_type"] for r in a.results] == [
            r["_type"] for r in b.results
        ]
        assert a.trace.instruction_count == b.trace.instruction_count

    def test_bad_mixes_rejected(self):
        from repro.tpcc import generate_mix_workload

        with pytest.raises(ValueError):
            generate_mix_workload(mix={"bogus": 1.0}, scale=TINY)
        with pytest.raises(ValueError):
            generate_mix_workload(mix={"new_order": 0.0}, scale=TINY)

    def test_mix_simulates_under_tls(self):
        from repro.sim import ExecutionMode, Machine, MachineConfig
        from repro.tpcc import generate_mix_workload

        gw = generate_mix_workload(n_transactions=6, scale=TINY)
        stats = Machine(
            MachineConfig.for_mode(ExecutionMode.BASELINE)
        ).run(gw.trace)
        assert stats.epochs_committed == stats.epochs_total
