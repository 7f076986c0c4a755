"""Initial TPC-C database population (untraced).

The loader runs with the recorder pointed at nothing, mirroring the
paper's untimed warm-up phase: by the time the timed transactions run,
every page is resident in the buffer pool.
"""

from __future__ import annotations

import random

from ..minidb import Database
from . import schema as S
from .schema import TPCCScale


class TPCCState:
    """Bookkeeping the driver needs beyond what the tables hold."""

    def __init__(self):
        #: Next history id (history has a synthetic primary key).
        self.next_h_id = 1
        #: Next entry index in DELIVERY's shared result file.
        self.next_result = 0


def create_tables(db: Database) -> None:
    for name, cell in S.TABLE_CELL_SIZES.items():
        db.create_table(name, entry_size=cell)


def load(db: Database, scale: TPCCScale, seed: int = 7) -> TPCCState:
    """Populate a single warehouse at the given scale."""
    rng = random.Random(seed)
    state = TPCCState()
    create_tables(db)

    warehouse = db.table("warehouse")
    district = db.table("district")
    customer = db.table("customer")
    item = db.table("item")
    stock = db.table("stock")
    name_idx = db.table("customer_name_idx")
    orders = db.table("orders")
    new_order = db.table("new_order")
    order_line = db.table("order_line")

    warehouse.insert(S.warehouse_key(), S.warehouse_row())
    for i_id in range(1, scale.items + 1):
        item.insert(S.item_key(i_id), S.item_row(i_id))
        stock.insert(S.stock_key(i_id), S.stock_row(i_id))

    for d_id in range(1, scale.districts + 1):
        total_orders = scale.initial_orders + scale.initial_new_orders
        district.insert(
            S.district_key(d_id), S.district_row(next_o_id=total_orders + 1)
        )
        for c_id in range(1, scale.customers_per_district + 1):
            last = S.last_name(c_id - 1)
            customer.insert(
                S.customer_key(d_id, c_id), S.customer_row(c_id, last)
            )
            name_idx.insert(S.customer_name_key(d_id, last, c_id), None)
        # Delivered orders, then undelivered ones (NEW_ORDER rows exist
        # only for the undelivered tail, per the spec).
        for o_id in range(1, total_orders + 1):
            c_id = rng.randrange(1, scale.customers_per_district + 1)
            ol_cnt = rng.randrange(5, 16)
            delivered = o_id <= scale.initial_orders
            orders.insert(
                S.order_key(d_id, o_id),
                S.order_row(
                    c_id, ol_cnt,
                    carrier_id=rng.randrange(1, 11) if delivered else None,
                ),
            )
            cust = customer.get(S.customer_key(d_id, c_id))
            cust["last_order"] = o_id
            customer.update(S.customer_key(d_id, c_id), cust)
            if not delivered:
                new_order.insert(S.new_order_key(d_id, o_id), {})
            for ol in range(1, ol_cnt + 1):
                i_id = rng.randrange(1, scale.items + 1)
                row = S.order_line_row(
                    i_id,
                    qty=rng.randrange(1, 11),
                    amount=0.0 if delivered else round(
                        rng.uniform(0.01, 99.99), 2
                    ),
                )
                if delivered:
                    # Spec 3.3.2: delivered orders' lines carry a
                    # delivery date.
                    row["delivery_d"] = 1
                order_line.insert(S.order_line_key(d_id, o_id, ol), row)
    return state


def fresh_database(scale: TPCCScale, recorder=None, options=None,
                   seed: int = 7):
    """Convenience: a loaded database plus its driver state.

    The recorder (if any) is muted during loading.
    """
    db = Database(recorder=recorder, options=options)
    if recorder is not None and hasattr(recorder, "set_target"):
        recorder.set_target(None)
    state = load(db, scale, seed=seed)
    return db, state
