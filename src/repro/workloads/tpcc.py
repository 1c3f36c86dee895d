"""TPC-C-lite: a scaled-down TPC-C over the persistent KV store.

The paper's Figure 1 and Figure 13 include TPC-C bars; this module
reimplements the benchmark's five transaction profiles with the standard
45/43/4/4/4 mix (new-order / payment / order-status / delivery /
stock-level) against the same KV substrate the YCSB driver uses.  Rows
are fixed-layout structs keyed by composite 64-bit keys, and every
transaction profile runs inside ONE heap transaction, so a new-order
touching a district row, 5–15 stock rows, and inserting an order with
its order lines is exactly the multi-object atomic update Kamino-Tx is
designed for.

Scaled defaults (full TPC-C in parentheses): 2 warehouses, 4 districts
per warehouse (10), 30 customers per district (3 000), 100 items
(100 000).  The *shape* of each transaction's read/write set is
preserved; only the cardinalities shrink.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..counters import Counters
from ..kvstore.kv import KVStore

# table ids for composite keys: [table:8][w:8][d:8][rest:40]
_T_WAREHOUSE = 1
_T_DISTRICT = 2
_T_CUSTOMER = 3
_T_ORDER = 4
_T_NEW_ORDER = 5
_T_ORDER_LINE = 6
_T_ITEM = 7
_T_STOCK = 8

NEW_ORDER = "new_order"
PAYMENT = "payment"
ORDER_STATUS = "order_status"
DELIVERY = "delivery"
STOCK_LEVEL = "stock_level"

#: the standard TPC-C transaction mix
MIX = [
    (NEW_ORDER, 0.45),
    (PAYMENT, 0.43),
    (ORDER_STATUS, 0.04),
    (DELIVERY, 0.04),
    (STOCK_LEVEL, 0.04),
]

STOCK_THRESHOLD = 15
ROW_SIZE = 64  # KV record capacity for the largest row


def _key(table: int, w: int = 0, d: int = 0, rest: int = 0) -> int:
    if rest >= 1 << 40:
        raise ValueError("composite key overflow")
    return (table << 56) | (w << 48) | (d << 40) | rest


def k_warehouse(w: int) -> int:
    return _key(_T_WAREHOUSE, w)


def k_district(w: int, d: int) -> int:
    return _key(_T_DISTRICT, w, d)


def k_customer(w: int, d: int, c: int) -> int:
    return _key(_T_CUSTOMER, w, d, c)


def k_order(w: int, d: int, o: int) -> int:
    return _key(_T_ORDER, w, d, o)


def k_new_order(w: int, d: int, o: int) -> int:
    return _key(_T_NEW_ORDER, w, d, o)


def k_order_line(w: int, d: int, o: int, line: int) -> int:
    return _key(_T_ORDER_LINE, w, d, (o << 8) | line)


def k_item(i: int) -> int:
    return _key(_T_ITEM, 0, 0, i)


def k_stock(w: int, i: int) -> int:
    return _key(_T_STOCK, w, 0, i)


# -- row codecs (fixed struct layouts, zero-padded to ROW_SIZE) --------------

_WAREHOUSE = struct.Struct("<d")  # ytd
_DISTRICT = struct.Struct("<Id")  # next_o_id, ytd
_CUSTOMER = struct.Struct("<ddIII")  # balance, ytd_payment, payments, deliveries, last_o
_ORDER = struct.Struct("<IIII")  # c_id, ol_cnt, carrier_id, all_delivered
_ORDER_LINE = struct.Struct("<IIdI")  # item, qty, amount, delivered
_ITEM = struct.Struct("<d")  # price
_STOCK = struct.Struct("<III")  # quantity, ytd, order_cnt


def _pack(codec: struct.Struct, *vals) -> bytes:
    return codec.pack(*vals)


def _unpack(codec: struct.Struct, row: bytes) -> tuple:
    return codec.unpack(row[: codec.size])


@dataclass(slots=True)
class TPCCStats(Counters):
    """Per-profile commit counters (the benchmark reports tpmC-style)."""

    new_orders: int = 0
    payments: int = 0
    order_statuses: int = 0
    deliveries: int = 0
    stock_levels: int = 0

    @property
    def total(self) -> int:
        return sum(self.as_dict().values())


class TPCCLite:
    """Generator + executor for the scaled TPC-C workload."""

    def __init__(
        self,
        warehouses: int = 2,
        districts: int = 4,
        customers: int = 30,
        items: int = 100,
        seed: int = 0,
    ):
        self.warehouses = warehouses
        self.districts = districts
        self.customers = customers
        self.items = items
        self._rng = random.Random(seed)
        self.stats = TPCCStats()

    # -- load phase -----------------------------------------------------------

    def load(self, kv: KVStore) -> None:
        """Populate warehouses, districts, customers, items, and stock."""
        if kv.value_size < ROW_SIZE:
            raise ValueError(f"TPC-C needs value_size >= {ROW_SIZE}")
        for i in range(self.items):
            kv.put(k_item(i), _pack(_ITEM, 1.0 + (i % 100)))
        for w in range(self.warehouses):
            kv.put(k_warehouse(w), _pack(_WAREHOUSE, 0.0))
            for i in range(self.items):
                kv.put(k_stock(w, i), _pack(_STOCK, 50 + (i % 50), 0, 0))
            for d in range(self.districts):
                kv.put(k_district(w, d), _pack(_DISTRICT, 1, 0.0))
                for c in range(self.customers):
                    kv.put(k_customer(w, d, c), _pack(_CUSTOMER, 0.0, 0.0, 0, 0, 0))
        kv.drain()

    # -- transaction profiles -----------------------------------------------------

    def _pick_wdc(self) -> Tuple[int, int, int]:
        return (
            self._rng.randrange(self.warehouses),
            self._rng.randrange(self.districts),
            self._rng.randrange(self.customers),
        )

    def do_new_order(self, kv: KVStore) -> int:
        """45%: insert an order of 5–15 lines, updating stock rows."""
        w, d, c = self._pick_wdc()
        ol_cnt = self._rng.randint(5, 15)
        lines = [
            (self._rng.randrange(self.items), self._rng.randint(1, 10))
            for _ in range(ol_cnt)
        ]
        with kv.heap.transaction():
            next_o, ytd = _unpack(_DISTRICT, kv.get(k_district(w, d)))
            kv.put(k_district(w, d), _pack(_DISTRICT, next_o + 1, ytd))
            total = 0.0
            for ln, (item, qty) in enumerate(lines):
                (price,) = _unpack(_ITEM, kv.get(k_item(item)))
                s_qty, s_ytd, s_cnt = _unpack(_STOCK, kv.get(k_stock(w, item)))
                new_qty = s_qty - qty if s_qty - qty >= 10 else s_qty - qty + 91
                kv.put(k_stock(w, item), _pack(_STOCK, new_qty, s_ytd + qty, s_cnt + 1))
                amount = qty * price
                total += amount
                kv.put(
                    k_order_line(w, d, next_o, ln),
                    _pack(_ORDER_LINE, item, qty, amount, 0),
                )
            kv.put(k_order(w, d, next_o), _pack(_ORDER, c, ol_cnt, 0, 0))
            kv.put(k_new_order(w, d, next_o), _pack(_ORDER, c, ol_cnt, 0, 0))
            bal, ytd_p, pays, dels, _last = _unpack(_CUSTOMER, kv.get(k_customer(w, d, c)))
            kv.put(
                k_customer(w, d, c), _pack(_CUSTOMER, bal - total, ytd_p, pays, dels, next_o)
            )
        self.stats.new_orders += 1
        return next_o

    def do_payment(self, kv: KVStore) -> None:
        """43%: add a payment to warehouse, district, and customer."""
        w, d, c = self._pick_wdc()
        amount = self._rng.uniform(1.0, 5000.0)
        with kv.heap.transaction():
            (w_ytd,) = _unpack(_WAREHOUSE, kv.get(k_warehouse(w)))
            kv.put(k_warehouse(w), _pack(_WAREHOUSE, w_ytd + amount))
            next_o, d_ytd = _unpack(_DISTRICT, kv.get(k_district(w, d)))
            kv.put(k_district(w, d), _pack(_DISTRICT, next_o, d_ytd + amount))
            bal, ytd_p, pays, dels, last = _unpack(_CUSTOMER, kv.get(k_customer(w, d, c)))
            kv.put(
                k_customer(w, d, c),
                _pack(_CUSTOMER, bal - amount, ytd_p + amount, pays + 1, dels, last),
            )
        self.stats.payments += 1

    def do_order_status(self, kv: KVStore) -> Optional[tuple]:
        """4%: read a customer's balance and their last order's lines."""
        w, d, c = self._pick_wdc()
        with kv.heap.transaction():
            bal, _ytd, _p, _dl, last = _unpack(_CUSTOMER, kv.get(k_customer(w, d, c)))
            if last == 0:
                self.stats.order_statuses += 1
                return None
            order_row = kv.get(k_order(w, d, last))
            if order_row is None:
                self.stats.order_statuses += 1
                return None
            _c, ol_cnt, carrier, _ad = _unpack(_ORDER, order_row)
            lines = []
            for ln in range(ol_cnt):
                row = kv.get(k_order_line(w, d, last, ln))
                if row is not None:
                    lines.append(_unpack(_ORDER_LINE, row))
        self.stats.order_statuses += 1
        return bal, carrier, lines

    def do_delivery(self, kv: KVStore) -> int:
        """4%: deliver the oldest undelivered order of each district."""
        w = self._rng.randrange(self.warehouses)
        carrier = self._rng.randint(1, 10)
        delivered = 0
        with kv.heap.transaction():
            for d in range(self.districts):
                base = k_new_order(w, d, 0)
                hits = kv.tree.scan(base, 1)
                if not hits or hits[0][0] >= k_new_order(w, d + 1, 0) or hits[0][0] < base:
                    continue
                o = hits[0][0] & ((1 << 40) - 1)
                kv.delete(k_new_order(w, d, o))
                row = kv.get(k_order(w, d, o))
                c, ol_cnt, _carrier, _ad = _unpack(_ORDER, row)
                kv.put(k_order(w, d, o), _pack(_ORDER, c, ol_cnt, carrier, 1))
                total = 0.0
                for ln in range(ol_cnt):
                    item, qty, amount, _dl = _unpack(
                        _ORDER_LINE, kv.get(k_order_line(w, d, o, ln))
                    )
                    kv.put(k_order_line(w, d, o, ln), _pack(_ORDER_LINE, item, qty, amount, 1))
                    total += amount
                bal, ytd_p, pays, dels, last = _unpack(
                    _CUSTOMER, kv.get(k_customer(w, d, c))
                )
                kv.put(
                    k_customer(w, d, c),
                    _pack(_CUSTOMER, bal + total, ytd_p, pays, dels + 1, last),
                )
                delivered += 1
        self.stats.deliveries += 1
        return delivered

    def do_stock_level(self, kv: KVStore) -> int:
        """4%: count low-stock items over the district's recent orders."""
        w = self._rng.randrange(self.warehouses)
        d = self._rng.randrange(self.districts)
        low = 0
        with kv.heap.transaction():
            next_o, _ytd = _unpack(_DISTRICT, kv.get(k_district(w, d)))
            seen = set()
            for o in range(max(1, next_o - 20), next_o):
                row = kv.get(k_order(w, d, o))
                if row is None:
                    continue
                _c, ol_cnt, _carrier, _ad = _unpack(_ORDER, row)
                for ln in range(ol_cnt):
                    lrow = kv.get(k_order_line(w, d, o, ln))
                    if lrow is None:
                        continue
                    item, _qty, _amount, _dl = _unpack(_ORDER_LINE, lrow)
                    if item in seen:
                        continue
                    seen.add(item)
                    s_qty, _sytd, _scnt = _unpack(_STOCK, kv.get(k_stock(w, item)))
                    if s_qty < STOCK_THRESHOLD:
                        low += 1
        self.stats.stock_levels += 1
        return low

    # -- driver ------------------------------------------------------------------------

    def run_op(self, kv: KVStore) -> str:
        """Execute one transaction drawn from the standard mix."""
        r = self._rng.random()
        acc = 0.0
        for name, frac in MIX:
            acc += frac
            if r < acc:
                getattr(self, f"do_{name}")(kv)
                return name
        self.do_stock_level(kv)  # pragma: no cover - float edge
        return STOCK_LEVEL

    def run(self, kv: KVStore, nops: int) -> TPCCStats:
        for _ in range(nops):
            self.run_op(kv)
        kv.drain()
        return self.stats
