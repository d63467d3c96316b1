"""The three workloads: what one round sends and how its answers are checked.

A round is a fixed, seeded list of operations, sent one at a time: each
waits for the previous answer, so the server is quiescent between any two
operations.  Every run therefore does the same work, and the data grows
the same way whatever the speed of the code under test.  Each workload
provides

* ``database(seed)`` — its initial rows;
* ``prepare(call, db, seed)`` — unmeasured warm-up after set-up (prepared
  handles, views); ``call`` sends one request and returns the decoded body;
* ``operations(seed, db, ctx)`` — the measured operations;
* ``verify(seed, db, ctx, ops, results)`` — one flag per operation, from
  the mirror computation and the properties the workload promises.

An operation's flag is ``OK``, ``ERROR`` (a non-200 status) or ``WRONG``
(a 200 answer that fails a check).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass

from client import encode_request
from inputs import (
    COLORS,
    COUNT_RESERVES_SQL,
    DISTINCT_DAYS_SQL,
    LANGUAGES,
    Sizes,
    aggregation_sql,
    generate_database,
    join_chain_sql,
    template_texts,
    write_day,
)
from mirror import (
    Mirror,
    as_set,
    expect_aggregation,
    expect_count,
    expect_distinct_days,
    expect_join_chain,
    expect_template,
    rows_set,
)


OK, ERROR, WRONG = 0, 1, 2


def _wrong(condition: bool) -> int:
    return WRONG if condition else OK


@dataclass
class Op:
    """One measured operation."""

    kind: str                 # "read" or "write"
    cls: str                  # latency class ("write" for writes)
    request: bytes
    check: tuple = ()
    conn: int = 0             # the connection it is sent on


def answer_bag(body: bytes) -> Counter:
    """The rows of a result envelope as a bag of tuples."""
    return Counter(tuple(row) for row in json.loads(body)["rows"])


def _query(text: str) -> bytes:
    return encode_request("POST", "/query", {"text": text})


def _write(relation: str, rows: list) -> bytes:
    return encode_request("POST", "/write", {"relation": relation, "rows": rows})


def _write_ok(body: bytes, rows: list) -> bool:
    return json.loads(body).get("rows") == len(rows)


class Workload:
    name = ""
    sizes = Sizes(0, 0, 0)
    connections = 1

    def database(self, seed: int):
        return generate_database(seed, self.sizes)

    def read_classes(self) -> tuple:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# read-after-write
# ---------------------------------------------------------------------------

class ReadAfterWrite(Workload):
    """One connection: a small append to Reserves, then one analytic read.

    The reads are prepared handles, so they hit the plan cache, and every
    read follows a write, so it misses the result cache and scans what was
    just written.  The three shapes alternate in a fixed order, so each is
    exactly one third of the reads.
    """

    name = "read-after-write"
    sizes = Sizes(4800, 150, 48000)
    cycles = 110
    write_rows = 4
    shapes = (
        ("raw.join", join_chain_sql("red")),
        ("raw.agg", aggregation_sql()),
        ("raw.distinct", DISTINCT_DAYS_SQL),
    )

    def read_classes(self) -> tuple:
        return tuple(cls for cls, _text in self.shapes)

    def prepare(self, call, db, seed):
        handles = []
        for _cls, text in self.shapes:
            handle = call(encode_request("POST", "/prepare", {"text": text}))
            handles.append(handle["handle"])
            call(encode_request("POST", f"/execute/{handle['handle']}"))
        return handles

    def operations(self, seed, db, handles):
        rng = random.Random(f"servebench-raw-{seed}")
        sids = [row[0] for row in db.sailors]
        bids = [row[0] for row in db.boats]
        ops = []
        for i in range(self.cycles):
            rows = [[rng.choice(sids), rng.choice(bids), write_day(i)]
                    for _ in range(self.write_rows)]
            ops.append(Op("write", "write", _write("Reserves", rows),
                          ("Reserves", rows)))
            shape = i % len(self.shapes)
            ops.append(Op("read", self.shapes[shape][0], encode_request(
                "POST", f"/execute/{handles[shape]}"), (shape,)))
        return ops

    def expected(self, m: Mirror, shape: int) -> Counter:
        if shape == 0:
            return expect_join_chain(m, "red")
        if shape == 1:
            return expect_aggregation(m)
        return expect_distinct_days(m)

    def verify(self, seed, db, handles, ops, results):
        m = Mirror(db)
        flags = []
        for op, (_t0, _t1, status, body) in zip(ops, results):
            if status != 200:
                flags.append(ERROR)
            elif op.kind == "write":
                m.apply(*op.check)
                flags.append(_wrong(not _write_ok(body, op.check[1])))
            else:
                flags.append(_wrong(answer_bag(body)
                                    != self.expected(m, op.check[0])))
        return flags


# ---------------------------------------------------------------------------
# ad-hoc
# ---------------------------------------------------------------------------

class AdHoc(Workload):
    """One connection: every query text is new to the server.

    Each group is one template instance (Q1-Q5 shapes with constants drawn
    from the generated rows) in all five languages, then one SQL join-chain
    or aggregation instance.  A one-row write to Reserves follows every
    third group (18 reads).  A round sends more distinct texts than the
    plan cache holds (256).
    """

    name = "ad-hoc"
    sizes = Sizes(1200, 60, 12000)
    groups = 52              # template instances: 5 texts each
    groups_per_write = 3     # 18 reads, then one write
    warm_texts = (
        "SELECT COUNT(*) AS n FROM Boats B",
        "project[bid](Boats)",
        "{ b.bid | Boats(b) }",
        "{ b | exists n, c (Boats(b, n, c)) }",
        "ans(B) :- boats(B, N, C).",
    )

    def read_classes(self) -> tuple:
        return tuple(f"adhoc.{lang}" for lang in LANGUAGES) + (
            "adhoc.chain", "adhoc.agg")

    def prepare(self, call, db, seed):
        for text in self.warm_texts:
            call(_query(text))
        return None

    def _params(self, rng, db, template, by_sid, color_of, rating_of):
        if template == "Q4":
            return {"rating": rng.randint(1, 10), "color": rng.choice(COLORS)}
        sid, bid, _day = rng.choice(db.reserves)
        params = {"rating": rating_of[sid], "bid": bid, "color": color_of[bid]}
        if template == "Q3":
            reserved = {color_of[b] for b in by_sid[sid]}
            missing = [c for c in COLORS if c not in reserved]
            if not missing:
                return None
            params["color2"] = rng.choice(missing)
        elif template == "Q5":
            params["color2"] = rng.choice(
                [c for c in COLORS if c != params["color"]])
        return params

    def operations(self, seed, db, ctx):
        rng = random.Random(f"servebench-adhoc-{seed}")
        color_of = {row[0]: row[2] for row in db.boats}
        rating_of = {row[0]: row[2] for row in db.sailors}
        by_sid: dict = {}
        for sid, bid, _day in db.reserves:
            by_sid.setdefault(sid, set()).add(bid)
        sids = [row[0] for row in db.sailors]
        bids = [row[0] for row in db.boats]
        seen: set = set()
        ops: list = []
        writes = 0
        templates = ("Q1", "Q2", "Q3", "Q4", "Q5")
        for group in range(self.groups):
            template = templates[group % len(templates)]
            while True:
                params = self._params(rng, db, template, by_sid, color_of,
                                      rating_of)
                if params is None:
                    continue
                texts = template_texts(template, params)
                if texts["sql"] not in seen:
                    seen.add(texts["sql"])
                    break
            for lang, text in texts.items():
                ops.append(Op("read", f"adhoc.{lang}", _query(text),
                              ("template", group, template, params)))
            # One SQL shape instance per group, alternating.
            while True:
                sid, bid, day = rng.choice(db.reserves)
                if group % 2 == 0:
                    shape = ("chain", color_of[bid], rating_of[sid])
                    text = join_chain_sql(shape[1], shape[2])
                else:
                    shape = ("agg", day)
                    text = aggregation_sql(day)
                if shape not in seen:
                    seen.add(shape)
                    break
            ops.append(Op("read", f"adhoc.{shape[0]}", _query(text), shape))
            if group % self.groups_per_write == self.groups_per_write - 1:
                rows = [[rng.choice(sids), rng.choice(bids), write_day(writes)]]
                ops.append(Op("write", "write", _write("Reserves", rows),
                              ("Reserves", rows)))
                writes += 1
        return ops

    def verify(self, seed, db, ctx, ops, results):
        m = Mirror(db)
        flags = []
        expected_for: dict = {}
        group_answers: dict = {}
        for op, (_t0, _t1, status, body) in zip(ops, results):
            if status != 200:
                flags.append(ERROR)
                continue
            if op.kind == "write":
                m.apply(*op.check)
                flags.append(_wrong(not _write_ok(body, op.check[1])))
                continue
            got = answer_bag(body)
            kind = op.check[0]
            if kind == "template":
                _kind, group, template, params = op.check
                if group not in expected_for:
                    expected_for[group] = expect_template(m, template, params)
                    group_answers[group] = got
                # Cross-language equivalence: every form of one instance
                # returns the first form's answer, as well as the mirror's.
                flags.append(_wrong(got != expected_for[group]
                                    or got != group_answers[group]))
            elif kind == "chain":
                flags.append(_wrong(got != expect_join_chain(
                    m, op.check[1], op.check[2])))
            else:
                flags.append(_wrong(got != expect_aggregation(m, op.check[1])))
        return flags


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

class ServeMix(Workload):
    """Warm reads and a writer on two connections: 95/5 reads/writes.

    Connection 0 reads registered views (lazy and eager), prepared handles
    and a small hot set of texts; the working set fits the result cache.
    Connection 1 appends one row to Reserves or Boats at a random place in
    every block of 20 operations.
    """

    name = "serve-mix"
    sizes = Sizes(300, 20, 3000)
    connections = 2
    blocks = 220              # each: 19 reads and one write
    block = 20

    def read_classes(self) -> tuple:
        return ("mix.view_lazy", "mix.view_eager", "mix.handle", "mix.text")

    def _targets(self, db):
        """``(cls, kind, text, expect(mirror) -> Counter)`` per read target."""
        bid = sorted(row[0] for row in db.boats)[len(db.boats) // 2]

        def color_counts(m):
            counts = Counter(m.boats[b][2] for _s, b, _d in m.reserves
                             if b in m.boats)
            return Counter({(color, n): 1 for color, n in counts.items()})

        def per_bid(m):
            return Counter({(b, entry[0]): 1 for b, entry in m.per_bid.items()})

        def rated_with(m, rating, predicate):
            return [row for row in m.rated(rating) if predicate(row[0])]

        return [
            ("mix.view_lazy", "view-lazy",
             "SELECT B.color, COUNT(*) AS n FROM Reserves R, Boats B "
             "WHERE R.bid = B.bid GROUP BY B.color", color_counts),
            ("mix.view_lazy", "view-lazy",
             "SELECT DISTINCT S.sname FROM Sailors S, Reserves R "
             "WHERE S.sid = R.sid AND S.rating = 10",
             lambda m: as_set(row[1] for row in rated_with(
                 m, 10, lambda sid: m.bids_of.get(sid)))),
            ("mix.view_eager", "view-eager",
             "SELECT R.bid, COUNT(*) AS n FROM Reserves R GROUP BY R.bid",
             per_bid),
            ("mix.view_eager", "view-eager",
             "ans(S, N) :- sailors(S, N, 9, A), reserves(S, B, D), "
             "boats(B, BN, 'red').",
             lambda m: rows_set((row[0], row[1]) for row in rated_with(
                 m, 9, lambda sid: "red" in m.colors_of(sid)))),
            ("mix.handle", "handle", COUNT_RESERVES_SQL,
             lambda m: expect_count(len(m.reserves))),
            ("mix.handle", "handle",
             "SELECT B.bid, B.bname FROM Boats B WHERE B.color = 'blue'",
             lambda m: rows_set((b, row[1]) for b, row in m.boats.items()
                                if row[2] == "blue")),
            ("mix.handle", "handle",
             f"project[sid, day](select[bid = {bid}](Reserves))",
             lambda m: rows_set((s, d) for s, b, d in m.reserves
                                if b == bid)),
            ("mix.text", "text", "SELECT COUNT(*) AS n FROM Boats B",
             lambda m: expect_count(len(m.boats))),
            ("mix.text", "text", "project[color](Boats)",
             lambda m: as_set(row[2] for row in m.boats.values())),
            ("mix.text", "text",
             "{ n | exists s, r, a (Sailors(s, n, r, a) and r = 10) }",
             lambda m: as_set(row[1] for row in m.rated(10))),
            ("mix.text", "text",
             f"{{ s.sid | Sailors(s) and s.rating = 9 and exists x "
             f"(Reserves(x) and x.sid = s.sid and x.bid = {bid}) }}",
             lambda m: as_set(row[0] for row in rated_with(
                 m, 9, lambda sid: bid in m.bids_of.get(sid, ())))),
            ("mix.text", "text",
             f"SELECT DISTINCT R.day FROM Reserves R WHERE R.bid = {bid}",
             lambda m: as_set(d for _s, b, d in m.reserves if b == bid)),
        ]

    def prepare(self, call, db, seed):
        requests = []
        for index, (_cls, kind, text, _expect) in enumerate(
                self._targets(db)):
            if kind.startswith("view"):
                call(encode_request("POST", "/views", {
                    "text": text, "name": f"v{index}",
                    "refresh": kind.split("-")[1]}))
                requests.append(_query(text))
            elif kind == "handle":
                handle = call(encode_request("POST", "/prepare",
                                             {"text": text}))["handle"]
                requests.append(encode_request("POST", f"/execute/{handle}"))
            else:
                requests.append(_query(text))
        for request in requests:
            call(request)
        return requests

    def operations(self, seed, db, requests):
        rng = random.Random(f"servebench-mix-{seed}")
        targets = self._targets(db)
        sids = [row[0] for row in db.sailors]
        bids = [row[0] for row in db.boats]
        first_new_bid = max(bids) + 1
        ops = []
        writes = 0
        for _block in range(self.blocks):
            write_at = rng.randrange(self.block)
            for position in range(self.block):
                if position != write_at:
                    index = rng.randrange(len(targets))
                    ops.append(Op("read", targets[index][0], requests[index],
                                  (index,)))
                    continue
                if rng.random() < 0.8:
                    relation = "Reserves"
                    rows = [[rng.choice(sids), rng.choice(bids),
                             write_day(writes)]]
                else:
                    relation = "Boats"
                    rows = [[first_new_bid + writes, f"Boat{writes}",
                             rng.choice(COLORS)]]
                writes += 1
                ops.append(Op("write", "write", _write(relation, rows),
                              (relation, rows), conn=1))
        return ops

    def verify(self, seed, db, requests, ops, results):
        """Exact answers; versions that never go back.

        The server is quiescent between operations, so every read must
        equal the mirror of all writes acknowledged before it: every
        checkpoint is exact, and no count is ever below the acknowledged
        writes.  The versions each connection sees never decrease, and a
        read never sees a version older than the last acknowledged write
        on the other connection.
        """
        targets = self._targets(db)
        m = Mirror(db)
        expected: dict = {}     # target index -> Counter, for the current m
        last_version = [-1] * self.connections
        flags = []
        for op, (_t0, _t1, status, body) in zip(ops, results):
            if status != 200:
                flags.append(ERROR)
                continue
            payload = json.loads(body)
            version = payload["version"]
            wrong = version < max(last_version)
            last_version[op.conn] = version
            if op.kind == "write":
                wrong = wrong or payload.get("rows") != len(op.check[1])
                m.apply(*op.check)
                expected.clear()
            else:
                index = op.check[0]
                if index not in expected:
                    expected[index] = targets[index][3](m)
                wrong = wrong or answer_bag(body) != expected[index]
            flags.append(_wrong(wrong))
        return flags


WORKLOADS = {w.name: w for w in (ReadAfterWrite(), AdHoc(), ServeMix())}
