"""Seeded inputs of the serving benchmark: rows, query texts, operation lists.

Everything here is generated by the benchmark's own code from a seed, so a
change to the program (including its own random sailors generator) cannot
change what the benchmark sends.  Rows are plain tuples in the column order
of the sailors schema:

* ``Sailors(sid, sname, rating, age)``
* ``Boats(bid, bname, color)``
* ``Reserves(sid, bid, day)``

Initial reservation days lie in 1995-1999.  Rows the workloads write use
days from 2000 on, one new day per write, so a ``DISTINCT day`` scan sees
every write.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

COLORS = ("red", "green", "blue", "yellow", "white")
FIRST_NAMES = (
    "Dustin", "Brutus", "Lubber", "Andy", "Rusty", "Horatio", "Zorba", "Art",
    "Bob", "Frodo", "Guy", "Yuppy", "Ishmael", "Ahab", "Queequeg", "Starbuck",
    "Pip", "Flask", "Stubb", "Daggoo", "Tashtego", "Fedallah", "Perth",
    "Bildad", "Peleg", "Gabriel", "Bulkington", "Mapple", "Elijah", "Derick",
)
BOAT_NAMES = ("Interlake", "Clipper", "Marine", "Driftwood", "Sunset",
              "Tempest", "Albatross", "Pequod", "Rachel", "Samuel")
RATINGS = tuple(range(1, 11))
FIRST_WRITE_DAY = datetime.date(2000, 1, 1)


@dataclass(frozen=True)
class Sizes:
    """Initial row counts of one workload's database."""

    sailors: int
    boats: int
    reserves: int


@dataclass
class Database:
    """The rows of one generated instance (lists of tuples)."""

    sailors: list
    boats: list
    reserves: list

    def relations(self) -> dict:
        return {"Sailors": self.sailors, "Boats": self.boats,
                "Reserves": self.reserves}


def write_day(index: int) -> str:
    """The day of the ``index``-th write of a round (2000-01-01 onwards)."""
    return (FIRST_WRITE_DAY + datetime.timedelta(days=index)).isoformat()


def generate_database(seed: int, sizes: Sizes) -> Database:
    """A sailors instance with key/foreign-key discipline and planted rows.

    For every color and every rating one sailor of that rating reserved
    every boat of that color, so the division template ("rated r, reserved
    all boats of color c") is non-empty for any (c, r).  The remaining
    reservations are uniform over sailors, boats and days.
    """
    rng = random.Random(f"servebench-db-{seed}")
    sids = sorted(rng.sample(range(1, sizes.sailors * 5), sizes.sailors))
    sailors = [(sid, rng.choice(FIRST_NAMES), RATINGS[i % len(RATINGS)],
                rng.randint(32, 140) / 2.0)
               for i, sid in enumerate(sids)]
    rng.shuffle(sailors)
    bids = sorted(rng.sample(range(100, 100 + sizes.boats * 5), sizes.boats))
    boats = [(bid, rng.choice(BOAT_NAMES), COLORS[i % len(COLORS)])
             for i, bid in enumerate(bids)]
    rng.shuffle(boats)

    seen: set = set()
    reserves: list = []

    def reserve(sid: int, bid: int) -> None:
        while True:
            day = (f"199{rng.randint(5, 9)}-{rng.randint(1, 12):02d}-"
                   f"{rng.randint(1, 28):02d}")
            if (sid, bid, day) not in seen:
                seen.add((sid, bid, day))
                reserves.append((sid, bid, day))
                return

    by_rating: dict = {}
    for sailor in sailors:
        by_rating.setdefault(sailor[2], []).append(sailor[0])
    for color in COLORS:
        color_bids = [b[0] for b in boats if b[2] == color]
        for rating in RATINGS:
            planted = rng.choice(by_rating[rating])
            for bid in color_bids:
                reserve(planted, bid)
    while len(reserves) < sizes.reserves:
        reserve(rng.choice(sids), rng.choice(bids))
    rng.shuffle(reserves)
    return Database(sailors, boats, reserves)


# ---------------------------------------------------------------------------
# Query texts
# ---------------------------------------------------------------------------

LANGUAGES = ("sql", "ra", "trc", "drc", "datalog")


def template_texts(template: str, p: dict) -> dict:
    """The five language forms of one ad-hoc template (Q1-Q5 shapes).

    Each shape is the tutorial's canonical query with a rating selection
    added and constants taken from ``p``; every form returns the set of
    qualifying sailor ids.
    """
    r = p["rating"]
    if template == "Q1":  # rated r and reserved boat b
        b = p["bid"]
        return {
            "sql": ("SELECT DISTINCT S.sid FROM Sailors S, Reserves R "
                    f"WHERE S.sid = R.sid AND R.bid = {b} AND S.rating = {r}"),
            "ra": (f"project[sid](select[rating = {r}](Sailors) njoin "
                   f"select[bid = {b}](Reserves))"),
            "trc": (f"{{ s.sid | Sailors(s) and s.rating = {r} and exists x "
                    f"(Reserves(x) and x.sid = s.sid and x.bid = {b}) }}"),
            "drc": (f"{{ s | exists n, a (Sailors(s, n, {r}, a) and "
                    f"exists d (Reserves(s, {b}, d))) }}"),
            "datalog": f"ans(S) :- sailors(S, N, {r}, A), reserves(S, {b}, D).",
        }
    if template == "Q2":  # rated r and reserved a boat of color c
        c = p["color"]
        return {
            "sql": ("SELECT DISTINCT S.sid FROM Sailors S, Reserves R, Boats B "
                    "WHERE S.sid = R.sid AND R.bid = B.bid "
                    f"AND B.color = '{c}' AND S.rating = {r}"),
            "ra": (f"project[sid](select[rating = {r}](Sailors) njoin Reserves "
                   f"njoin select[color = '{c}'](Boats))"),
            "trc": (f"{{ s.sid | Sailors(s) and s.rating = {r} and exists x, b "
                    "(Reserves(x) and Boats(b) and x.sid = s.sid and "
                    f"x.bid = b.bid and b.color = '{c}') }}"),
            "drc": (f"{{ s | exists n, a (Sailors(s, n, {r}, a) and "
                    f"exists b, d, bn (Reserves(s, b, d) and Boats(b, bn, '{c}'))) }}"),
            "datalog": (f"ans(S) :- sailors(S, N, {r}, A), reserves(S, B, D), "
                        f"boats(B, BN, '{c}')."),
        }
    if template == "Q3":  # rated r, reserved a c1 boat but no c2 boat
        c1, c2 = p["color"], p["color2"]
        return {
            "sql": ("SELECT DISTINCT S.sid FROM Sailors S "
                    f"WHERE S.rating = {r} AND S.sid IN (SELECT R.sid FROM "
                    "Reserves R, Boats B WHERE R.bid = B.bid AND "
                    f"B.color = '{c1}') AND S.sid NOT IN (SELECT R2.sid FROM "
                    "Reserves R2, Boats B2 WHERE R2.bid = B2.bid AND "
                    f"B2.color = '{c2}')"),
            "ra": (f"project[sid](select[rating = {r}](Sailors) njoin ("
                   f"project[sid](Reserves njoin select[color = '{c1}'](Boats)) "
                   f"except project[sid](Reserves njoin "
                   f"select[color = '{c2}'](Boats))))"),
            "trc": (f"{{ s.sid | Sailors(s) and s.rating = {r} and "
                    "exists x, b (Reserves(x) and Boats(b) and x.sid = s.sid "
                    f"and x.bid = b.bid and b.color = '{c1}') and "
                    "not exists x2, b2 (Reserves(x2) and Boats(b2) and "
                    f"x2.sid = s.sid and x2.bid = b2.bid and b2.color = '{c2}') }}"),
            "drc": (f"{{ s | exists n, a (Sailors(s, n, {r}, a) and "
                    f"exists b, d, bn (Reserves(s, b, d) and Boats(b, bn, '{c1}')) "
                    "and not exists b2, d2, bn2 (Reserves(s, b2, d2) and "
                    f"Boats(b2, bn2, '{c2}'))) }}"),
            "datalog": ("reserved_color(S, C) :- reserves(S, B, D), "
                        "boats(B, BN, C).\n"
                        f"ans(S) :- sailors(S, N, {r}, A), "
                        f"reserved_color(S, '{c1}'), "
                        f"not reserved_color(S, '{c2}')."),
        }
    if template == "Q4":  # rated r and reserved every boat of color c
        c = p["color"]
        return {
            "sql": ("SELECT DISTINCT S.sid FROM Sailors S "
                    f"WHERE S.rating = {r} AND NOT EXISTS (SELECT B.bid FROM "
                    f"Boats B WHERE B.color = '{c}' AND NOT EXISTS (SELECT R.sid "
                    "FROM Reserves R WHERE R.sid = S.sid AND R.bid = B.bid))"),
            "ra": (f"project[sid](select[rating = {r}](Sailors)) except "
                   f"project[sid]((project[sid](select[rating = {r}](Sailors)) "
                   f"times project[bid](select[color = '{c}'](Boats))) "
                   "except project[sid, bid](Reserves))"),
            "trc": (f"{{ s.sid | Sailors(s) and s.rating = {r} and forall b "
                    f"(Boats(b) and b.color = '{c}' -> exists x (Reserves(x) "
                    "and x.sid = s.sid and x.bid = b.bid)) }"),
            "drc": (f"{{ s | exists n, a (Sailors(s, n, {r}, a) and "
                    f"forall b, bn, c (Boats(b, bn, c) and c = '{c}' -> "
                    "exists d (Reserves(s, b, d)))) }"),
            "datalog": (f"color_boat(B) :- boats(B, BN, '{c}').\n"
                        "reserved(S, B) :- reserves(S, B, D).\n"
                        f"misses(S) :- sailors(S, N, {r}, A), color_boat(B), "
                        "not reserved(S, B).\n"
                        f"ans(S) :- sailors(S, N, {r}, A), not misses(S)."),
        }
    if template == "Q5":  # rated r and reserved a c1 boat or a c2 boat
        c1, c2 = p["color"], p["color2"]
        return {
            "sql": ("SELECT DISTINCT S.sid FROM Sailors S, Reserves R, Boats B "
                    f"WHERE S.sid = R.sid AND R.bid = B.bid AND S.rating = {r} "
                    f"AND (B.color = '{c1}' OR B.color = '{c2}')"),
            "ra": (f"project[sid](select[rating = {r}](Sailors) njoin Reserves "
                   f"njoin select[color = '{c1}'](Boats)) union "
                   f"project[sid](select[rating = {r}](Sailors) njoin Reserves "
                   f"njoin select[color = '{c2}'](Boats))"),
            "trc": (f"{{ s.sid | Sailors(s) and s.rating = {r} and exists x, b "
                    "(Reserves(x) and Boats(b) and x.sid = s.sid and "
                    f"x.bid = b.bid and (b.color = '{c1}' or "
                    f"b.color = '{c2}')) }}"),
            "drc": (f"{{ s | exists n, a (Sailors(s, n, {r}, a) and "
                    "exists b, d, bn, c (Reserves(s, b, d) and Boats(b, bn, c) "
                    f"and (c = '{c1}' or c = '{c2}'))) }}"),
            "datalog": (f"ans(S) :- sailors(S, N, {r}, A), reserves(S, B, D), "
                        f"boats(B, BN, '{c1}').\n"
                        f"ans(S) :- sailors(S, N, {r}, A), reserves(S, B, D), "
                        f"boats(B, BN, '{c2}')."),
        }
    raise ValueError(f"unknown template {template!r}")


def join_chain_sql(color: str, rating: "int | None" = None) -> str:
    """The join-chain shape (three Reserves copies on one sailor and boat)."""
    extra = f" AND S.rating = {rating}" if rating is not None else ""
    return ("SELECT DISTINCT S.sname FROM Sailors S, Boats B, Reserves R0, "
            f"Reserves R1, Reserves R2 WHERE B.color = '{color}'{extra} "
            "AND S.sid = R0.sid AND R0.bid = B.bid "
            "AND S.sid = R1.sid AND R1.bid = B.bid "
            "AND S.sid = R2.sid AND R2.bid = B.bid")


def aggregation_sql(min_day: "str | None" = None) -> str:
    """The aggregation shape: per-boat count and sailor-id range."""
    where = f" WHERE R.day >= '{min_day}'" if min_day is not None else ""
    return ("SELECT R.bid, COUNT(*) AS n, MIN(R.sid) AS first_sailor, "
            f"MAX(R.sid) AS last_sailor FROM Reserves R{where} GROUP BY R.bid")


DISTINCT_DAYS_SQL = "SELECT DISTINCT R.day FROM Reserves R"
COUNT_RESERVES_SQL = "SELECT COUNT(*) AS n FROM Reserves R"
