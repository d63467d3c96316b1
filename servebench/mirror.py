"""Plain-Python expected answers, computed from the benchmark's own rows.

The client keeps a :class:`Mirror` of every row it loaded and every write the
server acknowledged, and computes each query's expected answer from it with
dictionaries and sets.  Nothing here imports the program under test, so a
wrong answer from the engine cannot also be the expected one.

Every ``expect_*`` function returns a :class:`collections.Counter` of row
tuples: the bag of rows the server must return (a set query gives every row
count 1, so duplicates in the server's answer are caught too).
"""

from __future__ import annotations

from collections import Counter

from inputs import Database


class Mirror:
    """The rows the server must hold, with indexes kept up to date on writes."""

    def __init__(self, db: Database) -> None:
        self.sailors = {row[0]: row for row in db.sailors}
        self.boats = {row[0]: row for row in db.boats}
        self.reserves: list = []
        self.bids_of: dict = {}
        self.per_bid: dict = {}
        self.days: set = set()
        self.apply("Reserves", db.reserves)

    def apply(self, relation: str, rows) -> None:
        """Record rows the server acknowledged."""
        if relation == "Boats":
            for row in rows:
                self.boats[row[0]] = tuple(row)
            return
        if relation != "Reserves":
            raise ValueError(f"the workloads never write {relation!r}")
        for row in rows:
            sid, bid, day = row
            self.reserves.append((sid, bid, day))
            self.bids_of.setdefault(sid, set()).add(bid)
            entry = self.per_bid.get(bid)
            if entry is None:
                self.per_bid[bid] = [1, sid, sid]
            else:
                entry[0] += 1
                entry[1] = min(entry[1], sid)
                entry[2] = max(entry[2], sid)
            self.days.add(day)

    # -- helpers --------------------------------------------------------------

    def colors_of(self, sid: int) -> set:
        return {self.boats[bid][2] for bid in self.bids_of.get(sid, ())
                if bid in self.boats}

    def rated(self, rating: "int | None"):
        return [row for row in self.sailors.values()
                if rating is None or row[2] == rating]


def as_set(values) -> Counter:
    """One-column rows, each once."""
    return Counter((value,) for value in set(values))


def rows_set(rows) -> Counter:
    """Multi-column rows, each once."""
    return Counter(set(rows))


def expect_template(m: Mirror, template: str, p: dict) -> Counter:
    """The sailor ids one ad-hoc template instance must return."""
    r = p["rating"]
    sids = []
    for sid, _name, _rating, _age in m.rated(r):
        if template == "Q1":
            ok = p["bid"] in m.bids_of.get(sid, ())
        elif template == "Q4":
            wanted = {bid for bid, row in m.boats.items() if row[2] == p["color"]}
            ok = wanted <= m.bids_of.get(sid, set())
        else:
            colors = m.colors_of(sid)
            if template == "Q2":
                ok = p["color"] in colors
            elif template == "Q3":
                ok = p["color"] in colors and p["color2"] not in colors
            elif template == "Q5":
                ok = p["color"] in colors or p["color2"] in colors
            else:
                raise ValueError(f"unknown template {template!r}")
        if ok:
            sids.append(sid)
    return as_set(sids)


def expect_join_chain(m: Mirror, color: str, rating: "int | None" = None) -> Counter:
    """Names of sailors (optionally of one rating) with a ``color`` boat."""
    return as_set(row[1] for row in m.rated(rating)
                  if color in m.colors_of(row[0]))


def expect_aggregation(m: Mirror, min_day: "str | None" = None) -> Counter:
    """``(bid, count, min sid, max sid)`` per boat with a reservation."""
    if min_day is None:
        return Counter(tuple([bid] + entry) for bid, entry in m.per_bid.items())
    groups: dict = {}
    for sid, bid, day in m.reserves:
        if day >= min_day:
            entry = groups.get(bid)
            if entry is None:
                groups[bid] = [1, sid, sid]
            else:
                entry[0] += 1
                entry[1] = min(entry[1], sid)
                entry[2] = max(entry[2], sid)
    return Counter(tuple([bid] + entry) for bid, entry in groups.items())


def expect_distinct_days(m: Mirror) -> Counter:
    return as_set(m.days)


def expect_count(n: int) -> Counter:
    return Counter({(n,): 1})
