"""Small-size self-check of the benchmark: ``run.py --self-check``.

Runs every workload at a tiny size (one untraced and one traced round
each, a few seconds in all) and requires that every checker passes the
program's answers.  Then it feeds the checkers corrupted inputs and
requires each to be caught, so a checker that passes everything cannot go
unnoticed:

* a corrupted mirror (one extra reservation, so expected answers are
  wrong) must flag at least one answer on every workload;
* ad-hoc: a wrong answer from one language form must also flag the next
  form, which disagrees with it (the cross-language check);
* serve-mix: a read older than an acknowledged write, a row count below
  the acknowledged writes, and a view answer missing a row;
* every workload: a non-200 status and a write acknowledging the wrong
  number of rows.
"""

from __future__ import annotations

import copy
import json
import sys

from inputs import COUNT_RESERVES_SQL, Sizes
from workloads import ERROR, OK, WORKLOADS, WRONG

SMALL = {
    "read-after-write": {"sizes": Sizes(240, 15, 2400), "cycles": 12},
    "ad-hoc": {"sizes": Sizes(120, 10, 1200), "groups": 6},
    "serve-mix": {"sizes": Sizes(60, 10, 600), "blocks": 6},
}
SEED = 7


def _small(name: str):
    workload = copy.copy(WORKLOADS[name])
    for key, value in SMALL[name].items():
        setattr(workload, key, value)
    return workload


def _replace(results, i, status=None, **changes) -> list:
    """A copy of ``results`` with response ``i``'s status or payload changed."""
    changed = list(results)
    t0, t1, old_status, body = changed[i]
    payload = json.loads(body)
    payload.update(changes)
    changed[i] = (t0, t1, old_status if status is None else status,
                  json.dumps(payload).encode())
    return changed


def _find(ops, predicate) -> int:
    """Index of the first operation ``predicate(index, op)`` accepts."""
    return next(i for i, op in enumerate(ops) if predicate(i, op))


def self_check() -> int:
    from run import per_layer, run_round, load_requests

    problems = []

    def expect(condition: bool, what: str) -> None:
        print(f"  {'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            problems.append(what)

    for name in WORKLOADS:
        workload = _small(name)
        db = workload.database(SEED)
        loads = load_requests(db)
        print(f"{name}:")
        records = [run_round(workload, SEED, db, loads, trace)
                   for trace in (False, True)]
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        expect(failed == 0, f"all {attempted} operations pass the checkers")
        layers = per_layer(records)
        expect(all(isinstance(value, (int, float))
                   for value, _unit in layers.values()),
               f"{len(layers)} per-layer metrics computed from the trace")
        ctx, ops, results = records[0]["raw"]

        def check(what: str, i: int, flag: int, status=None, **changes):
            flags = workload.verify(SEED, db, ctx, ops,
                                    _replace(results, i, status, **changes))
            expect(flags[i] == flag, what)

        bad = copy.deepcopy(db)
        sid, bid, _day = bad.reserves[0]
        bad.reserves.append((sid, bid, "1999-12-31"))
        expect(WRONG in workload.verify(SEED, bad, ctx, ops, results),
               "a corrupted expected answer is flagged")
        check("a non-200 answer is flagged",
              _find(ops, lambda i, op: op.kind == "read"), ERROR, status=500)
        check("a write acknowledging the wrong row count is flagged",
              _find(ops, lambda i, op: op.kind == "write"), WRONG, rows=0)

        if name == "ad-hoc":
            first = _find(ops, lambda i, op: op.check[:1] == ("template",))
            flags = workload.verify(SEED, db, ctx, ops,
                                    _replace(results, first, rows=[[-1]]))
            expect(flags[first] == WRONG and flags[first + 1] == WRONG,
                   "forms of one template that disagree are flagged")
        if name == "serve-mix":
            count = next(i for i, t in enumerate(workload._targets(db))
                         if t[2] == COUNT_RESERVES_SQL)
            write = _find(ops, lambda i, op: op.kind == "write"
                          and op.check[0] == "Reserves")
            after = _find(ops, lambda i, op: i > write and op.kind == "read")
            check("a version older than an acknowledged write is flagged",
                  after, WRONG,
                  version=json.loads(results[write][3])["version"] - 1)
            check("a row count below the acknowledged writes is flagged",
                  _find(ops, lambda i, op: i > write
                        and op.check == (count,)),
                  WRONG, rows=[[len(db.reserves)]])
            view = _find(ops, lambda i, op: op.check == (0,))
            rows = json.loads(results[view][3])["rows"]
            check("a view answer missing a row is flagged", view, WRONG,
                  rows=rows[1:])
        expect(set(workload.verify(SEED, db, ctx, ops, results)) == {OK},
               "the unmodified answers still pass")

    if problems:
        print(f"self-check FAILED: {len(problems)} problem(s)")
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(self_check())
