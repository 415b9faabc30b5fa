"""Driver-snapshot rotation invariants (VERDICT r4 Next #1/#2): the
first 50 `queries()` entries — the only rows the correctness driver
scores — must all be oracle-backed and must never repeat a query
already scored in a prior round's CORRECTNESS file (a snapshot slot
spent on a scored query is wasted evidence)."""

from __future__ import annotations

import glob
import json
import os

import __ray_entry__ as entry

REPO = os.path.dirname(os.path.abspath(entry.__file__))


def _scored() -> set[str]:
    """Every query named in a committed CORRECTNESS_r*.json, whatever
    its round."""
    out: set[str] = set()
    for path in glob.glob(os.path.join(REPO, "CORRECTNESS_r*.json")):
        with open(path) as f:
            out |= set(json.load(f))
    return out


def test_head50_fresh_and_oracle_backed():
    names = list(entry.queries())
    head = names[:50]
    oracles = entry.oracle_sql()
    assert len(head) == len(set(head)) == 50
    repeated = [q for q in head if q in _scored()]
    assert not repeated, f"head-50 repeats already-scored queries: {repeated}"
    missing = [q for q in head if q not in oracles]
    assert not missing, f"head-50 entries without oracle_sql: {missing}"


def test_registry_complete_and_callable():
    q = entry.queries()
    o = entry.oracle_sql()
    # every oracle key must have a queries() twin (driver contract)
    orphans = [k for k in o if k not in q]
    assert not orphans, f"oracle_sql keys without queries(): {orphans}"
    assert all(callable(f) for f in q.values())
    # the documented registry size never shrinks silently
    assert len(q) >= 272 and len(o) >= 262
