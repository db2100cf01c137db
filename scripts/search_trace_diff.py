#!/usr/bin/env python3
"""Compare the search events of two decision traces.

    python3 scripts/search_trace_diff.py A.jsonl B.jsonl

Exits non-zero unless both traces hold the same, non-zero number of
SearchRan events and every pair agrees on model_calls, candidates and
chosen. When either trace holds SearchPruned events (the frontier-pruned
engine), both must hold the same number and every pair must agree on
evaluated, pruned_candidates and pruned_subspaces. Run it on one manifest
traced under RAYON_NUM_THREADS=1 and =2: a search's counts must not
depend on how many threads share its predictor.

CacheSnapshot events are deliberately not compared, not even as
hits + misses. Their fields are lifetime totals of the predictor that
every fleet shard shares, read while other shards may still be
searching, so they depend on the thread count and on scheduling.
Traced on golden_cold_start.toml, 44 to 48 of the 61 snapshots differed
in hits + misses between a 1-thread and a 2-thread run (the first read
194 vs 386), and the count changed from one 2-thread run to the next.
"""

import json
import sys

FIELDS = {
    "SearchRan": ("model_calls", "candidates", "chosen"),
    "SearchPruned": ("evaluated", "pruned_candidates", "pruned_subspaces"),
}


def events(path, kind):
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return [e[kind] for e in lines if kind in e]


def compare(kind, a_path, b_path, required):
    """Prints a verdict for one event kind; returns True when it matches."""
    a, b = events(a_path, kind), events(b_path, kind)
    if not required and not a and not b:
        return True
    if not a or len(a) != len(b):
        print(f"{kind} events: {len(a)} in {a_path}, {len(b)} in {b_path}", file=sys.stderr)
        return False
    fields = FIELDS[kind]
    diffs = [
        (i, key, x[key], y[key])
        for i, (x, y) in enumerate(zip(a, b))
        for key in fields
        if x[key] != y[key]
    ]
    for i, key, x, y in diffs[:10]:
        print(f"{kind} #{i}: {key} {x} != {y}", file=sys.stderr)
    if diffs:
        return False
    print(f"{len(a)} {kind} events match on {', '.join(fields)}")
    return True


def main(a_path, b_path):
    ran = compare("SearchRan", a_path, b_path, required=True)
    pruned = compare("SearchPruned", a_path, b_path, required=False)
    return 0 if ran and pruned else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
