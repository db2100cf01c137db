#!/usr/bin/env python3
"""Compare the SearchRan events of two decision traces.

    python3 scripts/search_trace_diff.py A.jsonl B.jsonl

Exits non-zero unless both traces hold the same, non-zero number of
SearchRan events and every pair agrees on model_calls, candidates and
chosen. Run it on one manifest traced under RAYON_NUM_THREADS=1 and =2:
a search's counts must not depend on how many threads share its
predictor.
"""

import json
import sys

FIELDS = ("model_calls", "candidates", "chosen")


def searches(path):
    with open(path) as f:
        events = [json.loads(line) for line in f if line.strip()]
    return [e["SearchRan"] for e in events if "SearchRan" in e]


def main(a_path, b_path):
    a, b = searches(a_path), searches(b_path)
    if not a or len(a) != len(b):
        print(f"SearchRan events: {len(a)} in {a_path}, {len(b)} in {b_path}", file=sys.stderr)
        return 1
    diffs = [
        (i, key, x[key], y[key])
        for i, (x, y) in enumerate(zip(a, b))
        for key in FIELDS
        if x[key] != y[key]
    ]
    for i, key, x, y in diffs[:10]:
        print(f"SearchRan #{i}: {key} {x} != {y}", file=sys.stderr)
    if diffs:
        return 1
    print(f"{len(a)} SearchRan events match on {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
