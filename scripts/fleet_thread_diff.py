#!/usr/bin/env python3
"""Compare two `fleet_sim --json` rows of the same manifest.

    python3 scripts/fleet_thread_diff.py A.json B.json

Exits non-zero unless both rows hold the same keys and agree on every
value except the measured ones (wall clock, throughput and peak RSS).
Run it on one manifest under RAYON_NUM_THREADS=1 and =2: a fleet's
simulated metrics and counters must not depend on its thread count.
"""

import json
import sys

MEASURED = {"build_s", "run_s", "node_intervals_per_s", "peak_rss_mib"}


def load(path):
    with open(path) as f:
        row = json.load(f)
    if not isinstance(row, dict):
        sys.exit(f"{path}: expected one JSON object, found {type(row).__name__}")
    return row


def main(a_path, b_path):
    a, b = load(a_path), load(b_path)
    diffs = [
        (key, a.get(key, "<missing>"), b.get(key, "<missing>"))
        for key in sorted(a.keys() | b.keys())
        if key not in MEASURED and a.get(key, "<missing>") != b.get(key, "<missing>")
    ]
    for key, x, y in diffs:
        print(f"{key}: {x} != {y}", file=sys.stderr)
    if diffs:
        return 1
    compared = len(a.keys() - MEASURED)
    print(f"{compared} keys match ({', '.join(sorted(MEASURED))} not compared)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
