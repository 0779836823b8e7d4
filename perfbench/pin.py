"""Recompute the golden digests in perfbench/golden.json.

For each seed, records the pinned plan's session bag and extracts its
feature CSV, then stores the SHA-256 of the bag body and of the CSV:

    python3 perfbench/pin.py 0-47     # seeds 0 to 47
    python3 perfbench/pin.py 11 23

Seeds are recorded two at a time, in two processes.

Run it only on a commit whose output is known to be right; the benchmark
fails every check against a digest pinned from wrong output.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile

from gate import GOLDEN_PATH, body_digest, digest_after

HERE = os.path.dirname(os.path.abspath(__file__))
# The pool processes start with this sys.path.
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def pin_seed(seed: int) -> tuple[int, dict]:
    import reps  # only the pool processes load mwpipe

    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        bag = os.path.join(tmp, "pin.bag")
        csv = os.path.join(tmp, "pin.csv")
        reps.msession.run_session(reps.make_plan(seed), bag)
        body, size, records = body_digest(bag)
        reps.mexport.extract_csv(bag, csv)
        table = digest_after(csv)[0]
    return seed, {"body_sha256": body, "csv_sha256": table,
                  "records": records, "body_bytes": size}


def parse_seeds(items) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seeds", nargs="+", help="seeds or inclusive ranges such as 0-47")
    args = ap.parse_args()
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for seed, entry in pool.imap_unordered(pin_seed, parse_seeds(args.seeds)):
            golden["seeds"][str(seed)] = entry
            print(seed, entry["body_sha256"][:8], entry["csv_sha256"][:8], flush=True)
    golden["seeds"] = dict(sorted(golden["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
