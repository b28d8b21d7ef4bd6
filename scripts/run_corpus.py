#!/usr/bin/env python3
"""Scan random gluings for equivalence or duality violations.

The three verdicts (cocycle, subset extension, pairwise extension) are
provably equivalent for the surjective distributive families this corpus
produces, and the pullback dimension must count glued classes; any
violation printed here is a bug in the tool, not a mathematical finding.
An instance whose theorem test did not run (past the subset bound) is
counted as skipped, with the reason, and is not a violation.

With --json the scan prints one line instead of its text: a JSON object
with the seeds scanned, the elapsed seconds, how often the cocycle holds
and fails, the skips by reason, the violations, and the extension entries
the families' sweeps decided and how many of them fail (the subset sweep's
entries, or the pairwise sweep's past the subset bound).  It counts the
families whose sweeps ran on union-finds: a family whose every map row is
a single 1 reads each entry off the roots of K and K + {k} and runs no
elimination, and every dual family is one.  It also counts the pieces
whose distributivity was checked and how many of them had no adapted
basis, so that the closure decided them.  The exit code is 1 when there
is a violation, either way.

Usage: python scripts/run_corpus.py [--count N] [--seed N]
                                    [--max-pieces N] [--max-points N] [--json]
"""

import argparse
import json
import time
from collections import Counter

from gluecheck.cli import at_least
from gluecheck.finset import duality_check, dualize, random_gluing
from gluecheck.multipullback import ExtensionReport, analyse


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=at_least(1), default=200)
    parser.add_argument("--seed", type=int, default=0, help="first seed of the scan")
    parser.add_argument("--max-pieces", type=at_least(2), default=6)
    parser.add_argument("--max-points", type=at_least(1), default=12)
    parser.add_argument("--json", action="store_true", help="print a one-line JSON summary")
    args = parser.parse_args()

    verdict_counts: Counter = Counter()
    skipped: Counter = Counter()
    extension: Counter = Counter()
    distributivity: Counter = Counter()
    on_union_finds = 0
    bad = []
    start = time.perf_counter()
    for seed in range(args.seed, args.seed + args.count):
        gluing = random_gluing(seed, max_pieces=args.max_pieces, max_points=args.max_points)
        family = dualize(gluing)
        analysis = analyse(family)
        for verdict in analysis.distributive.per_piece.values():
            distributivity["pieces"] += 1
            distributivity["by_closure"] += verdict.blocks is None
        swept = analysis.all_extensions
        if not isinstance(swept, ExtensionReport):
            swept = analysis.pairwise_extensions  # None when a map is not onto
        if swept is not None:
            extension["entries"] += len(swept.entries)
            extension["failing"] += len(swept.failures)
            on_union_finds += family.coordinate_index is not None
        if analysis.skipped is not None:
            skipped[analysis.skipped] += 1
        else:
            verdict_counts[analysis.verdicts[0]] += 1
            if not analysis.consistent:
                bad.append((seed, "equivalence", analysis.verdicts))
        duality = duality_check(gluing)
        if not duality.ok:
            bad.append((seed, "duality", duality.mismatches))
    elapsed = time.perf_counter() - start

    if args.json:
        print(json.dumps({
            "seeds": {"first": args.seed, "count": args.count},
            "elapsed_s": round(elapsed, 3),
            "cocycle": {"holds": verdict_counts[True], "fails": verdict_counts[False]},
            "skipped": dict(sorted(skipped.items())),
            "violations": [{"seed": seed, "kind": kind, "detail": list(detail)}
                           for seed, kind, detail in bad],
            "extension": {"entries": extension["entries"], "failing": extension["failing"]},
            "swept_on_union_finds": on_union_finds,
            "distributivity": {"pieces": distributivity["pieces"],
                               "by_closure": distributivity["by_closure"]},
        }))
        raise SystemExit(1 if bad else 0)

    print(f"scanned {args.count} instances in {elapsed:.1f}s "
          f"(seeds {args.seed}..{args.seed + args.count - 1})")
    print(f"cocycle holds on {verdict_counts[True]} instances, "
          f"fails on {verdict_counts[False]}")
    for reason, n in sorted(skipped.items()):
        print(f"theorem test skipped on {n} instances: {reason}")
    if bad:
        print(f"{len(bad)} VIOLATIONS (tool bugs):")
        for seed, kind, detail in bad:
            print(f"  seed {seed}: {kind}: {detail}")
        raise SystemExit(1)
    print("no equivalence or duality violations")


if __name__ == "__main__":
    main()
