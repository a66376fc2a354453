#!/usr/bin/env python3
"""Certify the built-in families across a parameter sweep and print a summary.

Runs both engines (rule-based certificate and exact nullspace oracle) on the
equal-dims grid plus a seeded sample of general dimension vectors. Each
certificate is replayed by `check_certificate`; one that does not replay
counts as not certified by the lemma engine.
"""

import argparse
import random
import time

from nwe import InvariantError, derive_certificate, gen_equal, gen_general, verify_all
from nwe.inference import check_certificate

MAX_PARTIES = 6  # the equal grid: parties 3..MAX_PARTIES, dimensions 3..MAX_DIM
MAX_DIM = 7
SAMPLES = 20  # random general-dims sets
SEED = 20250810


def certify(sset):
    start = time.monotonic()
    verdicts = verify_all(sset)
    oracle_ok = all(v.status == "Trivial" and v.nullspace_dim == 1 for v in verdicts)
    cert = derive_certificate(sset)
    try:
        check_certificate(sset, cert)
        lemma_ok = cert.trivial_for_all()
    except InvariantError:
        lemma_ok = False
    elapsed = time.monotonic() - start
    return oracle_ok, lemma_ok, len(cert.facts), elapsed


def families():
    """The equal-dims grid, then a seeded sample of general dimension vectors."""
    for n in range(3, MAX_PARTIES + 1):
        for d in range(3, MAX_DIM + 1):
            yield gen_equal(n, d)
    rng = random.Random(SEED)
    for _ in range(SAMPLES):
        n = rng.randint(3, 5)
        yield gen_general(tuple(sorted(rng.randint(3, 8) for _ in range(n))))


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    print(f"{'set':<24} {'size':>4} {'oracle':>7} {'lemma':>6} {'facts':>5} {'time':>7}")
    total = time.monotonic()
    all_ok = True
    for sset in families():
        oracle_ok, lemma_ok, nfacts, elapsed = certify(sset)
        all_ok &= oracle_ok and lemma_ok
        print(
            f"{sset.provenance:<24} {len(sset):>4} {str(oracle_ok):>7} "
            f"{str(lemma_ok):>6} {nfacts:>5} {elapsed:>6.3f}s"
        )
    print(f"total {time.monotonic() - total:.2f}s, all certified: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
