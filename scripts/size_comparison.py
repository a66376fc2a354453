#!/usr/bin/env python3
"""Tabulate this library's set sizes against previously published counts."""

import argparse

from nwe import prior_sizes

MAX_DIM = 8  # the equal rows: dimensions 3..MAX_DIM


def fmt(value):
    return "-" if value is None else str(value)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)

    print("equal dimensions (n parties of dimension d)")
    print(f"{'dims':<16} {'ours':>6} {'jiang':>6} {'wang':>6}")
    for n in (3, 4, 5):
        for d in range(3, MAX_DIM + 1):
            report = prior_sizes((d,) * n)
            print(f"{str((d,) * n):<16} {fmt(report.ours):>6} {fmt(report.jiang):>6} {fmt(report.wang):>6}")

    print()
    print("mixed tripartite examples")
    print(f"{'dims':<16} {'ours':>6} {'jiang':>6} {'wang':>6}")
    for dims in ((3, 3, 4), (3, 4, 5), (3, 5, 9), (4, 4, 8), (3, 8, 8)):
        report = prior_sizes(dims)
        print(f"{str(dims):<16} {fmt(report.ours):>6} {fmt(report.jiang):>6} {fmt(report.wang):>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
