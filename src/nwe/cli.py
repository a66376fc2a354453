"""Command-line front end: generate families, certify them, compare set sizes.

Exit codes: 0 = certified nonlocal, 1 = not certified (a nontrivial
orthogonality-preserving measurement exists, or the rule engine alone could
not complete), 2 = parameter error (an `--out` path that cannot be written
included), 3 = invalid input set (even when its report cannot be written),
or no verdict because an internal check failed (for instance, a rule-engine
certificate that does not replay); no report is written then.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .constructions import ConstructionError, gen_equal, gen_general, prior_sizes
from .inference import check_certificate, derive_certificate, render_fact
from .serialize import (
    DocumentError,
    canonical_string_rows,
    dumps_canonical,
    read_document,
    state_set_from_document,
    state_set_to_document,
)
from .states import (
    DimensionError,
    NonOrthogonalSetError,
    StateSet,
    check_pairwise_orthogonality,
)
from .verifier import InvariantError, verify_all

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_PARAMETER = 2
EXIT_INVALID_INPUT = 3


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConstructionError(f"could not parse dims {text!r}; expected e.g. 3,3,4")


class OutputError(Exception):
    """The `--out` file could not be written."""


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _cmd_generate(args) -> int:
    if args.equal == (args.dims is not None):
        print("error: choose exactly one of --equal (with --parties/--dim) or --dims", file=sys.stderr)
        return EXIT_PARAMETER
    if args.equal:
        if args.parties is None or args.dim is None:
            print("error: --equal requires --parties and --dim", file=sys.stderr)
            return EXIT_PARAMETER
        sset = gen_equal(args.parties, args.dim)
    else:
        sset = gen_general(_parse_dims(args.dims))
    text = dumps_canonical(state_set_to_document(sset))
    _emit(text, args.out)
    print(f"{len(sset)} states", file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def _build_report(sset: StateSet, engines: list[str]) -> tuple[dict, int]:
    """The verify report of `sset` under `engines` and its exit code: 3, with
    no sizes and no party entries, for a set that is not pairwise orthogonal."""
    violations = check_pairwise_orthogonality(sset)
    report: dict = {
        "dims": list(sset.shape.dims),
        "provenance": sset.provenance,
        "orthogonality": {"ok": not violations, "violations": violations},
        "per_party": [],
    }
    if violations:
        report.update(certified_nonlocal=False, note="input set is not pairwise orthogonal")
        return report, EXIT_INVALID_INPUT
    report["sizes"] = prior_sizes(sset.shape.dims)._asdict()

    cert = derive_certificate(sset) if "lemma" in engines else None
    # a derived certificate is replayed once: under both engines by
    # verify_all, which eliminates only the parties it does not prove Trivial
    verdicts = verify_all(sset, cert) if "oracle" in engines else None
    if verdicts is None and cert is not None:
        check_certificate(sset, cert)

    rendered = [[] for _ in range(sset.shape.n)]  # each party's fact lines, in derivation order
    for fact in cert.facts if cert is not None else ():
        rendered[fact.party].append(render_fact(fact, cert.labels))
    for t in range(sset.shape.n):
        if cert is not None:
            conclusion = cert.conclusions[t]
            entry = {
                "party": t,
                "engine": "lemma",
                "status": "Trivial" if conclusion.trivial else "Incomplete",
                "facts": rendered[t],
            }
            if not conclusion.trivial:
                entry["missing_zero_entries"] = [list(p) for p in conclusion.missing_zeros]
                entry["diagonal_classes"] = [list(c) for c in conclusion.diagonal_classes]
            report["per_party"].append(entry)
        if verdicts is not None:
            v = verdicts[t]
            entry = {
                "party": t,
                "engine": "oracle",
                "status": v.status,
                "nullspace_dim": v.nullspace_dim,
            }
            if v.witness is not None:
                entry["witness"] = canonical_string_rows(v.witness.entry_strings())
            report["per_party"].append(entry)

    if verdicts is not None:
        certified = all(v.trivial for v in verdicts)
        if certified:
            note = "certified (oracle)"
            if cert is not None and not cert.trivial_for_all():
                note = "certified (oracle); lemma-engine incomplete"
        else:
            bad = [v.party for v in verdicts if not v.trivial]
            note = (
                f"a nontrivial orthogonality-preserving first measurement exists on parties {bad}; "
                "this alone does not prove LOCC distinguishability"
            )
    else:
        certified = cert.trivial_for_all()
        note = "certified (lemma engine)" if certified else "lemma engine incomplete; run the oracle to decide"
    report["certified_nonlocal"] = certified
    report["note"] = note
    return report, (EXIT_OK if certified else EXIT_NOT_CERTIFIED)


def _cmd_verify(args) -> int:
    if (args.input is None) == (args.dims is None):
        print("error: choose exactly one of --input or --dims", file=sys.stderr)
        return EXIT_PARAMETER
    if args.input is not None:
        sset = state_set_from_document(read_document(args.input))
    else:
        sset = gen_general(_parse_dims(args.dims))

    engines = ["lemma", "oracle"] if args.engine == "both" else [args.engine]
    report, code = _build_report(sset, engines)
    if code == EXIT_INVALID_INPUT:
        print(f"error: non-orthogonal state pairs: {report['orthogonality']['violations']}", file=sys.stderr)
    try:
        _emit(dumps_canonical(report), args.out)
    except OutputError as exc:
        if code != EXIT_INVALID_INPUT:
            raise
        print(f"error: {exc}", file=sys.stderr)  # exit 3 stands without the report
    return code


def _cmd_compare(args) -> int:
    dims = _parse_dims(args.dims)
    report = prior_sizes(dims)
    if args.json:
        sys.stdout.write(dumps_canonical({"dims": list(dims), **report._asdict()}))
        return EXIT_OK
    print(f"dims: {','.join(map(str, dims))}")
    if report.ours is not None:
        print(f"ours   {report.ours:>6}   sum(d_2..d_n-1) + 2*d_n - n + 1")
    else:
        print("ours        -   needs n >= 3 and nondecreasing dims with d_1 >= 3")
    print(f"jiang  {report.jiang:>6}   sum(2*d_i - 3) + 1")
    if report.wang is not None:
        print(f"wang   {report.wang:>6}   2*(d_1 + d_3) - 3 (three parties)")
    if report.zhang is not None:
        print(f"zhang  {report.zhang:>6}   2*d_2 - 1 (two parties)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each `parse_args` call returns a new Namespace."""
    parser = argparse.ArgumentParser(
        prog="nwe",
        description="Generate locally indistinguishable orthogonal product states "
        "and certify that every orthogonality-preserving local measurement is trivial.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a state family as canonical JSON")
    p_gen.add_argument("--equal", action="store_true", help="equal-dimension family")
    p_gen.add_argument("--parties", type=int, help="party count n for --equal")
    p_gen.add_argument("--dim", type=int, help="local dimension d for --equal")
    p_gen.add_argument("--dims", help="comma-separated dimensions for the general family, e.g. 3,3,4")
    p_gen.add_argument("--out", "-o", help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="certify a state set (input file or inline dims)")
    p_ver.add_argument("--input", "-i", help="state-set document (nwe/1 JSON)")
    p_ver.add_argument("--dims", help="generate the general family for these dims and verify it")
    p_ver.add_argument("--engine", choices=["lemma", "oracle", "both"], default="both")
    p_ver.add_argument("--out", "-o", help="report path (default: stdout)")
    p_ver.set_defaults(func=_cmd_verify)

    p_cmp = sub.add_parser("compare", help="set-size comparison against published counts")
    p_cmp.add_argument("--dims", required=True, help="comma-separated dimensions")
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConstructionError, DimensionError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except DocumentError as exc:
        print(f"error: invalid document: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InvariantError as exc:
        print(f"error: no verdict: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (NonOrthogonalSetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
