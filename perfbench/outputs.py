"""Independent checks of `nwe verify` reports.

Nothing here calls the library. Witnesses are parsed from their exact
fraction strings and re-checked against the pair constraints that
`workloads.classify_pairs` derives from the input document.
"""

from __future__ import annotations

from fractions import Fraction


def parse_entry(text: str) -> tuple[Fraction, Fraction]:
    """'1/2' -> (1/2, 0); '0+1/3i' -> (0, 1/3); '-1/2-1/3i' -> (-1/2, -1/3)."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:
        raise ValueError(f"bad complex entry {text!r}")
    return Fraction(body[:split]), Fraction(body[split:])


def witness_problems(strings, dim: int, vecs, constrained_pairs, party: int) -> list[str]:
    """Why a witness is not a valid nontrivial solution on `party`, if it is not.

    A valid witness is a dim x dim Hermitian matrix, not a multiple of the
    identity, with u^T W v = 0 for the party-t vectors u, v of every
    constrained pair.
    """
    try:
        w = [[parse_entry(x) for x in row] for row in strings]
    except (ValueError, ZeroDivisionError, AttributeError, TypeError) as exc:
        return [f"witness does not parse: {exc}"]
    d = len(w)
    if d != dim or any(len(row) != d for row in w):
        return [f"witness is not {dim} x {dim}"]
    problems = []
    if any(w[a][b] != (w[b][a][0], -w[b][a][1]) for a in range(d) for b in range(a, d)):
        problems.append("witness is not Hermitian")
    if all(w[a][b] == (0, 0) for a in range(d) for b in range(d) if a != b) and len(
        {w[a][a] for a in range(d)}
    ) == 1:
        problems.append("witness is a multiple of the identity")
    for i, j in constrained_pairs:
        u, v = vecs[i][party], vecs[j][party]
        re = sum(cu * cv * w[a][b][0] for a, cu in u.items() for b, cv in v.items())
        im = sum(cu * cv * w[a][b][1] for a, cu in u.items() for b, cv in v.items())
        if re or im:
            problems.append(f"witness violates the constraint of pair {(i, j)}")
            break
    return problems


def report_problems(workload, doc: dict, vecs, table, exit_code, report) -> list[str]:
    """Every way a verify result differs from what the workload expects."""
    if exit_code != workload.expect_exit:
        return [f"exit code {exit_code}, expected {workload.expect_exit}"]
    if not isinstance(report, dict):
        return ["no report"]
    problems = []
    n = len(doc["dims"])
    if report.get("dims") != doc["dims"]:
        problems.append("report dims differ from the document")
    if report.get("orthogonality", {}).get("ok") is not True:
        problems.append("report says the set is not orthogonal")
    if report.get("certified_nonlocal") is not (workload.expect_exit == 0):
        problems.append(f"certified_nonlocal is {report.get('certified_nonlocal')!r}")
    engines = ["lemma", "oracle"] if workload.engine == "both" else [workload.engine]
    entries = report.get("per_party", [])
    by_key = {(e.get("engine"), e.get("party")): e for e in entries}
    if len(entries) != n * len(engines) or len(by_key) != len(entries):
        problems.append(f"expected {n * len(engines)} per-party entries, got {len(entries)}")
    for t in range(n):
        for engine in engines:
            entry = by_key.get((engine, t))
            if entry is None:
                problems.append(f"no {engine} entry for party {t}")
                continue
            if entry.get("status") != workload.expect_status:
                problems.append(f"party {t} {engine}: {entry.get('status')}, expected {workload.expect_status}")
            if engine == "oracle":
                problems += _oracle_problems(entry, doc["dims"][t], vecs, table, t)
        lemma, oracle = by_key.get(("lemma", t)), by_key.get(("oracle", t))
        if lemma and oracle and lemma.get("status") == "Trivial" and oracle.get("status") == "Nontrivial":
            problems.append(f"party {t}: lemma Trivial but oracle Nontrivial")
    return problems


def _oracle_problems(entry: dict, dim: int, vecs, table, t: int) -> list[str]:
    null_dim = entry.get("nullspace_dim")
    if entry.get("status") == "Trivial":
        if null_dim != 1 or "witness" in entry:
            return [f"party {t} oracle: Trivial with nullspace_dim {null_dim!r} or a witness"]
        return []
    if not isinstance(null_dim, int) or null_dim < 2:
        return [f"party {t} oracle: Nontrivial with nullspace_dim {null_dim!r}"]
    if "witness" not in entry:
        return [f"party {t} oracle: Nontrivial without a witness"]
    problems = witness_problems(entry["witness"], dim, vecs, table.constrained[t], t)
    return [f"party {t} oracle: {p}" for p in problems]
