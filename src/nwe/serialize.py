"""JSON interchange for state sets ("nwe/1") and canonical encoding.

`state_set_from_document` reads a document in one pass straight into the
set's per-party vector index, checking a list's types every time but its
length and "not all zero" once per distinct tuple.

Canonical form: UTF-8, keys sorted, two-space indent, LF newlines, single
trailing newline. Writing the same set twice yields byte-identical files.
`dumps_canonical` writes containers itself. For a document of plain JSON
values (dicts, lists, tuples, strings, numbers, booleans and None), its
text equals json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
+ "\n" byte for byte: json's indent runs its pure-Python encoder, while
this writer joins each list of strings or of ints in one call over json's
C string encoder or int.__repr__.

A value may also be `CanonicalText`: a str subclass marking text that is
already the canonical form of some value at indent 0. The writer puts it
in place of that value, re-indenting its lines with one `str.replace`, so
the bytes are those of the value itself. `canonical_string_rows` builds
it for a matrix of strings in one join (`cli` writes each witness matrix
this way, from `HermitianMatrix.entry_strings`). Canonical text holds no
raw newline inside a string, so the re-indent is exact. The marker is
tested by exact type, so any other str subclass is written as a string.
"""

from __future__ import annotations

import json
import os
import stat
from json.encoder import encode_basestring as _encode_str

from .states import DimensionError, StateSet, SystemShape

FORMAT_VERSION = "nwe/1"


class DocumentError(ValueError):
    """A state-set document is malformed or violates the schema."""


def state_set_to_document(sset: StateSet) -> dict:
    index, states = sset.vector_index, []
    for vs, label in zip(zip(*(p.ids for p in index)), sset._labels):
        entry: dict = {"locals": [list(p.coeffs[v]) for p, v in zip(index, vs)]}
        if label is not None:
            entry["label"] = label
        states.append(entry)
    return {
        "version": FORMAT_VERSION,
        "dims": list(sset.shape.dims),
        "provenance": sset.provenance,
        "states": states,
    }


def state_set_from_document(doc) -> StateSet:
    if not isinstance(doc, dict):
        raise DocumentError(f"document must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported document version {version!r} (expected {FORMAT_VERSION!r})")
    dims = doc.get("dims")
    # JSON true and false decode to bool, a subclass of int: exact type checks reject them
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise DocumentError("dims must be an array of integers")
    try:
        shape = SystemShape(tuple(dims))
    except ValueError as exc:
        raise DocumentError(f"bad dims: {exc}") from exc
    raw_states = doc.get("states")
    if not isinstance(raw_states, list):
        raise DocumentError("states must be an array")
    provenance = doc.get("provenance", "user")
    if not isinstance(provenance, str):
        raise DocumentError("provenance must be a string")
    # each party's table maps a distinct coefficient tuple to its vector id
    n, tables, columns, labels = shape.n, [{} for _ in dims], [[] for _ in dims], []
    for idx, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise DocumentError(f"states[{idx}]: expected an object")
        raw_locals = entry.get("locals")
        if not isinstance(raw_locals, list) or len(raw_locals) != n:
            raise DocumentError(f"states[{idx}]: locals must be an array of {n} vectors")
        for k in range(n):
            coeffs = raw_locals[k]
            # the exact type check must come first: (True, 0) == (1, 0) == (1.0, 0) as keys
            if not isinstance(coeffs, list) or not {int}.issuperset(map(type, coeffs)):
                raise DocumentError(f"states[{idx}].locals[{k}]: expected an array of integers")
            v = tables[k].get(key := tuple(coeffs))
            if v is None:  # a tuple in the table passed these checks when first seen
                if len(key) != dims[k]:
                    raise DocumentError(f"states[{idx}].locals[{k}]: expected {dims[k]} coefficients, got {len(key)}")
                if not any(key):
                    raise DocumentError(
                        f"states[{idx}].locals[{k}]: local vector must have at least one nonzero coefficient"
                    )
                v = tables[k][key] = len(tables[k])
            columns[k].append(v)
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise DocumentError(f"states[{idx}].label: expected a string")
        labels.append(label)
    try:
        return object.__new__(StateSet)._store(shape, tables, columns, tuple(labels), provenance)
    except DimensionError as exc:  # a label that names two states
        raise DocumentError(str(exc)) from None


class CanonicalText(str):
    """Text already in canonical form at indent 0, without the trailing
    newline (`dumps_canonical(v)[:-1]` for a value v). `dumps_canonical`
    writes it in place of v, its lines re-indented; a value of any other
    str subclass is written as a JSON string."""

    __slots__ = ()


def canonical_string_rows(rows: list[list[str]]) -> CanonicalText:
    """The canonical text of `rows`, a nonempty list of nonempty lists of
    strings that JSON writes unescaped (as the entry strings of a witness,
    which hold only digits, "/", "+", "-" and "i"), joined in one pass."""
    body = '"\n  ],\n  [\n    "'.join(['",\n    "'.join(row) for row in rows])
    return CanonicalText('[\n  [\n    "' + body + '"\n  ]\n]')


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    # json writes an int, float, bool or None key as its JSON text, quoted
    if not isinstance(key, (int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _encode_str(json.dumps(key))


def _encode(x, indent: str) -> str:
    """x as json.dumps writes it with sort_keys=True, indent=2 and
    ensure_ascii=False, its inner lines starting with `indent`."""
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        types = set(map(type, x))
        if types == {str}:
            body = sep.join(map(_encode_str, x))
        elif types == {int}:
            body = sep.join(map(int.__repr__, x))
        else:
            body = sep.join([_encode(v, inner) for v in x])
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(
            [_key(k) + ": " + (_encode_str(v) if type(v) is str else _encode(v, inner)) for k, v in sorted(x.items())]
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    if type(x) is CanonicalText:
        # canonical text has no raw newline inside a string, so every
        # newline starts a line of its own
        return x.replace("\n", "\n" + indent)
    if isinstance(x, str):
        return _encode_str(x)
    if type(x) is int:
        return int.__repr__(x)
    if x is None or type(x) is bool:
        return _CONSTANTS[x]
    return json.dumps(x, ensure_ascii=False)


def dumps_canonical(doc) -> str:
    """The canonical text of `doc` (see the module docstring)."""
    return _encode(doc, "") + "\n"


def save_state_set(sset: StateSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(state_set_to_document(sset)))


def read_document(path):
    """The parsed JSON of a regular file; raises json.JSONDecodeError on
    malformed JSON and DocumentError on any other file (unread: /dev/zero
    never ends), bytes that are not UTF-8, nesting too deep to parse or a
    value the parser rejects (say an integer past Python's digit limit)."""
    with open(path, "r", encoding="utf-8") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise DocumentError("not a regular file")
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise DocumentError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        except RecursionError:
            raise DocumentError("JSON arrays or objects nested too deeply") from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise DocumentError(str(exc)) from None


def load_state_set(path) -> StateSet:
    return state_set_from_document(read_document(path))
