"""JSON interchange for state sets ("nwe/1") and canonical encoding.

Canonical form: UTF-8, keys sorted, two-space indent, LF newlines, single
trailing newline. Writing the same set twice yields byte-identical files.
"""

from __future__ import annotations

import functools
import json

from .states import LocalVector, ProductState, StateSet, SystemShape

FORMAT_VERSION = "nwe/1"


class DocumentError(ValueError):
    """A state-set document is malformed or violates the schema."""


def state_set_to_document(sset: StateSet) -> dict:
    states = []
    for s in sset.states:
        entry: dict = {"locals": [list(lv.coeffs) for lv in s.locals]}
        if s.label is not None:
            entry["label"] = s.label
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
    states = []
    # one LocalVector per distinct coefficient list, shared by every state that has it
    local_vector = functools.cache(LocalVector)
    for idx, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise DocumentError(f"states[{idx}]: expected an object")
        raw_locals = entry.get("locals")
        if not isinstance(raw_locals, list) or len(raw_locals) != shape.n:
            raise DocumentError(f"states[{idx}]: locals must be an array of {shape.n} vectors")
        locals_: list[LocalVector] = []
        for k, coeffs in enumerate(raw_locals):
            if not isinstance(coeffs, list) or not {int}.issuperset(map(type, coeffs)):
                raise DocumentError(f"states[{idx}].locals[{k}]: expected an array of integers")
            if len(coeffs) != shape.dims[k]:
                raise DocumentError(
                    f"states[{idx}].locals[{k}]: expected {shape.dims[k]} coefficients, got {len(coeffs)}"
                )
            try:
                # the exact type check above must come first: (True, 0) == (1, 0) as keys
                locals_.append(local_vector(tuple(coeffs)))
            except ValueError as exc:
                raise DocumentError(f"states[{idx}].locals[{k}]: {exc}") from exc
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise DocumentError(f"states[{idx}].label: expected a string")
        try:
            states.append(ProductState(shape, tuple(locals_), label))
        except ValueError as exc:
            raise DocumentError(f"states[{idx}]: {exc}") from exc
    sset = StateSet(shape, tuple(states), provenance=provenance)
    # certificates cite states by label (an unlabelled state by "#index"),
    # so each label must name one state
    first: dict[str, int] = {}
    for idx, label in enumerate(sset.labels()):
        if label in first:
            raise DocumentError(f"duplicate state label {label!r}: states[{first[label]}] and states[{idx}]")
        first[label] = idx
    return sset


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def save_state_set(sset: StateSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(state_set_to_document(sset)))


def read_document(path):
    """The parsed JSON of a file; raises json.JSONDecodeError on malformed
    JSON and DocumentError on bytes that are not UTF-8, on nesting too deep
    to parse or on a value the parser rejects (such as an integer literal
    longer than Python's digit limit)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
