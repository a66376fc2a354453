import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwe import DocumentError, StateSet, gen_equal, gen_general, load_state_set, save_state_set
from nwe.serialize import CanonicalText, dumps_canonical, state_set_from_document, state_set_to_document

from helpers import reference_state_set_from_document, rotated, scrambled, without_stopper

GOLDEN = Path(__file__).parent / "golden"


class TestRoundTrip:
    @pytest.mark.parametrize("sset", [gen_equal(3, 3), gen_general((3, 3, 4))], ids=lambda s: s.provenance)
    def test_document_round_trip(self, sset):
        doc = state_set_to_document(sset)
        back = state_set_from_document(doc)
        assert back == sset

    def test_file_round_trip(self, tmp_path):
        sset = gen_general((3, 4, 5))
        path = tmp_path / "set.json"
        save_state_set(sset, path)
        assert load_state_set(path) == sset

    @pytest.mark.parametrize("name", ["domino", "shifts", "tiles"])
    def test_set_built_from_states_saves_and_loads(self, tmp_path, name):
        # the golden classic sets, rebuilt from their states in Python
        text = (GOLDEN / f"set_{name}.json").read_text(encoding="utf-8")
        read = state_set_from_document(json.loads(text))
        sset = StateSet(read.shape, read.states, provenance=read.provenance)
        path = tmp_path / "set.json"
        save_state_set(sset, path)
        assert path.read_text(encoding="utf-8") == text
        assert load_state_set(path) == sset

    def test_canonical_bytes_are_stable(self, tmp_path):
        sset = gen_equal(3, 4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_state_set(sset, a)
        save_state_set(sset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_canonical_shape(self):
        text = dumps_canonical(state_set_to_document(gen_equal(3, 3)))
        assert text.endswith("\n") and not text.endswith("\n\n")
        assert "\r" not in text
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)


class TestValidation:
    def good_doc(self):
        return state_set_to_document(gen_equal(3, 3))

    def test_version_required(self):
        doc = self.good_doc()
        doc["version"] = "nwe/2"
        with pytest.raises(DocumentError, match="version"):
            state_set_from_document(doc)

    def test_dims_must_be_integers(self):
        doc = self.good_doc()
        doc["dims"] = [3, "3", 3]
        with pytest.raises(DocumentError, match="dims"):
            state_set_from_document(doc)

    def test_boolean_dims_rejected(self):
        doc = self.good_doc()
        doc["dims"] = [3, True, 3]
        with pytest.raises(DocumentError, match="dims"):
            state_set_from_document(doc)

    def test_boolean_coefficients_rejected(self):
        doc = json.loads(
            '{"version": "nwe/1", "dims": [2, 2], "states": [{"locals": [[true, false], [1, 0]]}]}'
        )
        with pytest.raises(DocumentError, match=r"states\[0\].locals\[0\]"):
            state_set_from_document(doc)

    def test_local_length_checked(self):
        doc = self.good_doc()
        doc["states"][0]["locals"][1] = [1, 0]
        with pytest.raises(DocumentError, match=r"states\[0\].locals\[1\]"):
            state_set_from_document(doc)

    def test_zero_vector_rejected(self):
        doc = self.good_doc()
        doc["states"][2]["locals"][0] = [0, 0, 0]
        with pytest.raises(DocumentError, match="nonzero"):
            state_set_from_document(doc)

    def test_non_object_rejected(self):
        with pytest.raises(DocumentError):
            state_set_from_document([1, 2, 3])

    def test_missing_provenance_defaults_to_user(self):
        doc = self.good_doc()
        del doc["provenance"]
        assert state_set_from_document(doc).provenance == "user"

    def test_labels_survive(self):
        sset = state_set_from_document(self.good_doc())
        assert sset.states[0].label == "G_0[i=1]"
        assert sset.states[-1].label == "S"

    def test_duplicate_labels_rejected(self):
        doc = self.good_doc()
        doc["states"][4]["label"] = doc["states"][1]["label"]
        with pytest.raises(DocumentError, match=r"duplicate state label 'G_0\[i=2\]': states\[1\] and states\[4\]"):
            state_set_from_document(doc)

    def test_label_colliding_with_an_index_citation_rejected(self):
        # an unlabelled state is cited as "#<index>"
        doc = self.good_doc()
        del doc["states"][0]["label"]
        doc["states"][3]["label"] = "#0"
        with pytest.raises(DocumentError, match="duplicate state label '#0'"):
            state_set_from_document(doc)

    def test_unlabelled_states_are_not_duplicates(self):
        doc = self.good_doc()
        for entry in doc["states"]:
            del entry["label"]
        assert len(state_set_from_document(doc)) == len(doc["states"])


class TestEqualityReadsTheStoredForm:
    """Sets compare and hash by their shape, vector index, labels and
    provenance, so no comparison builds the `states` view."""

    @pytest.mark.parametrize(
        "sset",
        [gen_equal(3, 4), gen_general((3, 4, 5)), without_stopper(gen_equal(3, 4))],
        ids=lambda s: s.provenance,
    )
    def test_loaded_set_equals_the_set_it_was_saved_from(self, sset):
        given = sset.__dict__["states"]  # the states the set was made from, kept as its view
        doc = state_set_to_document(sset)
        loaded, again = state_set_from_document(doc), state_set_from_document(doc)
        assert loaded == sset and sset == loaded and loaded == again
        assert hash(loaded) == hash(sset) == hash(again)
        assert "states" not in loaded.__dict__ and "states" not in again.__dict__
        assert sset.__dict__["states"] is given

    def test_one_label_or_the_provenance_tells_sets_apart(self):
        sset = gen_equal(3, 4)
        doc = state_set_to_document(sset)
        relabelled, unlabelled = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
        relabelled["states"][3]["label"] = "x"
        del unlabelled["states"][3]["label"]
        others = [state_set_from_document(d) for d in (relabelled, unlabelled, {**doc, "provenance": "elsewhere"})]
        for other in others:
            assert other != sset and sset != other
            assert other.vector_index == sset.vector_index
            assert "states" not in other.__dict__


class TestSharedVectors:
    def test_equal_coefficients_share_one_vector(self):
        doc = {
            "version": "nwe/1",
            "dims": [2, 2],
            "states": [
                {"locals": [[1, 0], [1, 0]]},
                {"locals": [[1, 0], [0, 1]]},
                {"locals": [[0, 1], [1, 0]]},
            ],
        }
        a, b, c = state_set_from_document(doc).states
        assert a.locals[0] is b.locals[0]
        assert a.locals[0] is a.locals[1] is c.locals[1]
        assert a.locals[0] is not c.locals[0]
        assert b.locals[1] is not a.locals[1]

    def test_boolean_after_an_equal_integer_vector_rejected(self):
        # (True, 0) == (1, 0) and both hash alike: the type check must run
        # before the shared vector is looked up
        doc = json.loads(
            '{"version": "nwe/1", "dims": [2, 2], "states": ['
            '{"locals": [[1, 0], [1, 0]]}, {"locals": [[true, 0], [0, 1]]}]}'
        )
        with pytest.raises(DocumentError, match=r"states\[1\].locals\[0\]: expected an array of integers"):
            state_set_from_document(doc)


def views(sset):
    return sset.vector_index, sset.labels(), len(sset), sset.provenance, sset.states


def loaded(load, doc):
    """("error", message) if `load` rejects doc, else ("ok", the set's views)."""
    try:
        sset = load(doc)
    except DocumentError as exc:
        return "error", str(exc)
    return "ok", views(sset)


@st.composite
def hostile_documents(draw):
    """Documents over 2-3 parties of dimension 2-3 whose states draw each
    party's list from a small pool, so that lists repeat. A pool may hold
    lists equal as Python values to an integer list but of another type
    (booleans, floats), lists of the wrong length, all-zero lists and
    non-lists; a state may be malformed or carry a bad or repeated label."""
    dims = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    coefficient = st.sampled_from([-1, 0, 0, 1, 2])
    odd_value = st.sampled_from([True, False, 1.0, 0.0, "1", None])
    pools = []
    for d in dims:
        good = st.lists(coefficient, min_size=d, max_size=d)
        odd = st.one_of(
            good.flatmap(lambda c: st.integers(0, len(c) - 1).flatmap(
                lambda k, c=c: odd_value.map(lambda x, k=k, c=c: c[:k] + [x] + c[k + 1 :])
            )),
            st.lists(coefficient, min_size=d - 1, max_size=d + 1),
            st.just([0] * d),
            st.sampled_from([None, 1, "x", {}]),
        )
        pools.append(draw(st.lists(good | odd if draw(st.booleans()) else good, min_size=1, max_size=4)))
    label = st.one_of(st.none(), st.sampled_from(["a", "b", "#0", "#1"]), st.just(7))
    states = []
    for _ in range(draw(st.integers(0, 6))):
        entry = {"locals": [draw(st.sampled_from(pool)) for pool in pools]}
        if (name := draw(label)) is not None:
            entry["label"] = name
        states.append(draw(st.sampled_from([entry] * 8 + [[], {"locals": entry["locals"][1:]}, {}])))
    doc = {"version": "nwe/1", "dims": dims, "states": states}
    if draw(st.booleans()):
        doc["provenance"] = "drawn"
    # as a file gives it: every list a new object
    return json.loads(json.dumps(doc))


def family_documents():
    families = [gen_equal(3, 3), gen_equal(4, 3), gen_general((3, 4, 5)), gen_general((3, 3, 4))]
    sets = (
        families
        + [without_stopper(s) for s in families]
        + [scrambled(s, random.Random(k), reduce=True) for k, s in enumerate(families)]
        + [rotated(s, random.Random(k), range(s.shape.n)) for k, s in enumerate(families)]
    )
    docs = [state_set_to_document(s) for s in sets]
    unlabelled = state_set_to_document(gen_equal(3, 4))
    for entry in unlabelled["states"][::2]:
        del entry["label"]
    return docs + [unlabelled]


class TestAgainstReferenceLoader:
    """The loader reads a document straight into the per-party vector index;
    the reference builds every LocalVector and ProductState first. Their
    sets, views and errors must agree."""

    @settings(max_examples=600, deadline=None)
    @given(hostile_documents())
    def test_drawn_documents(self, doc):
        assert loaded(state_set_from_document, doc) == loaded(reference_state_set_from_document, doc)

    @pytest.mark.parametrize("doc", family_documents(), ids=lambda d: d.get("provenance", "unlabelled"))
    def test_family_documents(self, doc):
        sset = state_set_from_document(doc)
        assert "states" not in sset.__dict__
        reference = reference_state_set_from_document(doc)
        assert views(sset) == views(reference)
        assert sset == reference
        assert state_set_to_document(sset) == doc


def two_party(*states):
    """A document over dims (3, 2) with the given states' locals."""
    return {"version": "nwe/1", "dims": [3, 2], "states": [{"locals": locals_} for locals_ in states]}


class TestPrecedenceOnInternedLists:
    """A list equal to one already interned is still checked in full, and
    each error is the one the state-by-state loader gave first."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(
                two_party([[1, 0, 0], [1, 0]], [[1.0, 0, 0], [0, 1]]),
                "states[1].locals[0]: expected an array of integers",
                id="float-after-int",
            ),
            pytest.param(
                two_party([[0, 1, 0], [0, 1]], [[0, 1, 0], [False, 1]]),
                "states[1].locals[1]: expected an array of integers",
                id="false-after-0",
            ),
            pytest.param(
                two_party([[1, 0, 0], [1, 0]], [[1, 0, 0, 0], [0, 1]]),
                "states[1].locals[0]: expected 3 coefficients, got 4",
                id="prefix-interned",
            ),
            pytest.param(
                # (1, 0) is interned on party 1, not on party 0
                two_party([[0, 0, 1], [1, 0]], [[1, 0], [0, 1]]),
                "states[1].locals[0]: expected 3 coefficients, got 2",
                id="interned-on-another-party",
            ),
            pytest.param(
                # (1, 0, 0) is interned on party 0, and too long for party 1
                two_party([[1, 0, 0], [1, 0]], [[1, 0, 0], [1, 0, 0]]),
                "states[1].locals[1]: expected 2 coefficients, got 3",
                id="too-long-for-its-party",
            ),
            pytest.param(
                two_party([[1, 0, 0], [1, 0]], [[0, 1, 0], [1, 0]], [[0, 0, 1], [0, 0]]),
                "states[2].locals[1]: local vector must have at least one nonzero coefficient",
                id="zero-first-seen-later",
            ),
            pytest.param(
                two_party([[1, 0, 0], [1, 0]], [[True, 0, 0], [1, 0, 0]]),
                "states[1].locals[0]: expected an array of integers",
                id="type-error-before-length-error",
            ),
        ],
    )
    def test_exact_message(self, doc, message):
        doc = json.loads(json.dumps(doc))
        with pytest.raises(DocumentError) as caught:
            state_set_from_document(doc)
        assert str(caught.value) == message
        assert loaded(reference_state_set_from_document, doc) == ("error", message)


class SubDict(dict):
    pass


class SubList(list):
    pass


def as_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


SCALARS = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),  # control characters only
    st.text("é→🙂\"\\"),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda x: st.sampled_from([x, -x])),
    st.booleans(),
    st.none(),
    st.floats(),
)

DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(SubList),
        st.lists(st.text(), max_size=4),  # the string and int fast paths
        st.lists(st.integers(), max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=4).map(SubDict),
    ),
    max_leaves=30,
)


class TestCanonicalWriter:
    """dumps_canonical writes containers itself and must give json.dumps's
    sorted, indent-2, non-ASCII text byte for byte."""

    @settings(max_examples=500, deadline=None)
    @given(DOCUMENTS)
    def test_equals_json_dumps(self, doc):
        assert dumps_canonical(doc) == as_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [[], {}, (), [[], {}, ()], {"b": [1, True, None], "a": ["x", "\u2028", "\x00"]}, {1: "a", 2: [1.5]}, {None: 0}, {True: 0, 2.5: 1}],
        ids=repr,
    )
    def test_edge_documents(self, doc):
        assert dumps_canonical(doc) == as_json(doc)

    def test_report_documents(self):
        sset = gen_general((3, 3, 4))
        for doc in (state_set_to_document(sset), {"witness": [["0", "-1/2+1/3i"], ["-1/2-1/3i", "3"]], "party": 0}):
            assert dumps_canonical(doc) == as_json(doc)

    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS, st.text(max_size=3), st.integers(0, 3))
    def test_canonical_text_is_written_as_its_value(self, doc, key, depth):
        # text marked canonical stands for the value it was written from,
        # at every depth, in lists, tuples and dicts, beside other values
        marked = CanonicalText(dumps_canonical(doc)[:-1])
        assert dumps_canonical(marked) == dumps_canonical(doc)
        for level in range(depth):
            if level % 2:
                doc, marked = [1, doc, "x"], (1, marked, "x")
            else:
                doc, marked = {key: doc, key + "~": None}, SubDict({key: marked, key + "~": None})
        assert dumps_canonical(marked) == dumps_canonical(doc) == as_json(doc)

    def test_other_str_subclasses_are_written_as_strings(self):
        class Text(str):
            pass

        class Marked(CanonicalText):
            pass

        for text in ("[\n  1\n]", 'a "b"\n'):
            doc = {"a": [Text(text), Marked(text)], "b": Marked(text)}
            assert dumps_canonical(doc) == as_json(doc) == as_json({"a": [text, text], "b": text})
        assert dumps_canonical([CanonicalText("[\n  1\n]")]) == as_json([[1]])

    def test_unwritable_keys_and_values_raise_as_json_does(self):
        for doc in ({(1, 2): 0}, {"a": object()}):
            with pytest.raises(TypeError):
                as_json(doc)
            with pytest.raises(TypeError):
                dumps_canonical(doc)
