import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nwe import DocumentError, gen_equal, gen_general, load_state_set, save_state_set
from nwe.serialize import dumps_canonical, state_set_from_document, state_set_to_document


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

    def test_unwritable_keys_and_values_raise_as_json_does(self):
        for doc in ({(1, 2): 0}, {"a": object()}):
            with pytest.raises(TypeError):
                as_json(doc)
            with pytest.raises(TypeError):
                dumps_canonical(doc)
