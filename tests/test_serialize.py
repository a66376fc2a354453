import json

import pytest

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
