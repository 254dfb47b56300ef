import json
import random

import pytest

from antiprelie import documents as docs
from antiprelie.cohomology import cohomology_spaces
from antiprelie.deformation import TruncatedDeformation, TruncatedIsomorphism
from antiprelie.dendriform import AntiLDendriform
from antiprelie.extension import build_extension
from antiprelie.fields import QQ, PrimeField
from antiprelie.representation import regular_representation

from conftest import rand_matrix, rand_table
from test_cli_golden import _documents


def round_trip(doc):
    return docs.loads(docs.dumps(doc))


def test_algebra_round_trip(named_algebras):
    for name, alg in named_algebras.items():
        doc = docs.encode_algebra(alg)
        back = docs.decode_algebra(round_trip(doc))
        assert back.tensor == alg.table.tensor, name
        assert docs.encode_algebra(back) == doc, name


def test_prime_field_algebra_round_trip(f3_algebras):
    for name, table in f3_algebras.items():
        doc = docs.encode_algebra(table)
        assert doc["field"] == {"type": "prime", "p": 3}
        back = docs.decode_algebra(round_trip(doc))
        assert back.tensor == table.tensor, name


def test_scalar_strings_in_documents(named_algebras):
    doc = docs.encode_algebra(named_algebras["a2"])
    flat = [x for plane in doc["mult"] for fiber in plane for x in fiber]
    assert all(isinstance(x, str) for x in flat)
    assert "1" in flat


def test_representation_round_trip(corpus_pairs):
    for name, alg, rep in corpus_pairs[:6]:
        doc = docs.encode_representation(rep)
        back = docs.decode_representation(round_trip(doc))
        assert back == rep, name


def test_cochain2_round_trip(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    for c in cohomology_spaces(a2, reg).h2_representatives:
        doc = docs.encode_cochain2(c)
        assert docs.decode_cochain2(round_trip(doc)).tensor == c.tensor


def test_dendriform_and_operator_round_trip(named_algebras):
    rng = random.Random(3)
    d = AntiLDendriform(rand_table(rng, 2), rand_table(rng, 2))
    assert docs.decode_dendriform(round_trip(docs.encode_dendriform(d))).right.tensor == d.right.tensor
    t = rand_matrix(rng, 2, 2)
    assert docs.decode_o_operator(round_trip(docs.encode_o_operator(t))) == t
    b = rand_matrix(rng, 2, 2)
    assert docs.decode_bilinear_form(round_trip(docs.encode_bilinear_form(b))) == b


def test_deformation_and_isomorphism_round_trip(named_algebras):
    rng = random.Random(5)
    a2 = named_algebras["a2"]
    d = TruncatedDeformation.trivial(a2, 2)
    doc = docs.encode_deformation(d)
    back = docs.decode_deformation(round_trip(doc))
    assert back.base.table.tensor == a2.table.tensor
    assert back.order == 2
    iso = TruncatedIsomorphism(tuple(rand_matrix(rng, 2, 2) for _ in range(2)))
    doc = docs.encode_isomorphism(iso, QQ)
    assert docs.decode_isomorphism(round_trip(doc)).phis == iso.phis


def test_extension_round_trip(named_algebras):
    a2 = named_algebras["a2"]
    reg = regular_representation(a2)
    theta = cohomology_spaces(a2, reg).h2_representatives[0]
    ext = build_extension(a2, reg, theta)
    doc = docs.encode_extension(ext)
    back = docs.decode_extension(round_trip(doc))
    assert back.total.table.tensor == ext.total.table.tensor
    assert back.iota == ext.iota and back.proj == ext.proj


def test_dumps_is_deterministic(named_algebras):
    doc = docs.encode_algebra(named_algebras["a2"])
    assert docs.dumps(doc) == docs.dumps(dict(reversed(list(doc.items()))))


def test_kind_mismatch_rejected(named_algebras):
    doc = docs.encode_algebra(named_algebras["a2"])
    with pytest.raises(docs.DocumentError):
        docs.decode_representation(doc)


def test_missing_field_rejected():
    with pytest.raises(docs.DocumentError):
        docs.decode_algebra({"kind": "anti-pre-lie", "dim": 1, "mult": [[["0"]]]})


def test_bad_scalars_rejected():
    doc = {"kind": "anti-pre-lie", "field": {"type": "rational"}, "dim": 1, "mult": [[["x"]]]}
    with pytest.raises(docs.DocumentError):
        docs.decode_algebra(doc)


def test_wrong_shape_rejected():
    doc = {"kind": "anti-pre-lie", "field": {"type": "rational"}, "dim": 2, "mult": [[["0"]]]}
    with pytest.raises(docs.DocumentError):
        docs.decode_algebra(doc)


def test_field_mismatch_detection():
    with pytest.raises(docs.DocumentError):
        docs.require_same_field(QQ, PrimeField(3))
    assert docs.require_same_field(QQ, QQ) == QQ


def test_non_object_document_rejected():
    with pytest.raises(docs.DocumentError):
        docs.loads("[1, 2]")
    with pytest.raises(docs.DocumentError):
        docs.loads("not json")


def test_editing_one_place_of_an_encoded_cochain_changes_no_other(named_algebras):
    """A cochain built from sparse data shares its zero fiber and zero plane;
    its document gives every place a list of its own."""
    a2 = named_algebras["a2"]
    spaces = cohomology_spaces(a2, regular_representation(a2))
    for c in spaces.z2_basis + spaces.b2_basis + spaces.h2_representatives:
        doc = docs.encode_cochain2(c)
        before = docs.encode_cochain2(c)
        values = doc["values"]
        places = [(i, j) for i in range(c.dim_a) for j in range(c.dim_a)]
        assert len({id(values[i][j]) for i, j in places}) == len(places)
        assert len({id(plane) for plane in values}) == len(values)
        for i, j in places:
            values[i][j].append("edited")
            expected = [[list(fiber) for fiber in plane] for plane in before["values"]]
            expected[i][j].append("edited")
            assert values == expected
            values[i][j].pop()
        assert doc == before == docs.encode_cochain2(c)


def test_dumps_is_the_canonical_json_of_the_golden_documents(named_algebras, abar2_table, f3_algebras):
    """dumps writes what json.dumps with sorted keys and the package's
    separators writes, on every document the golden cases read and on the
    cohomology output of a2 over its regular representation."""
    documents = _documents(named_algebras, abar2_table, f3_algebras)
    a2 = named_algebras["a2"]
    spaces = cohomology_spaces(a2, regular_representation(a2))
    documents["cohomology"] = {"z2_basis": [docs.encode_cochain2(c) for c in spaces.z2_basis],
                               "h2_representatives": [docs.encode_cochain2(c)
                                                      for c in spaces.h2_representatives]}
    for name, doc in documents.items():
        expected = json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"
        assert docs.dumps(doc) == expected, name
