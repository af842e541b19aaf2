import hashlib
import json

import numpy as np
import pytest

from bilayer.vocab import IDENTITY_FAMILY, KIND_CODE, Kind, VocabError, Vocabulary

from util import small_vocab


def test_has_attribute_preregistered():
    v = Vocabulary()
    assert v.name_of(v.has_attribute) == "hasAttribute"
    assert v.kind_of(v.has_attribute) is Kind.PREDICATE
    assert v.has_attribute not in v.binary_predicates


def test_from_dict_numbers_each_kind_as_one_block():
    """hasAttribute is 0, then classes, attributes, predicates, entities and
    instances, each in its listed order, whatever the order of the keys."""
    v = Vocabulary.from_dict({
        "instances": ["scene-1"], "entities": ["sparky", "rex"], "predicates": ["chases"],
        "attributes": ["Young"], "classes": ["Dog", "Cat"], "families": {},
    })
    assert [v.name_of(i) for i in range(len(v))] == [
        "hasAttribute", "Dog", "Cat", "Young", "chases", "sparky", "rex", "scene-1"]
    assert [v.kind_of(i) for i in range(len(v))] == [
        Kind.PREDICATE, Kind.CLASS, Kind.CLASS, Kind.ATTRIBUTE, Kind.PREDICATE,
        Kind.ENTITY, Kind.ENTITY, Kind.INSTANCE,
    ]
    assert v.kind_codes().tolist() == [KIND_CODE[v.kind_of(i)] for i in range(len(v))]
    assert v.id_of("sparky") == 5 and "Dog" in v and "Bird" not in v
    assert v.add_entity("fido") == 8 and v.add_instance("scene-2") == 9
    assert v.kind_of(8) is Kind.ENTITY and v.kind_of(9) is Kind.INSTANCE


def test_ids_of_resolves_names_in_order_and_names_an_unknown_one():
    v = Vocabulary.from_dict({"classes": ["B"], "entities": ["a"]})
    a, b = v.id_of("a"), v.id_of("B")
    assert v.ids_of(["B", "a", "B"]).tolist() == [b, a, b]
    assert v.ids_of([]).dtype == np.int64 and v.ids_of([]).size == 0
    with pytest.raises(VocabError, match="unknown symbol 'c'"):
        v.ids_of(["a", "c"])
    with pytest.raises(VocabError, match=r"unknown symbol \['a'\]"):
        v.ids_of(["a", ["a"]])


def test_ids_are_dense_and_disjoint_across_kinds():
    v = small_vocab()
    all_ids = v.entities + v.classes + v.attributes + v.predicates + v.instances
    assert sorted(all_ids) == list(range(len(v)))


def test_growth_refuses_a_taken_or_empty_name():
    v = small_vocab()
    with pytest.raises(VocabError, match="duplicate symbol 'Dog'"):
        v.add_entity("Dog")
    with pytest.raises(VocabError, match="duplicate symbol 't0'"):
        v.add_instance("t0")
    with pytest.raises(VocabError, match="empty symbol name"):
        v.add_entity("")


def _doc(**edits) -> dict:
    doc = json.loads(small_vocab().dumps())
    for key, value in edits.items():
        doc[key] = value
    return doc


# one bad document per refusal, and the one line it is refused with; each
# names the first offending name in numbering order
REFUSALS = {
    "name under two kinds": (
        _doc(attributes=["Young", "e2", "Old"], instances=["t0", "Cat"]), "duplicate symbol 'e2'"),
    "name twice in one kind": (_doc(entities=["e0", "e1", "e0"]), "duplicate symbol 'e0'"),
    "empty name": (_doc(predicates=["near", "", "chases"], entities=["e0", "e0"]),
                   "empty symbol name"),
    "hasAttribute as an entity": (_doc(entities=["e0", "hasAttribute"]),
                                  "duplicate symbol 'hasAttribute'"),
    "family member that is an entity": (
        _doc(families={"Species": ["Dog", "e0", "near"]}),
        "family member 'e0' is not a class or attribute"),
    "name in two families": (
        _doc(families={"Species": ["Dog", "Cat"], "Pet": ["Young", "Cat", "Dog"]}),
        "'Cat' already belongs to 'Species'"),
    "member twice in one family": (
        _doc(families={"Species": ["Dog", "Cat"], "Age": ["Young", "Young", "Old"]}),
        "family 'Age' lists 'Young' twice"),
    "member twice, apart, in one family": (
        _doc(families={"Species": ["Dog", "Cat"], "Age": ["Old", "Young", "Old"]}),
        "family 'Age' lists 'Old' twice"),
    "unknown member": (_doc(families={"Species": ["Dog", "Wolf", "e0"]}),
                       "unknown symbol 'Wolf'"),
    "empty family": (_doc(families={"Species": ["Dog"], "Empty": [], "Rank": ["e0"]}),
                     "family 'Empty' has no members"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_from_dict_refusals(case):
    doc, message = REFUSALS[case]
    with pytest.raises(VocabError) as err:
        Vocabulary.from_dict(doc)
    assert str(err.value) == message


def test_unknown_lookups_raise():
    v = Vocabulary()
    with pytest.raises(VocabError):
        v.id_of("ghost")
    with pytest.raises(VocabError):
        v.family_members("ghost")


class TestFamilies:
    def test_membership_and_family_of(self):
        v = small_vocab()
        assert v.family_of(v.id_of("Dog")) == "Species"
        assert v.family_of(v.id_of("near")) is None
        assert set(v.family_members("Age")) == {v.id_of("Young"), v.id_of("Old")}

    def test_identity_family_tracks_entities(self):
        v = Vocabulary.from_dict({"entities": ["a"]})
        b = v.add_entity("b")
        assert v.family_members(IDENTITY_FAMILY) == (v.id_of("a"), b)
        assert v.family_of(b) == IDENTITY_FAMILY

    def test_a_listed_identity_family_is_ignored(self):
        v = Vocabulary.from_dict(_doc(families={"Species": ["Dog"], IDENTITY_FAMILY: ["Dog"]}))
        assert v.family_members(IDENTITY_FAMILY) == v.entities
        assert v.family_of(v.id_of("Dog")) == "Species"

    def test_family_codes_number_the_sorted_families(self):
        v = small_vocab()
        names = sorted(v.families)
        assert [v.family_code(f) for f in names] == list(range(len(names)))
        assert v.family_codes().tolist() == [
            -1 if v.family_of(i) is None else names.index(v.family_of(i)) for i in range(len(v))]
        with pytest.raises(VocabError, match="unknown family 'Color'"):
            v.family_code("Color")


class TestSerialization:
    def test_round_trip_preserves_everything(self):
        v = small_vocab()
        w = Vocabulary.from_dict(json.loads(v.dumps()))
        assert w.to_dict() == v.to_dict()
        assert len(w) == len(v)
        for i in range(len(v)):
            # grouped export reorders ids; names and kinds survive
            assert w.kind_of(w.id_of(v.name_of(i))) is v.kind_of(i)
        assert w.family_of(w.id_of("Dog")) == "Species"

    def test_digest_is_name_based(self):
        v1 = small_vocab()
        v2 = Vocabulary.from_dict(json.loads(v1.dumps()))
        assert v1.digest() == v2.digest()
        v2.add_entity("extra")
        assert v1.digest() != v2.digest()

    def test_digest_ignores_registration_interleaving(self):
        # two sessions registering the same names in a different interleaving
        # (but same order within each kind) agree on the digest
        v1, v2 = small_vocab(), small_vocab()
        v1.add_entity("a")
        v1.add_instance("u")
        v1.add_entity("b")
        v2.add_entity("a")
        v2.add_entity("b")
        v2.add_instance("u")
        assert v1.name_of(len(v1) - 1) != v2.name_of(len(v2) - 1)
        assert v1.digest() == v2.digest()

    def test_a_grown_vocabulary_extends_its_base(self):
        """Symbols added after the base's keep every column of the base; a
        base symbol out of its place, of another kind or in another family
        does not."""
        base = small_vocab()
        grown = Vocabulary.from_dict(json.loads(base.dumps()))
        grown.add_instance("u0")
        grown.add_entity("u0.0")
        assert grown.extends(base) and base.extends(base)
        assert not base.extends(grown)
        edits = (
            lambda doc: doc["entities"].reverse(),
            lambda doc: (doc["attributes"].remove("Old"), doc["classes"].append("Old")),
            lambda doc: doc["families"].update(Age=["Young"], Rank=["Mammal", "Old"]),
        )
        for edit in edits:
            doc = json.loads(base.dumps())
            edit(doc)
            assert not Vocabulary.from_dict(doc).extends(base), doc


def _fresh_digest(v: Vocabulary) -> str:
    return hashlib.sha256(json.dumps(v.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()


class TestCopyAndDigest:
    def test_copy_is_equal_and_independent(self):
        v = small_vocab()
        digest = v.digest()
        before = v.to_dict()
        c = v.copy()
        assert c == v and c.to_dict() == before and c.digest() == digest
        c.add_entity("e9")
        c.add_instance("t9")
        assert c != v
        assert v.to_dict() == before and v.digest() == digest == _fresh_digest(v)
        assert "e9" not in v and len(v.kind_codes()) == len(v.family_codes()) == len(v)
        assert v.family_members(IDENTITY_FAMILY) == tuple(v.id_of(f"e{i}") for i in range(4))
        assert c.digest() == _fresh_digest(c) != digest

    @pytest.mark.parametrize("change", [
        lambda v: v.add_entity("e9"),
        lambda v: v.add_instance("t9"),
        lambda v: (v.add_instance("t9"), v.digest(), v.kind_codes(), v.add_entity("e9")),
    ], ids=["entity", "instance", "both"])
    def test_cached_tables_follow_every_change(self, change):
        """The digest, the kind codes and the family codes are built once per
        state: each matches a fresh build after a change."""
        v = small_vocab()
        stale = v.digest(), v.kind_codes(), v.family_codes()
        change(v)
        fresh = Vocabulary.from_dict(v.to_dict())
        names = [v.name_of(i) for i in range(len(v))]
        assert v.digest() == _fresh_digest(v) != stale[0]
        assert v.kind_codes().tolist() == fresh.kind_codes()[fresh.ids_of(names)].tolist()
        assert v.family_codes().tolist() == fresh.family_codes()[fresh.ids_of(names)].tolist()
        assert len(stale[1]) == len(stale[2]) < len(v)
