import hashlib
import json

import numpy as np
import pytest

from bilayer.vocab import IDENTITY_FAMILY, Kind, VocabError, Vocabulary

from util import small_vocab


def test_has_attribute_preregistered():
    v = Vocabulary()
    assert v.name_of(v.has_attribute) == "hasAttribute"
    assert v.kind_of(v.has_attribute) is Kind.PREDICATE
    assert v.has_attribute not in v.binary_predicates


def test_registration_and_lookup():
    v = Vocabulary()
    e = v.add_entity("sparky")
    c = v.add_class("Dog")
    a = v.add_attribute("Young")
    p = v.add_predicate("chases")
    t = v.add_instance("scene-1")
    assert v.id_of("sparky") == e
    assert [v.kind_of(i) for i in (e, c, a, p, t)] == [
        Kind.ENTITY, Kind.CLASS, Kind.ATTRIBUTE, Kind.PREDICATE, Kind.INSTANCE,
    ]
    assert "Dog" in v and "Cat" not in v
    assert len(v) == 6  # the five above plus hasAttribute


def test_ids_of_resolves_names_in_order_and_names_an_unknown_one():
    v = Vocabulary()
    a, b = v.add_entity("a"), v.add_class("B")
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


def test_duplicate_name_rejected_across_kinds():
    v = Vocabulary()
    v.add_entity("x")
    with pytest.raises(VocabError):
        v.add_class("x")


def test_empty_name_rejected():
    with pytest.raises(VocabError):
        Vocabulary().add_entity("")


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
        v = Vocabulary()
        a, b = v.add_entity("a"), v.add_entity("b")
        assert v.family_members(IDENTITY_FAMILY) == (a, b)
        assert v.family_of(a) == IDENTITY_FAMILY

    def test_identity_family_not_definable(self):
        v = small_vocab()
        with pytest.raises(VocabError):
            v.define_family(IDENTITY_FAMILY, ["Dog"])

    def test_member_in_two_families_rejected(self):
        v = small_vocab()
        with pytest.raises(VocabError):
            v.define_family("Species2", ["Dog"])

    def test_entity_member_rejected(self):
        v = small_vocab()
        v.add_class("Loner")
        with pytest.raises(VocabError):
            v.define_family("Bad", ["e0"])

    def test_empty_family_rejected(self):
        v = small_vocab()
        with pytest.raises(VocabError):
            v.define_family("Empty", [])

    def test_validate_passes_on_wellformed(self):
        small_vocab().validate()


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
        v1 = Vocabulary()
        v1.add_entity("a")
        v1.add_class("C")
        v1.add_entity("b")
        v2 = Vocabulary()
        v2.add_entity("a")
        v2.add_entity("b")
        v2.add_class("C")
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
        c.add_class("Bird")
        c.add_entity("e9")
        c.add_instance("t9")
        c.define_family("Flies", ["Bird"])
        assert c != v
        assert v.to_dict() == before and v.digest() == digest == _fresh_digest(v)
        assert "e9" not in v and "Flies" not in v.families
        assert v.family_members(IDENTITY_FAMILY) == tuple(v.id_of(f"e{i}") for i in range(4))
        assert c.digest() == _fresh_digest(c) != digest

    @pytest.mark.parametrize("change", [
        lambda v: v.add_entity("e9"),
        lambda v: v.add_class("Bird"),
        lambda v: v.add_attribute("Shy"),
        lambda v: v.add_predicate("sees"),
        lambda v: v.add_instance("t9"),
        lambda v: (v.add_class("Bird"), v.digest(), v.define_family("Flies", ["Bird"])),
    ], ids=["entity", "class", "attribute", "predicate", "instance", "family"])
    def test_cached_digest_follows_every_change(self, change):
        v = small_vocab()
        stale = v.digest()
        change(v)
        assert v.digest() == _fresh_digest(v) != stale
