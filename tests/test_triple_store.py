"""The store's counting queries against brute-force references, the bulk-built
store against the quad-by-quad reference store on every query, and its
statement files against a per-line `json.dumps` writer."""
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from bilayer import triple_store
from bilayer.triple_store import (
    UNKNOWN,
    ConflictError,
    StoreError,
    TripleStore,
    is_known,
    write_jsonl,
    write_statements,
)
from bilayer.vocab import Vocabulary
from bilayer.world import WorldConfig, gen_world

from util import (
    ReferenceStore,
    brute_expected_truth,
    brute_label_conditional,
    closed_records,
    closure_of,
    random_closures,
    random_records,
    read_jsonl,
    reference_ingest,
    reference_jsonl,
    small_vocab,
    store_from_records,
)


@pytest.fixture()
def vocab():
    return small_vocab(n_entities=5, n_instances=4)


def ids(vocab, *names):
    return tuple(vocab.id_of(n) for n in names)


def _add(store, quad) -> None:
    """One true statement into the store or the reference."""
    if isinstance(store, ReferenceStore):
        store.add_observation(*quad, True)
    else:
        store.add_observations([quad])


def _close(store, t, members, families=None, predicates=None) -> None:
    """One closure into the store or the reference."""
    if isinstance(store, ReferenceStore):
        store.lcwa_expand(t, members, families, predicates)
    else:
        store.close_instances([closure_of(store.vocab, t, members, families, predicates)])


class TestIngestion:
    def test_truth_of_three_values(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p = vocab.id_of("near")
        store = TripleStore(vocab)
        store.add_observations([(s, p, o, t)])
        assert store.truth_of(s, p, o, t) is True
        assert store.truth_of(o, p, s, t) is UNKNOWN
        assert not is_known(store.truth_of(o, p, s, t))

    def test_conflicting_assertion_rejected(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p = vocab.id_of("near")
        store = TripleStore(vocab)
        store.close_instances([closure_of(vocab, t, [s, o])])
        with pytest.raises(ConflictError):
            store.add_observations([(s, p, o, t)])
        assert store.truth_of(s, p, o, t) is False
        assert store.total_statements() == 0

    def test_duplicate_rejected(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p = vocab.id_of("near")
        store = TripleStore(vocab)
        store.add_observations([(s, p, o, t)])
        with pytest.raises(StoreError, match="duplicate observation"):
            store.add_observations([(s, p, o, t)])
        assert store.total_statements() == 1

    def test_statement_counts_are_per_instance(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        store = TripleStore(vocab)
        store.add_observations([(s, vocab.id_of("near"), o, t)])
        assert store.n_statements(t) == 1
        for name in ("e0", "Dog", "near"):
            with pytest.raises(StoreError, match=f"'{name}' is not an instance"):
                store.n_statements(vocab.id_of(name))

    def test_kind_checking(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p, ha = vocab.id_of("near"), vocab.has_attribute
        dog = vocab.id_of("Dog")
        store = TripleStore(vocab)
        with pytest.raises(StoreError):
            store.add_observations([(dog, p, o, t)])  # class subject
        with pytest.raises(StoreError):
            store.add_observations([(s, p, dog, t)])  # class object on binary
        with pytest.raises(StoreError):
            store.add_observations([(s, ha, o, t)])  # entity object on unary
        with pytest.raises(StoreError):
            store.add_observations([(s, p, o, s)])  # entity as instance

    def test_lcwa_expansion(self, vocab):
        ha = vocab.has_attribute
        s, o, t = ids(vocab, "e0", "e1", "t0")
        near, chases = ids(vocab, "near", "chases")
        dog = vocab.id_of("Dog")
        store = TripleStore(vocab)
        store.add_observations([(s, ha, dog, t), (s, near, o, t)])
        store.close_instances([closure_of(vocab, t, [s, o])])
        # per entity: every family member not asserted goes false
        n_implied = 2 * len(vocab.labels) + 2 * len(vocab.binary_predicates) - 2
        assert store.total_statements(False) == n_implied
        assert store.truth_of(s, ha, vocab.id_of("Cat"), t) is False
        assert store.truth_of(s, ha, dog, t) is True  # untouched
        assert store.truth_of(o, chases, s, t) is False
        # closing twice implies nothing new
        store.close_instances([closure_of(vocab, t, [s, o])])
        assert store.total_statements(False) == n_implied


class TestPositiveArray:
    def test_rows_follow_iter_positive_and_track_new_positives(self, vocab):
        rng = np.random.default_rng(7)
        records = random_records(vocab, rng, n_true=30)
        store = store_from_records(vocab, records[:20])
        first = store.positive_array()
        assert first.tolist() == [list(q) for q in store.iter_positive()]
        assert not first.flags.writeable
        assert store.positive_array() is first  # nothing added: the same array
        for s, p, o, t, _ in records[20:]:
            store.add_observations([(s, p, o, t)])
        assert store.positive_array().tolist() == [list(q) for q in store.iter_positive()]
        assert len(store.positive_array()) == 30


class TestCountingOracles:
    """The exact semantics the network can only approximate, proven against
    independent nested-loop enumeration in exact rational arithmetic."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_store_matches_brute_force(self, vocab, seed):
        rng = np.random.default_rng(seed)
        positives, closures = random_records(vocab, rng, n_true=30), random_closures(vocab, rng, 2)
        store = store_from_records(vocab, positives, closures)
        records = closed_records(vocab, positives, closures)[1]
        for s, p, o, _, _ in records:
            frac = brute_expected_truth(records, s, p, o)
            value = store.expected_truth(s, p, o)
            assert abs(value - float(frac)) <= 1e-12
        # well-typed triples no record holds
        ha, held = vocab.has_attribute, {r[:3] for r in records}
        unseen = [(s, ha, c) for s in vocab.entities for c in vocab.labels]
        unseen += [(s, p, o) for s in vocab.entities for o in vocab.entities if o != s
                   for p in vocab.binary_predicates]
        unseen = [triple for triple in unseen if triple not in held]
        assert unseen
        for triple in unseen:
            assert brute_expected_truth(records, *triple) is None
            assert store.expected_truth(*triple) is UNKNOWN

    def test_expected_truth_unknown_when_never_observed(self, vocab):
        store = TripleStore(vocab)
        s, o = ids(vocab, "e0", "e1")
        assert store.expected_truth(s, vocab.id_of("near"), o) is UNKNOWN

    @pytest.mark.parametrize("seed", range(3))
    def test_label_conditional_matches_brute_force(self, vocab, seed):
        rng = np.random.default_rng(100 + seed)
        ha = vocab.has_attribute
        positives, closures = random_records(vocab, rng, n_true=40), random_closures(vocab, rng, 3)
        store = store_from_records(vocab, positives, closures)
        records = closed_records(vocab, positives, closures)[1]
        for c1 in vocab.labels:
            for c2 in vocab.labels:
                expect = brute_label_conditional(records, ha, c1, c2)
                if not any(
                    (p, o) == (ha, c1) and y for _, p, o, _, y in records
                ):
                    with pytest.raises(StoreError):
                        store.label_conditional(c1, c2)
                    continue
                got = store.label_conditional(c1, c2)
                if expect is None:
                    assert got is UNKNOWN
                else:
                    assert 0.0 <= got <= 1.0
                    assert abs(got - float(expect)) <= 1e-12

    def test_label_conditional_certain_rule(self, vocab):
        # every Dog site also asserts Mammal: the conditional is exactly 1
        ha = vocab.has_attribute
        dog, mammal = ids(vocab, "Dog", "Mammal")
        store = TripleStore(vocab)
        for i, t in enumerate(vocab.instances):
            s = vocab.entities[i % len(vocab.entities)]
            store.add_observations([(s, ha, dog, t), (s, ha, mammal, t)])
        assert store.label_conditional(dog, mammal) == 1.0


class TestInterchange:
    def test_jsonl_round_trip(self, vocab):
        # the positives read back and closed alike give the same statements
        rng = np.random.default_rng(11)
        records, closures = random_records(vocab, rng, n_true=20), random_closures(vocab, rng, 1)
        store = store_from_records(vocab, records, closures)
        buf = io.StringIO()
        assert write_jsonl(store, buf) == 20
        rebuilt = TripleStore(vocab)
        buf.seek(0)
        assert read_jsonl(rebuilt, buf) == 20
        rebuilt.close_instances([closure_of(vocab, *c) for c in closures])
        assert set(rebuilt.iter_positive()) == set(store.iter_positive())
        ref = closed_records(vocab, records, closures)[0]
        assert set(rebuilt.iter_negative()) == set(ref.iter_negative()) != set()

    def test_output_independent_of_registration_order(self):
        # same statements through vocabularies that list each kind in a
        # different order serialize to identical bytes
        v1 = small_vocab()
        v2 = Vocabulary.from_dict({
            "entities": [f"e{i}" for i in reversed(range(4))],
            "instances": [f"t{i}" for i in reversed(range(3))],
            "classes": ["Mammal", "Cat", "Dog"], "attributes": ["Old", "Young"],
            "predicates": ["chases", "near"],
            "families": {"Species": ["Dog", "Cat"], "Rank": ["Mammal"], "Age": ["Young", "Old"]},
        })

        outs = []
        for v in (v1, v2):
            store = TripleStore(v)
            for quad in ((v.id_of("e1"), v.id_of("near"), v.id_of("e0"), v.id_of("t1")),
                         (v.id_of("e0"), v.has_attribute, v.id_of("Dog"), v.id_of("t0")),
                         (v.id_of("e2"), v.id_of("chases"), v.id_of("e1"), v.id_of("t0"))):
                store.add_observations([quad])
            buf = io.StringIO()
            write_jsonl(store, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_generated_world_matches_reference(self, tiny_store, monkeypatch):
        # chunks of 7 lines, so the file takes many writes; the negatives are
        # compared with the reference's in TestAgainstReference.test_tiny_world
        monkeypatch.setattr(triple_store, "WRITE_CHUNK", 7)
        buf = io.StringIO()
        n = write_jsonl(tiny_store, buf)
        want = reference_jsonl(tiny_store, True)
        assert n == want.count("\n")
        assert buf.getvalue() == want

    def test_names_that_need_escaping_match_reference(self, monkeypatch):
        # registered out of name order; quote, backslash, control character,
        # non-ASCII text, U+2028 and a character outside the BMP
        monkeypatch.setattr(triple_store, "WRITE_CHUNK", 5)
        v = Vocabulary.from_dict({
            "instances": ['t"2', "t\\1", "t\x010"],
            "entities": ["zoë", 'e"q', "e\\b", "e\u2028ls", "e\tx", "ä", "e😀"],
            "predicates": ["Ünder", "near\u2029", "chasés"],
            "classes": ["Dög"], "attributes": ["Old\x7f"], "families": {"Kind": ["Dög", "Old\x7f"]},
        })
        rng = np.random.default_rng(5)
        records, closures = random_records(v, rng, 30), random_closures(v, rng, 3)
        store = store_from_records(v, records, closures)
        buf = io.StringIO()
        n = write_jsonl(store, buf)
        ref = closed_records(v, records, closures)[0]
        assert n == ref.total_statements(True) > 0
        assert buf.getvalue() == reference_jsonl(store, True)
        assert buf.getvalue().isascii()
        assert set(store.iter_negative()) == set(ref.iter_negative()) != set()

    def test_empty_store_writes_nothing(self, vocab):
        buf = io.StringIO()
        assert write_jsonl(TripleStore(vocab), buf) == 0
        assert buf.getvalue() == ""

    def test_statements_keep_their_order_and_end_with_provenance(self, vocab):
        e0, e1, near, t1, t0 = ids(vocab, "e0", "e1", "near", "t1", "t0")
        quads = [(e1, near, e0, t1), (e0, vocab.has_attribute, vocab.id_of("Dog"), t0)]
        buf = io.StringIO()
        assert write_statements(buf, vocab, quads, provenance="ssl") == 2
        want = "".join(
            json.dumps({"s": s, "p": p, "o": o, "t": t, "y": 1, "provenance": "ssl"},
                       separators=(", ", ": ")) + "\n"
            for s, p, o, t in (("e1", "near", "e0", "t1"), ("e0", "hasAttribute", "Dog", "t0"))
        )
        assert buf.getvalue() == want
        empty = io.StringIO()
        assert write_statements(empty, vocab, []) == 0
        assert empty.getvalue() == ""


# -- the bulk-built store against the quad-by-quad reference ------------------------


def _sample_unknowns(vocab, known: set, rng, n: int) -> list:
    """Well-typed quads the store never saw, plus quads with ids of any kind."""
    entities, instances = list(vocab.entities), list(vocab.instances)
    labels, preds = list(vocab.labels), list(vocab.binary_predicates)
    ha = vocab.has_attribute
    out = []
    while len(out) < n:
        s = entities[int(rng.integers(len(entities)))]
        t = instances[int(rng.integers(len(instances)))]
        if rng.random() < 0.5:
            quad = (s, ha, labels[int(rng.integers(len(labels)))], t)
        else:
            quad = (s, preds[int(rng.integers(len(preds)))],
                    entities[int(rng.integers(len(entities)))], t)
        if quad not in known:
            out.append(quad)
    out += [tuple(int(i) for i in rng.integers(len(vocab), size=4)) for _ in range(n)]
    return out


def _same_outcome(fn_a, fn_b):
    """Both calls return the same value (compared by identity for UNKNOWN and
    bools), or both raise the same exception type with the same message."""
    results = []
    for fn in (fn_a, fn_b):
        try:
            results.append(("value", fn()))
        except StoreError as exc:
            results.append(("error", type(exc), str(exc)))
    (kind_a, *a), (kind_b, *b) = results
    assert kind_a == kind_b, results
    if kind_a == "value" and (a[0] is UNKNOWN or isinstance(a[0], bool)):
        assert a[0] is b[0], results
    else:
        assert a == b, results


def assert_matches_reference(store, ref, rng, n_unknown=200):
    v = store.vocab
    assert list(store.iter_positive()) == list(ref.iter_positive())
    assert list(store.iter_negative()) == list(ref.iter_negative())
    np.testing.assert_array_equal(store.positive_array(), ref.positive_array())
    assert store.positive_array().dtype == np.int64
    for truth in (True, False):
        assert store.total_statements(truth) == ref.total_statements(truth)
    assert store.observed_instances() == ref.observed_instances()
    for t in v.instances:
        assert store.n_statements(t) == ref.n_statements(t)
        assert store.positives_at(t) == ref.positives_at(t)

    known = ref._positive | ref._negative
    for quad in list(known) + _sample_unknowns(v, known, rng, n_unknown):
        assert store.truth_of(*quad) is ref.truth_of(*quad), quad
    for c1 in v.labels:
        for c2 in v.labels:
            _same_outcome(lambda: store.label_conditional(c1, c2),
                          lambda: ref.label_conditional(c1, c2))
    triples = sorted({q[:3] for q in known}) + [q[:3] for q in _sample_unknowns(v, known, rng, 20)]
    for triple in triples:
        _same_outcome(lambda: store.expected_truth(*triple), lambda: ref.expected_truth(*triple))


def _ssl_style_adds(stores, vocab, rng, tag: str) -> None:
    """What SSL does to a live store, done to each of `stores`: register a new
    instance and a new entity, then add single statements about them at the
    new instance, asking `truth_of` first; then close the new instance and an
    old one."""
    t = vocab.add_instance(f"{tag}.scene")
    novel = vocab.add_entity(f"{tag}.novel")
    old = list(vocab.entities)[:3]
    ha = vocab.has_attribute
    preds = list(vocab.binary_predicates)
    quads = []
    for fam, members in sorted(vocab.families.items()):
        if fam != "Identity":
            quads += [(e, ha, members[int(rng.integers(len(members)))], t) for e in (novel, old[0])]
    quads += [(s, preds[int(rng.integers(len(preds)))], o, t)
              for s, o in ((novel, old[0]), (old[1], novel), (old[0], old[2]))]
    for quad in quads:
        answers = {store.truth_of(*quad) for store in stores}
        assert len(answers) == 1
        if answers == {UNKNOWN}:
            for store in stores:
                _add(store, quad)
    for store in stores:
        _close(store, t, [novel] + old)
        _close(store, list(vocab.instances)[0], old[:2])


class TestAgainstReference:
    """Every query of the bulk-built store against the quad-by-quad store."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_records(self, seed):
        vocab = small_vocab(n_entities=5, n_instances=4)
        rng = np.random.default_rng(seed)
        records, closures = random_records(vocab, rng, n_true=40), random_closures(vocab, rng, 3)
        store = TripleStore(vocab)
        store.add_observations([r[:4] for r in records])
        store.close_instances([closure_of(vocab, *c) for c in closures])
        ref = closed_records(vocab, records, closures)[0]
        assert_matches_reference(store, ref, rng)
        single = store_from_records(vocab, records, closures)
        assert_matches_reference(single, ref, rng)
        for t in vocab.instances[:2]:
            members = vocab.entities[:3]
            _close(store, t, members)
            ref.lcwa_expand(t, members)
        assert_matches_reference(store, ref, rng)

    def test_tiny_world(self, tiny_world, tiny_store):
        assert_matches_reference(tiny_store, reference_ingest(tiny_world), np.random.default_rng(1))

    def test_default_world(self):
        world = gen_world(WorldConfig(seed=5, unlabeled_fraction=0.1))
        assert_matches_reference(world.build_store(), reference_ingest(world),
                                 np.random.default_rng(2), n_unknown=2000)

    @pytest.mark.parametrize("query_first", [True, False])
    def test_ssl_style_single_adds(self, query_first):
        # a world of its own: the vocabulary grows
        world = gen_world(WorldConfig(n_entities=30, n_scenes=8, n_test_entities=3,
                                      n_test_scenes=1, zero_shot_per_combo=1, seed=8))
        store, ref = world.build_store(), reference_ingest(world)
        rng = np.random.default_rng(3)
        if query_first:  # every derived index exists before the adds
            assert_matches_reference(store, ref, rng, n_unknown=20)
        for tag in ("u0", "u1"):
            _ssl_style_adds([store, ref], world.vocab, rng, tag)
            assert_matches_reference(store, ref, rng, n_unknown=20)

    def test_closures_over_known_statements_match_the_reference(self, vocab):
        rng = np.random.default_rng(9)
        records, closures = random_records(vocab, rng, n_true=25), random_closures(vocab, rng, 1)
        store = store_from_records(vocab, records, closures)
        ref = closed_records(vocab, records, closures)[0]
        e0, e1, e2, t1 = ids(vocab, "e0", "e1", "e2", "t1")
        members = [e2, e0, e2, e1]  # a repeated member counts once
        near = vocab.id_of("near")
        for families, preds in ((None, None), (["Age", "Species"], None), ([], [near])):
            _close(store, t1, members, families, preds)
            ref.lcwa_expand(t1, members, families, preds)
            assert list(store.iter_negative()) == list(ref.iter_negative())
        assert_matches_reference(store, ref, rng)

    def test_close_instances_is_one_lcwa_expand_per_instance(self, tiny_world):
        v = tiny_world.vocab
        scenes = tiny_world.scenes_of_kind("train")[:3]
        labels = list(v.labels)
        closures = [(v.id_of(s.name), [v.id_of(m) for m in s.members], labels,
                     list(v.binary_predicates)) for s in scenes]
        bulk, ref = TripleStore(v), ReferenceStore(v)
        assert bulk.close_instances(closures) is None
        for t, members, _, preds in closures:
            ref.lcwa_expand(t, members, None, preds)
        assert list(bulk.iter_negative()) == list(ref.iter_negative())
        assert bulk.total_statements(False) == ref.total_statements(False)


class TestClosureRule:
    """Implied negatives are answered by a rule over closure records; the
    reference store materializes every one, and the two agree."""

    def test_positive_inside_a_closure_conflicts(self, vocab):
        e0, e1, t0, t1, cat = ids(vocab, "e0", "e1", "t0", "t1", "Cat")
        near, ha = vocab.id_of("near"), vocab.has_attribute
        for quad, names in (((e0, ha, cat, t0), "e0, hasAttribute, Cat"), ((e1, near, e0, t0), "e1, near, e0")):
            errors = []
            for make in (TripleStore, ReferenceStore):
                store = make(vocab)
                _close(store, t0, [e0, e1])
                with pytest.raises(ConflictError) as info:
                    _add(store, quad)
                errors.append(str(info.value))
            bulk = TripleStore(vocab)
            bulk.close_instances([(t0, [e0, e1], list(vocab.labels), list(vocab.binary_predicates))])
            with pytest.raises(ConflictError) as info:
                bulk.add_observations([(e0, near, e1, t1), quad])
            errors.append(str(info.value))
            assert errors == [f"({names}) at t0 already asserted with truth=False"] * 3
            assert bulk.total_statements() == 0  # the refused batch added nothing

    @pytest.mark.parametrize("bulk", [False, True])
    def test_one_instance_closed_twice(self, vocab, bulk):
        e0, e1, e2, e3, t0 = ids(vocab, "e0", "e1", "e2", "e3", "t0")
        dog, cat, young = ids(vocab, "Dog", "Cat", "Young")
        near, chases, ha = vocab.id_of("near"), vocab.id_of("chases"), vocab.has_attribute
        store, ref = TripleStore(vocab), ReferenceStore(vocab)
        for s in (store, ref):
            _add(s, (e0, ha, dog, t0))
            _add(s, (e0, near, e1, t0))
        closures = [([e0, e1], ["Species"], [near]), ([e1, e2, e3], ["Age"], [chases])]
        for members, fams, preds in closures:
            ref.lcwa_expand(t0, members, fams, preds)
            if not bulk:
                _close(store, t0, members, fams, preds)
        if bulk:
            store.close_instances([
                (t0, members, [c for f in fams for c in vocab.family_members(f)], preds)
                for members, fams, preds in closures
            ])
        # the union of the members crossed with the union of the labels and
        # predicates is not implied
        assert store.truth_of(e0, ha, young, t0) is UNKNOWN
        assert store.truth_of(e2, ha, cat, t0) is UNKNOWN
        assert store.truth_of(e0, chases, e2, t0) is UNKNOWN
        assert store.truth_of(e1, near, e2, t0) is UNKNOWN
        assert store.truth_of(e1, ha, cat, t0) is False
        assert store.truth_of(e3, chases, e1, t0) is False
        assert_matches_reference(store, ref, np.random.default_rng(4))

    def test_truth_outside_the_closure(self, vocab):
        e0, e1, e2, t0, t1 = ids(vocab, "e0", "e1", "e2", "t0", "t1")
        cat, young = ids(vocab, "Cat", "Young")
        near, chases, ha = vocab.id_of("near"), vocab.id_of("chases"), vocab.has_attribute
        store, ref = TripleStore(vocab), ReferenceStore(vocab)
        for s in (store, ref):
            _close(s, t0, [e0, e1], ["Species"], [near])
        cases = [
            ((e0, ha, cat, t0), False),
            ((e1, near, e0, t0), False),
            ((e2, ha, cat, t0), UNKNOWN),  # subject outside the closure
            ((e2, near, e0, t0), UNKNOWN),
            ((e0, near, e2, t0), UNKNOWN),  # object outside the closure
            ((e0, near, e0, t0), UNKNOWN),  # o == s
            ((e0, chases, e1, t0), UNKNOWN),  # predicate outside the closure
            ((e0, ha, young, t0), UNKNOWN),  # label outside the closure
            ((e0, near, e1, t1), UNKNOWN),  # another instance
        ]
        for quad, want in cases:
            assert store.truth_of(*quad) is want, quad
            assert ref.truth_of(*quad) is want, quad

    def test_closure_labels_and_predicates_are_checked(self, vocab):
        e0, e1, t0, dog = ids(vocab, "e0", "e1", "t0", "Dog")
        near, ha = vocab.id_of("near"), vocab.has_attribute
        store = TripleStore(vocab)
        for closure, message in (
            ((t0, [e0, e1], [e1], [near]), "'e1' cannot be the object of 'hasAttribute'"),
            ((t0, [e0, e1], [dog], [ha]), "'hasAttribute' is not a binary predicate"),
            ((t0, [e0, e1], [dog], [dog]), "'Dog' is not a binary predicate"),
            ((t0, [e0, e1], [dog], [len(vocab)]), f"id {len(vocab)} is not in the vocabulary"),
        ):
            with pytest.raises(StoreError, match=re.escape(message)):
                store.close_instances([(t0, [e0], [dog], [near]), closure])
        assert store.observed_instances() == () and store.total_statements(False) == 0


class TestBulkChecks:
    """A batch is refused at its first bad row, with the message one-row adds
    give, and a refused batch adds nothing."""

    def _cases(self, vocab):
        e0, e1, t0, dog = ids(vocab, "e0", "e1", "t0", "Dog")
        near, ha = vocab.id_of("near"), vocab.has_attribute
        good = [(e0, near, e1, t0), (e1, ha, dog, t0)]
        return {
            "class subject": good + [(dog, near, e1, t0)],
            "entity instance": good + [(e0, near, e1, e1)],
            "entity object on unary": good + [(e0, ha, e1, t0)],
            "class object on binary": good + [(e0, near, dog, t0)],
            "unknown id": good + [(e0, near, e1, len(vocab) + 3)],
            "negative id": good + [(e0, near, -1, t0)],
            "duplicate in batch": good + [(e1, ha, dog, t0)],
        }

    @pytest.mark.parametrize("case", [
        "class subject", "entity instance", "entity object on unary", "class object on binary",
        "unknown id", "negative id", "duplicate in batch",
    ])
    def test_same_error_as_single_and_reference(self, vocab, case):
        rows = self._cases(vocab)[case]
        errors = []
        for make in (TripleStore, ReferenceStore):
            store = make(vocab)
            with pytest.raises(StoreError) as info:
                for quad in rows:
                    _add(store, quad)
            errors.append((info.type, str(info.value)))
        bulk = TripleStore(vocab)
        with pytest.raises(StoreError) as info:
            bulk.add_observations(rows)
        errors.append((info.type, str(info.value)))
        assert errors[0] == errors[1] == errors[2]
        assert bulk.total_statements(True) == bulk.total_statements(False) == 0

    def test_conflict_and_duplicate_against_the_store(self, vocab):
        e0, e1, e2, t0, t1 = ids(vocab, "e0", "e1", "e2", "t0", "t1")
        near = vocab.id_of("near")
        store, ref = TripleStore(vocab), ReferenceStore(vocab)
        for s in (store, ref):
            _add(s, (e0, near, e1, t0))
            _close(s, t1, [e0, e1], [], [near])
        batch = [(e1, near, e2, t0), (e0, near, e1, t1)]
        with pytest.raises(ConflictError) as bulk_error:
            store.add_observations(batch)
        with pytest.raises(ConflictError) as ref_error:
            for quad in batch:
                _add(ref, quad)
        assert str(bulk_error.value) == str(ref_error.value)
        assert str(bulk_error.value) == "(e0, near, e1) at t1 already asserted with truth=False"
        assert store.truth_of(e1, near, e2, t0) is UNKNOWN  # the refused batch added nothing
        batch[1] = (e0, near, e1, t0)
        with pytest.raises(StoreError, match=r"duplicate observation \(") as dup:
            store.add_observations(batch[::-1])
        assert str(dup.value) == f"duplicate observation {(e0, near, e1, t0)}"

    def test_first_bad_row_in_input_order(self, vocab):
        e0, e1, t0, t1, dog = ids(vocab, "e0", "e1", "t0", "t1", "Dog")
        near, ha = vocab.id_of("near"), vocab.has_attribute
        rows = [(e0, near, e1, t1), (e0, ha, dog, t0), (e0, near, e1, t1), (dog, near, e0, t0)]
        with pytest.raises(StoreError, match="duplicate"):
            TripleStore(vocab).add_observations(rows)
        with pytest.raises(StoreError, match="subject 'Dog'"):
            TripleStore(vocab).add_observations(rows[::-1])

    def test_closure_checks_match_reference(self, vocab):
        e0, e1, t0, dog = ids(vocab, "e0", "e1", "t0", "Dog")
        for args in ((t0, [e0, dog]), (e0, [e0, e1]), (t0, [e0, len(vocab)])):
            errors = []
            for store in (TripleStore(vocab), ReferenceStore(vocab)):
                with pytest.raises(StoreError) as info:
                    _close(store, *args)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
        store = TripleStore(vocab)
        with pytest.raises(StoreError, match="'Dog' is not an entity"):
            store.close_instances([(t0, [e0, e1], [], []), (t0, [dog], [], [])])
        assert store.total_statements(False) == 0


class TestBuildPath:
    def test_building_and_reading_arrays_builds_no_index(self, tiny_world):
        store = TripleStore(tiny_world.vocab)
        ref = reference_ingest(tiny_world)
        store.add_observations(list(ref.iter_positive()))
        store.positive_array()
        list(store.iter_negative())
        store.total_statements(False)
        write_jsonl(store, io.StringIO())
        assert (store._truth, store._counts, store._cooc) == (None,) * 3

    def test_queries_on_a_built_store_build_no_negative_rows(self):
        world = gen_world(WorldConfig(seed=5))
        tracemalloc.start()
        try:
            store = world.build_store()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * store.positive_array().nbytes
        v, ha = world.vocab, world.vocab.has_attribute
        answers = []
        for scene in world.scenes_of_kind("train", "background"):
            t = v.id_of(scene.name)
            members = [v.id_of(m) for m in scene.members]
            answers += [store.truth_of(e, ha, c, t) for e in members for c in v.labels]
            answers += [store.truth_of(s, p, o, t) for s in members for o in members
                        for p in v.binary_predicates]
        answers += [store.truth_of(*q) for q in _sample_unknowns(v, set(), np.random.default_rng(8), 500)]
        assert answers.count(False) > answers.count(True) > 0 and UNKNOWN in answers
        for c1 in v.labels:
            for c2 in v.labels:
                try:
                    store.label_conditional(c1, c2)
                except StoreError:
                    pass
        store.observed_instances()
        t = v.add_instance("fresh.scene")  # an SSL-style add checks against the store
        store.add_observations([(v.entities[0], ha, v.labels[0], t)])
        assert store.truth_of(v.entities[0], ha, v.labels[0], t) is True
        assert store._negatives is None

    def test_observed_instances_follow_adds_and_closes(self, vocab):
        e0, e1, t0, t1, t2 = (vocab.id_of(n) for n in ("e0", "e1", "t0", "t1", "t2"))
        ha, dog = vocab.has_attribute, vocab.id_of("Dog")
        store = TripleStore(vocab)
        store.add_observations([(e0, ha, dog, t0)])
        assert store.observed_instances() == (t0,)
        store.add_observations([(e1, ha, dog, t1)])
        assert store.observed_instances() == (t0, t1)
        store.close_instances([(t2, [e0], [dog], [])])
        assert store.observed_instances() == (t0, t1, t2)

    def test_first_negative_scan_holds_little_beyond_its_rows(self):
        store = gen_world(WorldConfig(seed=5)).build_store()
        tracemalloc.start()
        try:
            store.iter_negative()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = store._negatives
        assert len(rows) > store.total_statements()  # negatives are most of the statements
        assert peak <= 2.5 * rows.nbytes

    def test_pack_orders_rows_past_int64(self):
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 3, 500) * (2 ** 40) + rng.integers(0, 2, 500) for _ in range(4)]
        key = triple_store._pack(cols)
        want = np.lexsort(cols[::-1])
        np.testing.assert_array_equal(np.sort(key), key[want])
        assert len(np.unique(key)) == len({tuple(r) for r in np.stack(cols, 1).tolist()})
