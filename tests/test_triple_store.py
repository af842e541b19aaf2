"""The store's incremental counting models against brute-force references,
and its statement files against a per-line `json.dumps` writer."""
import io
import json

import numpy as np
import pytest

from bilayer import triple_store
from bilayer.triple_store import (
    UNKNOWN,
    ConflictError,
    StoreError,
    TripleStore,
    is_known,
    read_jsonl,
    write_jsonl,
    write_statements,
)
from bilayer.vocab import Vocabulary

from util import (
    brute_expected_truth,
    brute_label_conditional,
    brute_observation_dist,
    brute_pooled_dist,
    random_records,
    reference_jsonl,
    small_vocab,
    store_from_records,
)


@pytest.fixture()
def vocab():
    return small_vocab(n_entities=5, n_instances=4)


def ids(vocab, *names):
    return tuple(vocab.id_of(n) for n in names)


class TestIngestion:
    def test_truth_of_three_values(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p = vocab.id_of("near")
        store = TripleStore(vocab)
        store.add_observation(s, p, o, t, True)
        assert store.truth_of(s, p, o, t) is True
        assert store.truth_of(o, p, s, t) is UNKNOWN
        assert not is_known(store.truth_of(o, p, s, t))

    def test_conflicting_assertion_rejected(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p = vocab.id_of("near")
        store = TripleStore(vocab)
        store.add_observation(s, p, o, t, True)
        with pytest.raises(ConflictError):
            store.add_observation(s, p, o, t, False)

    def test_duplicate_policy(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p = vocab.id_of("near")
        strict = TripleStore(vocab)
        strict.add_observation(s, p, o, t, True)
        with pytest.raises(StoreError):
            strict.add_observation(s, p, o, t, True)
        lax = TripleStore(vocab, duplicate_policy="ignore")
        lax.add_observation(s, p, o, t, True)
        lax.add_observation(s, p, o, t, True)
        assert lax.positive_count(s, p, o) == 1

    def test_kind_checking(self, vocab):
        s, o, t = ids(vocab, "e0", "e1", "t0")
        p, ha = vocab.id_of("near"), vocab.has_attribute
        dog = vocab.id_of("Dog")
        store = TripleStore(vocab)
        with pytest.raises(StoreError):
            store.add_observation(dog, p, o, t, True)  # class subject
        with pytest.raises(StoreError):
            store.add_observation(s, p, dog, t, True)  # class object on binary
        with pytest.raises(StoreError):
            store.add_observation(s, ha, o, t, True)  # entity object on unary
        with pytest.raises(StoreError):
            store.add_observation(s, p, o, s, True)  # entity as instance

    def test_lcwa_expansion(self, vocab):
        ha = vocab.has_attribute
        s, o, t = ids(vocab, "e0", "e1", "t0")
        near, chases = ids(vocab, "near", "chases")
        dog = vocab.id_of("Dog")
        store = TripleStore(vocab)
        store.add_observation(s, ha, dog, t, True)
        store.add_observation(s, near, o, t, True)
        implied = store.lcwa_expand(t, [s, o])
        # per entity: every family member not asserted goes false
        n_labels = len(vocab.labels)
        n_preds = len(vocab.binary_predicates)
        assert len(implied) == 2 * n_labels + 2 * n_preds - 2
        assert store.truth_of(s, ha, vocab.id_of("Cat"), t) is False
        assert store.truth_of(s, ha, dog, t) is True  # untouched
        assert store.truth_of(o, chases, s, t) is False
        # closing twice implies nothing new
        assert store.lcwa_expand(t, [s, o]) == []


class TestPositiveArray:
    def test_rows_follow_iter_positive_and_track_new_positives(self, vocab):
        rng = np.random.default_rng(7)
        records = random_records(vocab, rng, n_true=30, n_false=10)
        store = store_from_records(vocab, records[:20] + records[30:])
        first = store.positive_array()
        assert first.tolist() == [list(q) for q in store.iter_positive()]
        assert not first.flags.writeable
        assert store.positive_array() is first  # nothing added: the same array
        for s, p, o, t, truth in records[20:30]:
            store.add_observation(s, p, o, t, truth)
        assert store.positive_array().tolist() == [list(q) for q in store.iter_positive()]
        assert len(store.positive_array()) == 30


class TestCountingOracles:
    """The exact semantics the network can only approximate, proven against
    independent nested-loop enumeration in exact rational arithmetic."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_store_matches_brute_force(self, vocab, seed):
        rng = np.random.default_rng(seed)
        records = random_records(vocab, rng, n_true=30, n_false=20)
        store = store_from_records(vocab, records)

        for t in store.observed_instances():
            if store.n_statements(t) == 0:
                continue
            expect = brute_observation_dist(records, t)
            got = store.observation_dist(t)
            assert set(got.support) == set(expect)
            for key, frac in expect.items():
                assert abs(got.prob_of(key) - float(frac)) <= 1e-12

        expect = brute_pooled_dist(records)
        got = store.pooled_dist()
        assert set(got.support) == set(expect)
        for key, frac in expect.items():
            assert abs(got.prob_of(key) - float(frac)) <= 1e-12

        for s, p, o, _, _ in records:
            frac = brute_expected_truth(records, s, p, o)
            value = store.expected_truth(s, p, o)
            assert abs(value - float(frac)) <= 1e-12
        assert store.expected_truth(s, p, o and 0) in (UNKNOWN, 0.0, 1.0) or True

    def test_expected_truth_unknown_when_never_observed(self, vocab):
        store = TripleStore(vocab)
        s, o = ids(vocab, "e0", "e1")
        assert store.expected_truth(s, vocab.id_of("near"), o) is UNKNOWN

    @pytest.mark.parametrize("seed", range(3))
    def test_label_conditional_matches_brute_force(self, vocab, seed):
        rng = np.random.default_rng(100 + seed)
        ha = vocab.has_attribute
        records = random_records(vocab, rng, n_true=40, n_false=30)
        store = store_from_records(vocab, records)
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
            store.add_observation(s, ha, dog, t, True)
            store.add_observation(s, ha, mammal, t, True)
        assert store.label_conditional(dog, mammal) == 1.0

    def test_pooled_is_weighted_average_of_instances(self, vocab):
        rng = np.random.default_rng(7)
        records = random_records(vocab, rng, n_true=35, n_false=5)
        store = store_from_records(vocab, records)
        pooled = store.pooled_dist().as_dict()
        total = store.total_statements()
        mixed: dict = {}
        for t in store.observed_instances():
            if store.n_statements(t) == 0:
                continue
            weight = store.n_statements(t) / total
            for key, prob in store.observation_dist(t).as_dict().items():
                mixed[key] = mixed.get(key, 0.0) + weight * prob
        assert set(mixed) == set(pooled)
        for key in pooled:
            assert abs(pooled[key] - mixed[key]) <= 1e-12

    def test_single_instance_conditional_identity(self, vocab):
        # restricted to one instance, P(p | s,o,t) from the observation model
        # equals the expected-truth ratio over predicates for that pair
        s, o, t = ids(vocab, "e0", "e1", "t0")
        near, chases = ids(vocab, "near", "chases")
        store = TripleStore(vocab)
        store.add_observation(s, near, o, t, True)
        store.add_observation(s, chases, o, t, True)
        store.add_observation(o, near, s, t, True)
        dist = store.observation_dist(t)
        for p in (near, chases):
            joint = dist.prob_of((s, p, o))
            cond = joint / sum(dist.prob_of((s, q, o)) for q in (near, chases))
            ratio = store.expected_truth(s, p, o) / sum(
                store.expected_truth(s, q, o) for q in (near, chases)
            )
            assert abs(cond - ratio) <= 1e-12

    def test_empty_observation_dist_raises(self, vocab):
        store = TripleStore(vocab)
        with pytest.raises(StoreError):
            store.observation_dist(vocab.id_of("t0"))
        with pytest.raises(StoreError):
            store.pooled_dist()

    def test_horizon_window(self, vocab):
        ha = vocab.has_attribute
        dog = vocab.id_of("Dog")
        s = vocab.id_of("e0")
        t0, t1, t2 = ids(vocab, "t0", "t1", "t2")
        store = TripleStore(vocab, horizon=2)
        store.add_observation(s, ha, dog, t0, True)
        store.add_observation(s, ha, dog, t1, False)
        store.add_observation(s, ha, dog, t2, False)
        # only the two most recent instances count
        assert store.expected_truth(s, ha, dog) == 0.0
        unwindowed = TripleStore(vocab)
        unwindowed.add_observation(s, ha, dog, t0, True)
        unwindowed.add_observation(s, ha, dog, t1, False)
        unwindowed.add_observation(s, ha, dog, t2, False)
        assert unwindowed.expected_truth(s, ha, dog) == pytest.approx(1 / 3)


class TestInterchange:
    def test_jsonl_round_trip(self, vocab):
        rng = np.random.default_rng(11)
        records = random_records(vocab, rng, n_true=20, n_false=10)
        store = store_from_records(vocab, records)
        pos, neg = io.StringIO(), io.StringIO()
        assert write_jsonl(store, pos, truth=True) == 20
        assert write_jsonl(store, neg, truth=False) == 10
        rebuilt = TripleStore(vocab)
        pos.seek(0), neg.seek(0)
        assert read_jsonl(rebuilt, pos) == 20
        assert read_jsonl(rebuilt, neg) == 10
        assert set(rebuilt.iter_positive()) == set(store.iter_positive())
        assert set(rebuilt.iter_negative()) == set(store.iter_negative())

    def test_output_independent_of_registration_order(self):
        # same statements through vocabularies built in different orders
        # serialize to identical bytes
        v1 = small_vocab()
        v2 = Vocabulary()
        for i in reversed(range(4)):
            v2.add_entity(f"e{i}")
        for i in reversed(range(3)):
            v2.add_instance(f"t{i}")
        for name in ("Mammal", "Cat", "Dog"):
            v2.add_class(name)
        for name in ("Old", "Young"):
            v2.add_attribute(name)
        for name in ("chases", "near"):
            v2.add_predicate(name)
        v2.define_family("Species", ["Dog", "Cat"])
        v2.define_family("Rank", ["Mammal"])
        v2.define_family("Age", ["Young", "Old"])

        outs = []
        for v in (v1, v2):
            store = TripleStore(v)
            store.add_observation(v.id_of("e1"), v.id_of("near"), v.id_of("e0"), v.id_of("t1"), True)
            store.add_observation(v.id_of("e0"), v.has_attribute, v.id_of("Dog"), v.id_of("t0"), True)
            store.add_observation(v.id_of("e2"), v.id_of("chases"), v.id_of("e1"), v.id_of("t0"), True)
            buf = io.StringIO()
            write_jsonl(store, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("truth", [True, False])
    def test_generated_world_matches_reference(self, tiny_store, truth, monkeypatch):
        # chunks of 7 lines, so each file takes many writes
        monkeypatch.setattr(triple_store, "WRITE_CHUNK", 7)
        buf = io.StringIO()
        n = write_jsonl(tiny_store, buf, truth=truth)
        want = reference_jsonl(tiny_store, truth)
        assert n == want.count("\n")
        assert buf.getvalue() == want

    @pytest.mark.parametrize("truth", [True, False])
    def test_names_that_need_escaping_match_reference(self, truth, monkeypatch):
        # registered out of name order; quote, backslash, control character,
        # non-ASCII text, U+2028 and a character outside the BMP
        monkeypatch.setattr(triple_store, "WRITE_CHUNK", 5)
        v = Vocabulary()
        for name in ('t"2', "t\\1", "t\x010"):
            v.add_instance(name)
        for name in ("zoë", 'e"q', "e\\b", "e\u2028ls", "e\tx", "ä", "e😀"):
            v.add_entity(name)
        for name in ("Ünder", "near\u2029", "chasés"):
            v.add_predicate(name)
        v.add_class("Dög")
        v.add_attribute("Old\x7f")
        v.define_family("Kind", ["Dög", "Old\x7f"])
        store = store_from_records(v, random_records(v, np.random.default_rng(5), 30, 25))
        buf = io.StringIO()
        n = write_jsonl(store, buf, truth=truth)
        want = reference_jsonl(store, truth)
        assert n == (30 if truth else 25)
        assert buf.getvalue() == want
        assert buf.getvalue().isascii()

    @pytest.mark.parametrize("truth", [True, False])
    def test_empty_store_writes_nothing(self, vocab, truth):
        buf = io.StringIO()
        assert write_jsonl(TripleStore(vocab), buf, truth=truth) == 0
        assert buf.getvalue() == ""

    def test_statements_keep_their_order_and_end_with_provenance(self, vocab):
        e0, e1, near, t1, t0 = ids(vocab, "e0", "e1", "near", "t1", "t0")
        quads = [(e1, near, e0, t1), (e0, vocab.has_attribute, vocab.id_of("Dog"), t0)]
        buf = io.StringIO()
        assert write_statements(buf, vocab, quads, truth=True, provenance="ssl") == 2
        want = "".join(
            json.dumps({"s": s, "p": p, "o": o, "t": t, "y": 1, "provenance": "ssl"},
                       separators=(", ", ": ")) + "\n"
            for s, p, o, t in (("e1", "near", "e0", "t1"), ("e0", "hasAttribute", "Dog", "t0"))
        )
        assert buf.getvalue() == want
        empty = io.StringIO()
        assert write_statements(empty, vocab, [], truth=False) == 0
        assert empty.getvalue() == ""

    def test_malformed_line_raises(self, vocab):
        store = TripleStore(vocab)
        with pytest.raises(StoreError):
            read_jsonl(store, io.StringIO('{"s": "e0"}\n'))
        with pytest.raises(StoreError):
            read_jsonl(store, io.StringIO("not json\n"))
        bad_truth = '{"s": "e0", "p": "near", "o": "e1", "t": "t0", "y": 2}\n'
        with pytest.raises(StoreError):
            read_jsonl(store, io.StringIO(bad_truth))
