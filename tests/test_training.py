"""Example construction, index swapping, the optimizer, the training loop,
self-labeled growth, and consolidation."""
from __future__ import annotations

import dataclasses
import hashlib
import io
import re

import numpy as np
import pytest

from bilayer import graph, training
from bilayer.evaluation import head_metrics
from bilayer.network import DecodeRequest, SceneInput, decode
from bilayer.params import ColumnMap, NetConfig, NetParams, params_digest
from bilayer.training import (
    Adam,
    TrainConfig,
    TrainError,
    TrainingDiverged,
    build_batches,
    consolidate,
    detect_novel_entity,
    injection_pool,
    memory_examples,
    perception_examples,
    ssl_step,
    train,
    write_history_csv,
)
from bilayer.triple_store import UNKNOWN, TripleStore
from bilayer.vocab import Kind, VocabError
from bilayer.world import (
    ONTOLOGY, WorldConfig, WorldError, export_world, gen_world, load_world, substream,
)

from util import (
    copying_ce_head,
    dict_table,
    group_cols,
    keyed_rows,
    pool_dict,
    pool_from_dict,
    random_records,
    reference_build_batches,
    reference_decode,
    reference_injection_pool,
    reference_memory_examples,
    reference_ingest,
    reference_perception_examples,
    reference_pseudo_examples,
    small_params,
    small_vocab,
    store_from_records,
    table_rows,
)


def _vectors(world) -> dict:
    """The world's feature vectors by key, for the dict-keyed reference builders."""
    return {key: world.features[row] for key, row in world.feature_index.items()}


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(inject_rho=1.5)
        with pytest.raises(TrainError):
            TrainConfig(modes=("episodic", "dreaming"))

    def test_refuses_a_mode_listed_twice(self):
        # each epoch would train it twice and log each of its rows twice
        with pytest.raises(TrainError, match=r"modes lists \['episodic'\] more than once"):
            TrainConfig(modes=("episodic", "semantic", "episodic"))

    @pytest.mark.parametrize("key", ["modes", "hidden_families", "excluded_families"])
    def test_refuses_a_bare_string_for_a_list(self, key):
        with pytest.raises(TrainError, match=key):
            TrainConfig(**{key: "Risk"})
        assert TrainConfig(**{key: ["episodic"]}).to_dict()[key] == ["episodic"]

    def test_an_int_passes_for_a_float(self):
        assert TrainConfig(inject_rho=1, learning_rate=1).learning_rate == 1

    def test_round_trip(self):
        config = TrainConfig(epochs=3, modes=("episodic",), hidden_families=("Age",))
        again = TrainConfig.from_dict(config.to_dict())
        assert again == config


class TestExampleConstruction:
    @staticmethod
    def _toy_store(v):
        ha = v.has_attribute
        rows = [
            (v.id_of("e0"), ha, v.id_of("Dog"), v.id_of("t0"), True),
            (v.id_of("e0"), ha, v.id_of("Young"), v.id_of("t0"), True),
            (v.id_of("e1"), ha, v.id_of("Cat"), v.id_of("t1"), True),
            (v.id_of("e0"), v.id_of("near"), v.id_of("e1"), v.id_of("t0"), True),
        ]
        # a closure implies that e1 is no Dog at t1
        return store_from_records(v, rows, [(v.id_of("t1"), [v.id_of("e1")], ["Species"], [])])

    def test_memory_examples(self):
        v = small_vocab()
        store = self._toy_store(v)
        unary, binary = (table_rows(x) for x in memory_examples(store, v))
        label_rows = [ex for ex in unary if ex["fam"] != "Identity"]
        ident_rows = [ex for ex in unary if ex["fam"] == "Identity"]
        # three positive labels; the negative contributes nothing
        assert {(ex["s"], ex["fam"], ex["o"]) for ex in label_rows} == {
            (v.id_of("e0"), "Species", v.id_of("Dog")),
            (v.id_of("e0"), "Age", v.id_of("Young")),
            (v.id_of("e1"), "Species", v.id_of("Cat")),
        }
        # identity rows: every (entity, instance) observation incl. binary objects
        assert {(ex["s"], ex["t"]) for ex in ident_rows} == {
            (v.id_of("e0"), v.id_of("t0")),
            (v.id_of("e1"), v.id_of("t0")),
            (v.id_of("e1"), v.id_of("t1")),
        }
        assert all(ex["o"] == ex["s"] for ex in ident_rows)
        assert binary == [
            {"t": v.id_of("t0"), "s": v.id_of("e0"), "p": v.id_of("near"), "o": v.id_of("e1")}
        ]

    def test_memory_examples_exclusions(self):
        v = small_vocab()
        store = self._toy_store(v)
        unary, _ = memory_examples(store, v, excluded_families=("Species",))
        fams = {ex["fam"] for ex in table_rows(unary)}
        assert "Species" not in fams
        assert "Age" in fams and "Identity" in fams

    def test_injection_pool(self):
        v = small_vocab()
        store = self._toy_store(v)
        pool = pool_dict(injection_pool(store, v))
        assert pool[v.id_of("e0")] == sorted([v.id_of("Dog"), v.id_of("Young")])
        assert pool[v.id_of("e1")] == [v.id_of("Cat")]
        no_species = injection_pool(store, v, excluded_families=("Species", "Age"))
        assert len(no_species) == 0 and pool_dict(no_species) == {}

    def test_a_label_outside_every_family_is_refused(self):
        v = small_vocab(families={"Species": ["Dog", "Cat"]})
        store = self._toy_store(v)  # e0 is Young, which no family holds
        with pytest.raises(TrainError, match="'Young' belongs to no family"):
            memory_examples(store, v)

    def test_perception_examples(self, tiny_world):
        v = tiny_world.vocab
        unary, binary = perception_examples(tiny_world, v)
        scenes = {s.name: s for s in tiny_world.scenes_of_kind("train", "ex_train")}
        assert len(unary) and len(binary)
        assert unary.features.dtype == np.float32 and unary.features is binary.features
        vectors = {f.tobytes() for f in tiny_world.features}
        unary, binary = table_rows(unary), table_rows(binary)
        for ex in unary:
            assert v.name_of(ex["t"]) in scenes
            assert ex["scene"] in vectors and ex["bb"] in vectors
            if ex["fam"] == "Identity":
                assert ex["o"] == ex["s"]
            else:
                assert ex["o"] in v.families[ex["fam"]]
        for ex in binary:
            scene = scenes[v.name_of(ex["t"])]
            assert (v.name_of(ex["s"]), v.name_of(ex["p"]), v.name_of(ex["o"])) in scene.binaries
            assert ex["rel"] in vectors
        # every member of every instance scene gets an identity row
        want = sum(len(s.members) for s in scenes.values() if s.instance)
        assert sum(1 for ex in unary if ex["fam"] == "Identity") == want

    def test_perception_examples_hide_families(self, tiny_world):
        unary, _ = perception_examples(tiny_world, tiny_world.vocab, hidden_families=("Risk",))
        assert all(ex["fam"] != "Risk" for ex in table_rows(unary))


class TestExampleTables:
    """The tables hold the rows of the per-example dict builders, in order."""

    @pytest.mark.parametrize("excluded", [(), ("Species",), ("Species", "Age")])
    def test_memory_tables_match_the_dict_builder_on_a_toy_store(self, excluded):
        v = small_vocab()
        store = TestExampleConstruction._toy_store(v)
        unary, binary = memory_examples(store, v, excluded)
        ref_unary, ref_binary = reference_memory_examples(store, v, excluded)
        assert table_rows(unary) == ref_unary
        assert table_rows(binary) == ref_binary
        assert pool_dict(injection_pool(store, v, excluded)) == \
            reference_injection_pool(store, v, excluded)

    @pytest.mark.parametrize("excluded", [(), ("PClass", "Risk")])
    def test_memory_tables_match_the_dict_builder_on_a_world(self, tiny_world, tiny_store,
                                                             excluded):
        v = tiny_world.vocab
        unary, binary = memory_examples(tiny_store, v, excluded)
        ref_unary, ref_binary = reference_memory_examples(tiny_store, v, excluded)
        assert len(unary) == len(ref_unary) and len(binary) == len(ref_binary)
        assert table_rows(unary) == ref_unary
        assert table_rows(binary) == ref_binary
        assert pool_dict(injection_pool(tiny_store, v, excluded)) == \
            reference_injection_pool(tiny_store, v, excluded)

    @pytest.mark.parametrize("hidden", [(), ("Risk",), ("Age", "Color")])
    def test_perception_tables_match_the_dict_builder(self, tiny_world, hidden):
        v = tiny_world.vocab
        unary, binary = perception_examples(tiny_world, v, hidden)
        ref_unary, ref_binary = reference_perception_examples(tiny_world, v, hidden)
        assert table_rows(unary) == keyed_rows(ref_unary, _vectors(tiny_world))
        assert table_rows(binary) == keyed_rows(ref_binary, _vectors(tiny_world))

    @pytest.fixture(scope="class")
    def default_world(self):
        return gen_world(WorldConfig(seed=6))

    @pytest.mark.parametrize("hidden", [(), ("Risk",), ONTOLOGY.label_families],
                             ids=["none", "risk", "every-label-family"])
    def test_perception_tables_of_a_default_world(self, default_world, hidden):
        """Row for row the dict builder's rows, and a feature matrix of the
        boxes in the order the rows first read them, scene by scene: the
        scene box, its member boxes, its relation boxes."""
        world, v = default_world, default_world.vocab
        unary, binary = perception_examples(world, v, hidden)
        ref_unary, ref_binary = reference_perception_examples(world, v, hidden)
        assert table_rows(unary) == keyed_rows(ref_unary, _vectors(world))
        assert table_rows(binary) == keyed_rows(ref_binary, _vectors(world))
        keys: dict[str, None] = {}
        for scene in dict.fromkeys(ex["scene"] for ex in ref_unary + ref_binary):
            for ex in ref_unary:
                if ex["scene"] == scene:
                    keys.update(dict.fromkeys([ex["scene"], ex["bb"]]))
            for ex in ref_binary:
                if ex["scene"] == scene:
                    keys.update(dict.fromkeys([ex["scene"], ex["s_bb"], ex["o_bb"], ex["rel"]]))
        np.testing.assert_array_equal(unary.features, world.features_of(list(keys)))
        assert binary.features is unary.features
        only_identity = set(unary.cols["fam"].tolist()) == {unary.families.index("Identity")}
        assert only_identity is (hidden == ONTOLOGY.label_families)

    def test_a_world_without_labeled_scenes_gives_empty_tables(self, tiny_world):
        world = dataclasses.replace(tiny_world, scenes=[
            s for s in tiny_world.scenes if s.kind not in ("train", "ex_train")])
        unary, binary = perception_examples(world, world.vocab)
        assert len(unary) == len(binary) == 0
        assert set(unary.cols) == {"t", "s", "fam", "o", "scene", "bb"}
        assert set(binary.cols) == {"t", "s", "p", "o", "scene", "s_bb", "o_bb", "rel"}
        assert all(col.dtype == np.int64 for col in [*unary.cols.values(), *binary.cols.values()])
        assert unary.features.shape == (0, world.config.feature_dim)

    def test_a_reloaded_world_opens_to_the_same_store_and_tables(self, tiny_world, tiny_store,
                                                                  tmp_path):
        export_world(tiny_world, str(tmp_path))
        loaded = load_world(str(tmp_path))
        store = loaded.build_store()
        np.testing.assert_array_equal(store.positive_array(), tiny_store.positive_array())
        assert list(store.iter_negative()) == list(tiny_store.iter_negative())
        assert store._closures == tiny_store._closures
        for got, want in zip(perception_examples(loaded, loaded.vocab),
                             perception_examples(tiny_world, tiny_world.vocab)):
            assert got.families == want.families and got.cols.keys() == want.cols.keys()
            for k in want.cols:
                np.testing.assert_array_equal(got.cols[k], want.cols[k])
            np.testing.assert_array_equal(got.features, want.features)

    def test_a_slice_is_a_table_of_those_rows(self, tiny_world):
        unary, _ = perception_examples(tiny_world, tiny_world.vocab)
        head = unary[:5]
        assert len(head) == 5 and head.features is unary.features
        assert table_rows(head) == table_rows(unary)[:5]


def _tables(v, unary: list[dict], binary: list[dict]) -> tuple:
    return dict_table(unary, "unary", v), dict_table(binary, "binary", v)


class TestBuildBatches:
    def test_identity_rows_are_never_swapped(self):
        v = small_vocab()
        _, cmap = small_params(v)
        e0 = v.id_of("e0")
        pool = {e0: np.array([v.id_of("Young")], dtype=np.int64)}
        rows = [{"t": v.id_of("t0"), "s": e0, "fam": "Identity", "o": e0}]
        for seed in range(10):
            (batch,) = build_batches(
                *_tables(v, rows, []), mode="episodic", cmap=cmap, batch_size=4,
                rng=substream(seed, "b"), rho=1.0, pool=pool_from_dict(pool),
            )
            assert batch.subj_inject_cols.tolist() == [cmap.col_of(e0)]

    def test_swap_moves_injection_but_not_family_target(self):
        v = small_vocab()
        _, cmap = small_params(v)
        e0, dog, young = v.id_of("e0"), v.id_of("Dog"), v.id_of("Young")
        pool = {e0: np.array([young], dtype=np.int64)}
        rows = [{"t": v.id_of("t0"), "s": e0, "fam": "Species", "o": dog}]
        (batch,) = build_batches(
            *_tables(v, rows, []), mode="episodic", cmap=cmap, batch_size=4,
            rng=substream(0, "b"), rho=1.0, pool=pool_from_dict(pool),
        )
        # the injected index (also the subject-head target) follows the swap
        assert batch.subj_inject_cols.tolist() == [cmap.col_of(young)]
        # the family head still answers with the entity's real label
        assert batch.label_fams.tolist() == [cmap.families.index("Species")]
        assert batch.label_target_cols.tolist() == [cmap.col_of(dog)]

    def test_zero_rho_keeps_subjects(self):
        v = small_vocab()
        _, cmap = small_params(v)
        e0 = v.id_of("e0")
        pool = {e0: np.array([v.id_of("Young")], dtype=np.int64)}
        rows = [{"t": v.id_of("t0"), "s": e0, "fam": "Species", "o": v.id_of("Dog")}]
        (batch,) = build_batches(
            *_tables(v, rows, []), mode="episodic", cmap=cmap, batch_size=4,
            rng=substream(0, "b"), rho=0.0, pool=pool_from_dict(pool),
        )
        assert batch.subj_inject_cols.tolist() == [cmap.col_of(e0)]

    def test_binary_swaps_subject_and_object(self):
        v = small_vocab()
        _, cmap = small_params(v)
        e0, e1, young, old = (v.id_of(n) for n in ("e0", "e1", "Young", "Old"))
        pool = {
            e0: np.array([young], dtype=np.int64),
            e1: np.array([old], dtype=np.int64),
        }
        rows = [{"t": v.id_of("t0"), "s": e0, "p": v.id_of("near"), "o": e1}]
        (batch,) = build_batches(
            *_tables(v, [], rows), mode="semantic", cmap=cmap, batch_size=4,
            rng=substream(1, "b"), rho=1.0, pool=pool_from_dict(pool),
        )
        assert batch.subj_inject_cols.tolist() == [cmap.col_of(young)]
        assert batch.obj_inject_cols.tolist() == [cmap.col_of(old)]
        assert batch.pred_cols.tolist() == [cmap.col_of(v.id_of("near"))]
        assert batch.inst_cols is None  # semantic batches carry no instance

    def test_chunking(self):
        v = small_vocab()
        _, cmap = small_params(v)
        rows = [
            {"t": v.id_of(f"t{i % 3}"), "s": v.id_of(f"e{i % 4}"), "fam": "Identity",
             "o": v.id_of(f"e{i % 4}")}
            for i in range(5)
        ]
        batches = build_batches(
            *_tables(v, rows, []), mode="episodic", cmap=cmap, batch_size=2, rng=substream(0, "b")
        )
        assert [len(b) for b in batches] == [2, 2, 1]
        assert all(b.inst_cols is not None for b in batches)


def _same_batches(got: list, want: list) -> None:
    """Batches equal field for field, bit for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.mode, a.arity) == (b.mode, b.arity)
        for name in ("inst_cols", "subj_inject_cols", "label_rows", "label_fams",
                     "label_target_cols", "obj_inject_cols", "pred_cols",
                     "feat_scene", "feat_subj", "feat_obj", "feat_pred"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if x is not None:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class CountingGenerator:
    """A generator whose method calls are counted."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


def _swap_setup(n: int, seed: int = 0):
    """A vocabulary whose every entity has a pool, and n unary label rows plus
    n binary rows over it."""
    v = small_vocab(n_entities=40, n_instances=5)
    _, cmap = small_params(v)
    rng = substream(seed, "swap-rows")
    ents = np.array(v.entities)
    labels = np.array([v.id_of(x) for x in ("Dog", "Cat", "Mammal", "Young", "Old")])
    pool = pool_from_dict({int(e): labels[rng.permutation(5)[:1 + i % 3]] for i, e in enumerate(ents)})
    t = np.array(v.instances)[rng.integers(0, 5, size=n)]
    s, o = ents[rng.integers(0, 40, size=n)], ents[rng.integers(0, 40, size=n)]
    species = [v.id_of("Dog"), v.id_of("Cat")]
    unary = dict_table(
        [{"t": int(t[i]), "s": int(s[i]), "fam": "Identity" if i % 4 == 0 else "Species",
          "o": int(s[i]) if i % 4 == 0 else species[i % 2]} for i in range(n)],
        "unary", v)
    binary = dict_table(
        [{"t": int(t[i]), "s": int(s[i]), "p": v.id_of("near"), "o": int(o[i])} for i in range(n)],
        "binary", v)
    return v, cmap, pool, unary, binary


class TestVectorizedBatches:
    @pytest.mark.parametrize("mode", ["perception", "episodic", "semantic"])
    def test_zero_rho_batches_equal_the_dict_builder(self, tiny_world, tiny_store, mode):
        v = tiny_world.vocab
        cmap = ColumnMap(v)
        if mode == "perception":
            tables = perception_examples(tiny_world, v)
            dicts = reference_perception_examples(tiny_world, v)
            features = _vectors(tiny_world)
        else:
            tables = memory_examples(tiny_store, v)
            dicts = reference_memory_examples(tiny_store, v)
            features = None
        pool = injection_pool(tiny_store, v)
        for batch_size in (7, 64):
            got = build_batches(*tables, mode=mode, cmap=cmap, batch_size=batch_size,
                                rng=substream(5, "b"), rho=0.0, pool=pool)
            want = reference_build_batches(*dicts, mode=mode, cmap=cmap, batch_size=batch_size,
                                           rng=substream(5, "b"), features=features)
            _same_batches(got, want)

    def test_full_rho_swaps_every_eligible_index(self):
        v, cmap, pool, unary, binary = _swap_setup(400)
        pools = {cmap.col_of(e): {cmap.col_of(x) for x in xs} for e, xs in pool_dict(pool).items()}
        kwargs = dict(mode="semantic", cmap=cmap, batch_size=64, pool=pool)
        # a set's permutation comes before its swaps, so rho 0 gives its rows unswapped
        plain, swapped = [], []
        for sets in ((unary, binary[:0]), (unary[:0], binary)):
            plain += build_batches(*sets, rng=substream(2, "b"), rho=0.0, **kwargs)
            swapped += build_batches(*sets, rng=substream(2, "b"), rho=1.0, **kwargs)
        assert len(plain) == len(swapped) == 14
        for a, b in zip(plain, swapped):
            if a.arity == "unary":
                ident = a.label_rows[a.label_fams == cmap.families.index("Identity")]
                assert np.array_equal(b.subj_inject_cols[ident], a.subj_inject_cols[ident])
                for row in a.label_rows[a.label_fams == cmap.families.index("Species")]:
                    assert b.subj_inject_cols[row] in pools[a.subj_inject_cols[row]]
                # family targets keep the entity's own labels
                for name in ("label_rows", "label_fams", "label_target_cols"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))
            else:
                for end in ("subj_inject_cols", "obj_inject_cols"):
                    got, was = getattr(b, end), getattr(a, end)
                    assert all(g in pools[w] for g, w in zip(got, was))
                assert np.array_equal(a.pred_cols, b.pred_cols)

    def test_half_rho_swap_counts_are_binomial(self):
        n = 10_000
        v, cmap, pool, unary, binary = _swap_setup(n, seed=1)
        batches = build_batches(unary, binary, mode="semantic", cmap=cmap, batch_size=128,
                                rng=substream(4, "b"), rho=0.5, pool=pool)
        entity = set(group_cols(cmap, "entity").tolist())
        swapped = lambda cols: ~np.isin(cols, list(entity))  # noqa: E731
        n_label = int(np.sum(unary.cols["fam"] != unary.families.index("Identity")))
        unary_swaps = sum(int(swapped(b.subj_inject_cols).sum()) for b in batches
                          if b.arity == "unary")
        s_sw = np.concatenate([swapped(b.subj_inject_cols) for b in batches if b.arity == "binary"])
        o_sw = np.concatenate([swapped(b.obj_inject_cols) for b in batches if b.arity == "binary"])

        def within_4_sigma(count: int, trials: int, p: float) -> bool:
            return abs(count - trials * p) <= 4 * np.sqrt(trials * p * (1 - p))

        assert within_4_sigma(unary_swaps, n_label, 0.5)
        assert within_4_sigma(int(s_sw.sum()), n, 0.5)
        assert within_4_sigma(int(o_sw.sum()), n, 0.5)
        # subject and object swap independently: both swap in a quarter of the rows
        assert within_4_sigma(int((s_sw & o_sw).sum()), n, 0.25)

    def test_generator_calls_do_not_grow_with_the_rows(self):
        calls = []
        for n in (100, 10_000):
            _, cmap, pool, unary, binary = _swap_setup(n)
            rng = CountingGenerator(substream(6, "b"))
            build_batches(unary, binary, mode="semantic", cmap=cmap, batch_size=128, rng=rng,
                          rho=0.5, pool=pool)
            calls.append(rng.calls)
        assert calls[0] == calls[1] <= 6


class TestPinnedBatches:
    """sha256 of every batch of seeded `build_batches` calls on the tiny
    world, in each mode, with and without swaps.  A digest covers the mode
    and arity, the instance, subject, object and predicate columns, the label
    occurrences as sorted (row, family name, target column) triples, and per
    feature box the rows of the set's feature matrix it gathered, found by
    their bytes.  The feature values come out of BLAS arithmetic in
    `gen_world`; the row numbers are integers, so the digests hold on every
    machine.  A change here is a change of batching's draw order or content:
    a behaviour change to declare in CHANGES.md, never to re-pin silently."""

    PINNED = {
        ("perception", 0.0): [
            "9ec1814c23d3942d61b09b7976dd3dbf37a6d4821025bdacb3e5c09260a9cc77",
            "bfb6f9c80f8b924e8048d9fc9a0c8d0da2e816863f15b0076e961073dcfea372",
            "f0b409956477c4c0bb286e158e8abec88aef132c4fe896d2dfeacb5c1e2d8a33",
            "f3134e65bbd299912609261fb136ee99a3494be2cdef7b993c7ff494d9291608",
            "9706a85b398ed1f13e9d4bacd84765d887873d495b5e4f41dd020b359a181ea4",
            "3e653c175d67e36e7285a8bd44cfed933480fe150ec8db0be179505a46d10f6c",
        ],
        ("perception", 0.5): [
            "3ad5a7f8e2a7036ec01b0f7963d3382a1d8f5c68a679139cc780ff9a78184dd1",
            "b1304d3b1adef93185d2a6924e44288b4b052dd2ea2bfb932d3f94eeb3d9407a",
            "e9bba41faf7feaff4657467fb10db6f20b580ff965aeacfd7b9d52c26bee11c5",
            "518d68fd76593d4fbbcc96531b96dc96c583440c46c5325c3ec4ac81adb25124",
            "5d0755ca225037f557e1b7f40e8fd9908a60819fab2a3a3e1c750030d62d4df2",
            "ee86d9de2810b69f45aa5dabdd2c662f4f5ef1518f7615a0a679e0f3c64237d2",
        ],
        ("episodic", 0.0): [
            "934199bfc0e458ca829e61aa6fdf3f5deeab31d474adce85c937b0fce2294e91",
            "8884cbe3d5d04a5de6db2319c44596a83bfaaa4a0177c5faceb9357fe1f855ec",
            "9be97f323929072bca86daf7c0bce616edcc6fcab9ef21537476cac5330c3326",
            "673a9e7e3732a6a0cf532f77e14216ec8d63cea021b6f4e3506bf849bee31cf3",
            "0630d84bdca889289e6db06ee87ca9fed94d6b9413f77af0d9192f7fac2f1aa4",
            "689ad75bdd3e937063a1016c22e0e18e3bc40ebe7db11d6c12f85e5d8bcf5a5d",
            "e30659b9c373f8d28a8b2d048c120030126b28e76ff176f4cc049f4470f7e862",
            "16a1d5cc3f7d6ce09a1bcc5d0ba0d22aa10ee0d21979bbde30f116d39e6a9ca9",
            "785db3d2bfac09b73d34eb84421d6e53973286c4c3cdd2f97a22d49731007558",
        ],
        ("episodic", 0.5): [
            "20824fc6e905a4be7f8114567fe7f6429abff660353ba8dd9addcc108e282c74",
            "d6f541ea0066551efa24eb70a10b73d711dd1b241d4a06447ee98bbc0c34c7b2",
            "04fd6c9b2abbf2ced5aa4fff9c0b4457de5a50bfba880a15a78f9c9dd6dcde96",
            "7a57504b4320f2a2f67c1640a7ff1d7f101dc0a76b852fb087068e6f5336082a",
            "877888c360c1a2c7ce4aed3cd79a791d8b24bb25086dc64ea1f1005b58c94e5a",
            "5ae205e28ae47b48a62c85dad899d406fc5567a2a6da526d163f3c19c86bab2a",
            "b6668f586bba532def1aa4d8dd2bcd3bce766f1c82c0ef65c2215ae417f90424",
            "b82e59cc4f5f472e88dd9d3f4e2d8a0b7564b4d20d2b170d002e9cb91d9fc9c3",
            "4f5b624cca0171a0d55e81fcf48e1119c049f956e4bc675c597a2478f31b262d",
        ],
        ("semantic", 0.0): [
            "a27badcf27ada45633dcaac00242568faa020e67be0486a62d577f3bc547494a",
            "5a59d3477d874b38420c416b51ffc789b551d4e7354d2e202014d3fc188f3b80",
            "7da11eb00fc40fb65becf7e12c7451e7a21e9738f8fc1380eae5599e2a7d7ee2",
            "8922228d5a6686e65ad11d56a29cc85ada8e0bdcd8dbfe2a8c4848a1e93c327c",
            "efc746d89df753e67b8b37da940b9baf8d2b257f7817760b82928017bc8e8023",
            "3472a83758ff886463f99b08ae59fe18dcc0086537ad68003d778c09ea59004d",
            "20a0bf113c5cef2a3cffe9c844f0032a42878b589a901235cca9043d89c04dc0",
            "1fa6ab38ee46155af8edba25ead0795209748780ae36ef7c65f5a0938a5e6bdf",
            "29f975bd18aa5c427e9be00c37fe0dc4069f70bf75b4e0fd5e42a6d62fea9251",
        ],
        ("semantic", 0.5): [
            "389611287f070fb4a7b82acb9a247e1370d6e4b7c3b8ce5526a23c85cc324580",
            "a5fe1cc8cbabd421da7ac5140a39511d2f339c8a1f70c54e10145edc46105271",
            "49f54b3d6d2dff1fe34c9b539f5558a1c552a5a1b9275f3a58cdfeb6e78e95bc",
            "f88d3d806f527995fde2e393bb08a33d03ff9a813c21aa03b3bbdfe7dc48b5c7",
            "bae0632bed0e1a974b709e708060001d1140322c19bce55ed355f33e9aa45807",
            "6e1b6c89b64ad3ec3a57459bc666f4c85186fcda36e369953a5a4025689d340c",
            "4caa229a53960c29ea9ba41aa6414e777882af20873ec75c2aba5c981841e124",
            "3ae3d651157ffe8fc83e518ea5ee12bce7709c32f43ede36f387600fdef5522c",
            "9fad23cf37ee0db5cd0f7883586d15f328386e8039a861feaf19179688cab269",
        ],
    }

    @staticmethod
    def _digest(batch, cmap: ColumnMap, row_of: dict) -> str:
        h = hashlib.sha256(f"{batch.mode} {batch.arity}".encode())
        for name in ("inst_cols", "subj_inject_cols", "obj_inject_cols", "pred_cols"):
            x = getattr(batch, name)
            h.update(name.encode() + (b"-" if x is None else np.asarray(x, dtype="<i8").tobytes()))
        occ = []
        if batch.arity == "unary":
            occ = sorted((int(r), cmap.families[f], int(c)) for r, f, c in
                         zip(batch.label_rows, batch.label_fams, batch.label_target_cols))
        h.update(repr(occ).encode())
        for name in ("feat_scene", "feat_subj", "feat_obj", "feat_pred"):
            x = getattr(batch, name)
            rows = b"-" if x is None else np.array(
                [row_of[r.tobytes()] for r in x], dtype="<i8").tobytes()
            h.update(name.encode() + rows)
        return h.hexdigest()

    @pytest.mark.parametrize("mode, rho", sorted(PINNED))
    def test_seeded_batches_match_pinned_digests(self, tiny_world, tiny_store, mode, rho):
        v = tiny_world.vocab
        cmap = ColumnMap(v)
        if mode == "perception":
            tables = perception_examples(tiny_world, v)
        else:
            tables = memory_examples(tiny_store, v)
        feats = tables[0].features
        row_of = {} if feats is None else {r.tobytes(): i for i, r in enumerate(feats)}
        assert len(row_of) == (0 if feats is None else len(feats))  # distinct rows
        pool = injection_pool(tiny_store, v)
        batches = build_batches(*tables, mode=mode, cmap=cmap, batch_size=128,
                                rng=substream(7, "pin"), rho=rho, pool=pool)
        assert [self._digest(b, cmap, row_of) for b in batches] == self.PINNED[mode, rho]


def _reference_adam_step(opt_state, params, grads, lr, emb_col_mask):
    """Textbook Adam (b1 0.9, b2 0.999, eps 1e-8) written as plain expressions
    over fresh temporaries: the reference the buffered Adam.step must match
    bit for bit.  With a column mask only the embedding moves."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    opt_state["t"] += 1
    t = opt_state["t"]
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.blocks().items():
        if emb_col_mask is not None and name != "emb":
            continue
        g = grads[name]
        m, v = opt_state["m"][name], opt_state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
        if emb_col_mask is not None:
            update = update * emb_col_mask
        p -= update.astype(p.dtype)


def _grads_like(params: NetParams, fill) -> NetParams:
    """A gradient of `params`' layout, each block `fill(block)`."""
    grads = NetParams(params.config, params.kind_counts)
    for block in grads.blocks().values():
        block[...] = fill(block)
    return grads


class TestAdam:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_reference_bit_for_bit(self, dtype, masked):
        v = small_vocab()
        params, cmap = small_params(v, dtype=dtype, seed=3)
        ref = params.copy()
        lr = 3e-3
        mask = (np.arange(cmap.n_columns) % 3 != 0).astype(params.emb.dtype) if masked else None
        opt = Adam(params, lr, mask)
        stepped = [k for k in ref.blocks() if not masked or k == "emb"]
        state = {
            "t": 0,
            "m": {k: np.zeros_like(ref.blocks()[k]) for k in stepped},
            "v": {k: np.zeros_like(ref.blocks()[k]) for k in stepped},
        }
        rng = substream(3, "grads")
        for _ in range(6):
            grads = _grads_like(params, lambda a: rng.standard_normal(a.shape).astype(a.dtype))
            opt.step(params, grads)
            _reference_adam_step(state, ref, grads.blocks(), lr, mask)
        size = params.emb.size if masked else params.flat.size
        assert opt.m.size == opt.v.size == size
        for name, arr in ref.blocks().items():
            np.testing.assert_array_equal(params.blocks()[name], arr)
        for moment in ("m", "v"):
            want = np.concatenate([state[moment][k].reshape(-1) for k in stepped])
            np.testing.assert_array_equal(getattr(opt, moment).reshape(-1), want)

    def test_single_step_closed_form(self):
        v = small_vocab()
        params, _ = small_params(v, dtype="float64")
        grads = _grads_like(params, np.zeros_like)
        g = np.linspace(-1.0, 1.0, params.pooled.size)
        grads.pooled[:] = g
        before = {k: a.copy() for k, a in params.blocks().items()}
        opt = Adam(params, learning_rate=0.1)
        opt.step(params, grads)
        # after one step the bias corrections cancel: update = lr * g / (|g| + eps)
        want = before["pooled"] - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params.pooled, want, rtol=1e-12)
        for name in before:
            if name != "pooled":
                np.testing.assert_array_equal(params.blocks()[name], before[name])

    def test_frozen_blocks_stay_bit_identical(self):
        """A column mask steps only the embedding: the context, pooled and
        encoder weights keep their bits, and the moments cover only `emb`."""
        v = small_vocab()
        params, cmap = small_params(v)
        grads = _grads_like(params, np.ones_like)
        before = {k: a.copy() for k, a in params.blocks().items()}
        opt = Adam(params, 0.05, np.ones(cmap.n_columns, dtype=params.emb.dtype))
        opt.step(params, grads)
        assert opt.m.shape == opt.v.shape == params.emb.shape
        for name, arr in params.blocks().items():
            if name == "emb":
                assert not np.array_equal(arr, before[name])
            else:
                np.testing.assert_array_equal(arr, before[name])

    def test_column_mask_pins_embedding_columns(self):
        v = small_vocab()
        params, cmap = small_params(v)
        grads = _grads_like(params, np.ones_like)
        before = {k: a.copy() for k, a in params.blocks().items()}
        mask = np.zeros(cmap.n_columns, dtype=params.emb.dtype)
        mask[group_cols(cmap, "entity")] = 1.0
        opt = Adam(params, 0.05, mask)
        opt.step(params, grads)
        moved = group_cols(cmap, "entity")
        held = np.setdiff1d(np.arange(cmap.n_columns), moved)
        assert not np.array_equal(params.emb[:, moved], before["emb"][:, moved])
        np.testing.assert_array_equal(params.emb[:, held], before["emb"][:, held])


def _memory_setup(seed: int = 0):
    v = small_vocab(n_entities=6, n_instances=4)
    params, cmap = small_params(v, seed=seed)
    store = store_from_records(v, random_records(v, substream(seed, "rec"), 40))
    return v, params, cmap, store


class TestTrainLoop:
    def test_rejects_empty_store(self):
        v = small_vocab()
        params, cmap = small_params(v)
        config = TrainConfig(epochs=1, modes=("episodic",))
        with pytest.raises(TrainError, match="empty"):
            train(params, cmap, v, TripleStore(v), config)

    def test_perception_needs_world(self):
        v, params, cmap, store = _memory_setup()
        config = TrainConfig(epochs=1, modes=("perception",))
        with pytest.raises(TrainError, match="world"):
            train(params, cmap, v, store, config)

    def test_seed_determinism_is_bitwise(self):
        v, params, cmap, store = _memory_setup(seed=3)
        config = TrainConfig(
            epochs=3, batch_size=16, learning_rate=1e-3, seed=11,
            modes=("episodic", "semantic"),
        )
        a = params.copy()
        b = params.copy()
        hist_a = train(a, cmap, v, store, config)
        hist_b = train(b, cmap, v, store, config)
        assert hist_a == hist_b
        for name, arr in a.blocks().items():
            np.testing.assert_array_equal(arr, b.blocks()[name])

    def test_loss_decreases(self):
        v, params, cmap, store = _memory_setup(seed=4)
        config = TrainConfig(
            epochs=10, batch_size=32, learning_rate=3e-3, seed=2, modes=("episodic",),
        )
        history = train(params, cmap, v, store, config)
        first = history[0]["loss"]
        last = history[-1]["loss"]
        assert last < first

    # the lowest teacher-forced accuracy each head may read after QUALITY_RUN;
    # with one BLAS thread it reads NT 1.000, NS 0.985, NO 1.000, NP 0.950 and
    # labels 0.971 in perception, labels 0.717 and NP 0.455 in episodic memory,
    # labels 0.711 and NP 0.455 in semantic memory, against about 0.27 on the
    # labels and 0.015 on NP after 2 epochs at 1e-4
    QUALITY_RUN = TrainConfig(epochs=10, learning_rate=1e-2, seed=0)
    QUALITY_FLOOR = {
        "perception": {"NT": 0.9, "NS": 0.9, "NO": 0.9, "NP": 0.9, "labels": 0.9},
        "episodic": {"NP": 0.3, "labels": 0.6},
        "semantic": {"NP": 0.3, "labels": 0.6},
    }

    def test_training_reaches_the_quality_floor(self, tiny_world, tiny_store):
        """Training that stops learning fails here, whatever its digests."""
        v = tiny_world.vocab
        cmap = ColumnMap(v)
        params = NetParams.init(v, NetConfig(feature_dim=tiny_world.config.feature_dim),
                                substream(0, "init"))
        train(params, cmap, v, tiny_store, self.QUALITY_RUN, world=tiny_world)
        memory = memory_examples(tiny_store, v)
        for mode, floor in self.QUALITY_FLOOR.items():
            unary, binary = perception_examples(tiny_world, v) if mode == "perception" else memory
            m = head_metrics(params, cmap, unary, binary, mode)
            read = {**m["heads"], "labels": m["unary_top1"]}
            low = {head: read[head] for head in floor if read[head] < floor[head]}
            assert not low, f"{mode} heads below {floor}: {low}"

    def test_history_covers_every_epoch_and_mode(self):
        v, params, cmap, store = _memory_setup(seed=5)
        config = TrainConfig(
            epochs=2, batch_size=32, learning_rate=1e-3, seed=0,
            modes=("episodic", "semantic"),
        )
        history = train(params, cmap, v, store, config)
        assert [(r["epoch"], r["split"]) for r in history] == [
            (0, "episodic"), (0, "semantic"), (1, "episodic"), (1, "semantic"),
        ]

    def test_frozen_blocks_survive_training(self):
        """`train` with a column mask moves only the masked embedding columns."""
        v, params, cmap, store = _memory_setup(seed=6)
        config = TrainConfig(
            epochs=2, batch_size=32, learning_rate=1e-2, seed=0, modes=("episodic",),
        )
        mask = np.zeros(cmap.n_columns, dtype=params.emb.dtype)
        mask[group_cols(cmap, "instance")] = 1.0
        before = {k: a.copy() for k, a in params.blocks().items()}
        train(params, cmap, v, store, config, emb_col_mask=mask)
        for name in ("ctx_in", "ctx_rec", "ctx_out", "pooled", "enc_w", "enc_b"):
            np.testing.assert_array_equal(params.blocks()[name], before[name])
        held = np.setdiff1d(np.arange(cmap.n_columns), group_cols(cmap, "instance"))
        np.testing.assert_array_equal(params.emb[:, held], before["emb"][:, held])
        assert not np.array_equal(params.emb, before["emb"])

    @pytest.mark.parametrize("key", ["hidden_families", "excluded_families"])
    def test_refuses_a_family_the_vocabulary_lacks(self, key):
        v, params, cmap, store = _memory_setup()
        config = TrainConfig(epochs=1, modes=("episodic",), **{key: ("Risk",)})
        with pytest.raises(TrainError, match="unknown families"):
            train(params, cmap, v, store, config)

    def test_divergence_is_reported(self):
        v, params, cmap, store = _memory_setup(seed=7)
        params.emb[:] = np.nan
        config = TrainConfig(epochs=1, modes=("episodic",), learning_rate=1e-3)
        with pytest.raises(TrainingDiverged) as err:
            train(params, cmap, v, store, config)
        assert err.value.epoch == 0
        assert err.value.mode == "episodic"

    @staticmethod
    def _count_builders(monkeypatch) -> dict:
        """Count the calls train() makes to the example and pool builders."""
        calls = {}

        def counting(name: str):
            real = getattr(training, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return counted

        for name in ("memory_examples", "perception_examples", "injection_pool"):
            monkeypatch.setattr(training, name, counting(name))
        return calls

    def test_perception_only_builds_no_memory_examples(
        self, tiny_world, tiny_store, tiny_net_config, monkeypatch
    ):
        calls = self._count_builders(monkeypatch)
        v = tiny_world.vocab
        params = NetParams.init(v, tiny_net_config, substream(0, "init"))
        config = TrainConfig(epochs=1, batch_size=64, modes=("perception",))
        train(params, ColumnMap(v), v, tiny_store, config, world=tiny_world)
        assert calls == {"perception_examples": 1, "injection_pool": 1}

    def test_episodic_only_builds_no_injection_pool(self, monkeypatch):
        calls = self._count_builders(monkeypatch)
        v, params, cmap, store = _memory_setup(seed=8)
        train(params, cmap, v, store, TrainConfig(epochs=1, modes=("episodic",)))
        assert calls == {"memory_examples": 1}

    def test_in_place_gradient_heads_match_the_copying_head(self, monkeypatch):
        v, params, cmap, store = _memory_setup(seed=9)
        config = TrainConfig(epochs=2, batch_size=16, learning_rate=1e-3, seed=4,
                             modes=("episodic",))
        a, b = params.copy(), params.copy()
        hist_a = train(a, cmap, v, store, config)
        monkeypatch.setattr(graph, "_ce_head", copying_ce_head)
        hist_b = train(b, cmap, v, store, config)
        assert hist_a == hist_b
        assert params_digest(a) == params_digest(b)

    def test_history_csv(self):
        buf = io.StringIO()
        write_history_csv(
            [{"epoch": 0, "split": "episodic", "loss": 1.23456789, "metric": 0.5}], buf
        )
        assert buf.getvalue() == "epoch,split,loss,metric\n0,episodic,1.234568,0.500000\n"


SSL_WORLD = WorldConfig(
    n_entities=20,
    n_scenes=8,
    n_test_entities=3,
    n_test_scenes=1,
    feature_dim=24,
    proto_dim=8,
    unlabeled_fraction=0.3,
    zero_shot_per_combo=1,
    ex_split=False,
    owners=False,
    social=False,
    seed=12,
)


@pytest.fixture()
def ssl_world():
    return gen_world(SSL_WORLD)


class TestSelfLabeledGrowth:
    def test_novelty_detector(self):
        assert detect_novel_entity(np.array([0.2, 0.5]), 0.6)
        assert not detect_novel_entity(np.array([0.2, 0.7]), 0.6)
        assert detect_novel_entity(np.array([]), 0.6)

    def test_ssl_step_grows_and_freezes(self, ssl_world):
        from bilayer.params import ColumnMap

        v = ssl_world.vocab
        net = NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24)
        params = NetParams.init(v, net, substream(0, "init"))
        cmap = ColumnMap(v)
        store = ssl_world.build_store()
        unlabeled = sorted(s.name for s in ssl_world.scenes_of_kind("unlabeled"))
        assert unlabeled, "world must produce unlabeled scenes for this test"

        frozen_before = {
            k: a.copy() for k, a in params.blocks().items() if k != "emb"
        }
        concepts = list(v.labels) + list(v.binary_predicates)
        concept_cols = {sid: params.emb[:, cmap.col_of(sid)].copy() for sid in concepts}
        n_statements_before = store.total_statements()
        config = TrainConfig(
            seed=1, batch_size=16, ssl_epochs=2, ssl_learning_rate=1e-4,
            novelty_threshold=0.6,
        )
        params, cmap, report = ssl_step(params, cmap, v, ssl_world, unlabeled, config, store)

        assert report.new_instances == unlabeled
        for name in unlabeled:
            assert name in v  # registered as instances
        for name in report.new_entities:
            scene_part, idx = name.rsplit(".", 1)
            assert scene_part in unlabeled and idx.isdigit()
            assert name in v
        # recognition covered every box of every scene: each has its identity
        # row, in scene and member order, and it names a registered entity
        identity = [ex for ex in report.pseudo_unary if ex["fam"] == "Identity"]
        assert [ex["t"] for ex in identity] == [
            v.id_of(name) for name in unlabeled for _ in ssl_world.scene(name).members]
        assert all(ex["o"] == ex["s"] and v.kind_of(ex["s"]) is Kind.ENTITY for ex in identity)

        # one pseudo-statement per (box, family) plus one identity row per box,
        # one per scene relation
        fams = [f for f in v.families if f != "Identity"]
        n_boxes = sum(len(ssl_world.scene(n).members) for n in unlabeled)
        n_rels = sum(len(ssl_world.scene(n).binaries) for n in unlabeled)
        assert len(report.pseudo_unary) == n_boxes * (len(fams) + 1)
        assert len(report.pseudo_binary) == n_rels
        assert store.total_statements() > n_statements_before

        # everything except entity/instance embedding columns is bit-frozen
        for name, before in frozen_before.items():
            np.testing.assert_array_equal(params.blocks()[name], before)
        for sid, before in concept_cols.items():
            np.testing.assert_array_equal(params.emb[:, cmap.col_of(sid)], before)
        assert report.history  # the low-rate pseudo-training actually ran

    @pytest.mark.parametrize("hidden, excluded", [((), ()), (("Color",), ("Risk",))])
    def test_ssl_trains_on_its_report_rows_at_their_boxes(self, ssl_world, monkeypatch, hidden,
                                                          excluded):
        """The tables the pseudo-training reads are the report's rows, row for
        row, and each feature column points at the vector of the box its row
        was read from, walked from the scenes' records; hidden and excluded
        families have no rows."""
        from bilayer.params import ColumnMap

        pseudo = []
        real_train = training.train

        def spy(*args, **kwargs):
            pseudo.append(kwargs["pseudo"])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(training, "train", spy)
        v = ssl_world.vocab
        params = NetParams.init(v, NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24),
                                substream(0, "init"))
        unlabeled = sorted(s.name for s in ssl_world.scenes_of_kind("unlabeled"))
        config = TrainConfig(seed=1, ssl_epochs=1, novelty_threshold=0.78,
                             hidden_families=hidden, excluded_families=excluded)
        _, _, report = ssl_step(params, ColumnMap(v), v, ssl_world, unlabeled, config)
        (unary, binary), = pseudo
        ref_unary, ref_binary = reference_pseudo_examples(report, ssl_world)
        assert table_rows(unary) == keyed_rows(ref_unary, _vectors(ssl_world))
        assert table_rows(binary) == keyed_rows(ref_binary, _vectors(ssl_world))
        assert {ex["fam"] for ex in report.pseudo_unary} == set(v.families) - {*hidden, *excluded}
        assert all(set(ex) == {"t", "s", "fam", "o"} for ex in report.pseudo_unary)
        assert all(set(ex) == {"t", "s", "p", "o"} for ex in report.pseudo_binary)

    @pytest.mark.parametrize("chunk", [None, 2])
    def test_ssl_pseudo_statements_follow_the_reference_walk(self, ssl_world, chunk, monkeypatch):
        from bilayer import network
        from bilayer.params import ColumnMap

        if chunk is not None:  # each pass then runs in several decode_many calls
            monkeypatch.setattr(network, "DECODE_CHUNK", chunk)

        # float64 weights, so an argmax cannot flip between the model and the
        # float64 reference; no pseudo-training, so the weights stay those
        # the labeling pass read; the threshold splits the boxes between
        # known and newly grown entities
        v = ssl_world.vocab
        net = NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24, dtype="float64")
        params = NetParams.init(v, net, substream(0, "init"))
        unlabeled = sorted(s.name for s in ssl_world.scenes_of_kind("unlabeled"))
        config = TrainConfig(seed=1, ssl_epochs=0, novelty_threshold=0.78)
        params, cmap, report = ssl_step(params, ColumnMap(v), v, ssl_world, unlabeled, config)
        n_boxes = sum(len(ssl_world.scene(name).members) for name in unlabeled)
        assert 0 < len(report.new_entities) < n_boxes
        feats = _vectors(ssl_world)
        unary, binary = reference_pseudo_examples(report, ssl_world)
        assert all(v.kind_of(ex["o"]) is Kind.ENTITY for ex in unary if ex["fam"] == "Identity")
        labels = [ex for ex in unary if ex["fam"] != "Identity"]
        assert labels and binary
        for ex in labels:
            ref = reference_decode(params, v, DecodeRequest(
                mode="perception", features=SceneInput(feats[ex["scene"]], feats[ex["bb"]]),
                instance_id=ex["t"], subject_id=ex["s"], winner_take_all=True,
            ))
            assert ex["o"] == ref["labels"][ex["fam"]]
        for ex in binary:
            ref = reference_decode(params, v, DecodeRequest(
                mode="perception",
                features=SceneInput(feats[ex["scene"]], feats[ex["s_bb"]], feats[ex["o_bb"]],
                                    feats[ex["rel"]]),
                instance_id=ex["t"], subject_id=ex["s"], object_id=ex["o"], winner_take_all=True,
            ))
            assert ex["p"] == ref["ids"]["predicate"]

    def test_ssl_adds_equal_single_adds(self):
        """The pseudo-statements go into the store in one batch; the store
        ends as single adds, each after a `truth_of`, would leave it, and the
        report is the one a run without a store gives."""
        from bilayer.params import ColumnMap

        net = NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24)
        config = TrainConfig(seed=1, ssl_epochs=0, novelty_threshold=0.78)
        reports, worlds = [], []
        for with_store in (True, False):
            world = gen_world(SSL_WORLD)
            v = world.vocab
            store = world.build_store() if with_store else None
            params = NetParams.init(v, net, substream(0, "init"))
            unlabeled = sorted(s.name for s in world.scenes_of_kind("unlabeled"))
            reports.append(ssl_step(params, ColumnMap(v), v, world, unlabeled, config, store)[2])
            worlds.append((world, store))
        (world, store), (plain, _) = worlds
        for key in ("new_entities", "pseudo_unary", "pseudo_binary"):
            assert getattr(reports[0], key) == getattr(reports[1], key)
        report, ha = reports[0], world.vocab.has_attribute
        n_boxes = sum(len(world.scene(name).members) for name in report.new_instances)
        assert 0 < len(report.new_entities) < n_boxes
        quads = [(ex["s"], ha, ex["o"], ex["t"]) for ex in report.pseudo_unary
                 if ex["fam"] != "Identity"]
        quads += [(ex["s"], ex["p"], ex["o"], ex["t"]) for ex in report.pseudo_binary]
        assert len(set(quads)) < len(quads)  # some boxes resolved to one entity
        ref = reference_ingest(plain)
        for quad in quads:
            if ref.truth_of(*quad) is UNKNOWN:
                ref.add_observation(*quad, True)
        assert list(store.iter_positive()) == list(ref.iter_positive())
        assert list(store.iter_negative()) == list(ref.iter_negative())
        assert all(store.truth_of(*q) is True for q in quads)

    def test_ssl_step_with_every_scene_skipped_changes_nothing(self, ssl_world):
        """When the vocabulary holds every scene's instance there is nothing to
        perceive: no growth, no training, and the report counts the scenes."""
        from bilayer.params import ColumnMap

        v = ssl_world.vocab
        unlabeled = sorted(s.name for s in ssl_world.scenes_of_kind("unlabeled"))
        for name in unlabeled:
            v.add_instance(name)
        params = NetParams.init(v, NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24),
                                substream(0, "init"))
        cmap = ColumnMap(v)
        before = {k: a.copy() for k, a in params.blocks().items()}
        digest = v.digest()
        store = ssl_world.build_store()
        n_statements = store.total_statements()
        got_params, got_cmap, report = ssl_step(params, cmap, v, ssl_world, unlabeled,
                                                TrainConfig(seed=1), store)
        assert got_params is params and got_cmap is cmap
        for name, block in params.blocks().items():
            assert block.tobytes() == before[name].tobytes(), name
        assert v.digest() == digest and store.total_statements() == n_statements
        assert report.skipped == len(unlabeled) > 0
        assert report.history == [] and report.new_instances == report.new_entities == []
        assert report.pseudo_unary == report.pseudo_binary == []

    @pytest.mark.parametrize("fault", ["scene-box", "member-box", "unknown-member", "twice"])
    def test_a_refused_step_leaves_nothing_behind(self, ssl_world, fault):
        """Every check that can refuse a step runs before the first instance is
        registered: a missing box, an unknown member or a scene listed twice
        leaves the vocabulary and the weights as they were.  The faulty scene
        comes last, after a good one."""
        v = ssl_world.vocab
        params = NetParams.init(
            v, NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24), substream(0, "init")
        )
        good, scene = ssl_world.scenes_of_kind("unlabeled")[:2]
        if fault == "scene-box":
            del ssl_world.feature_index[scene.scene_key]
            error, message = WorldError, f"no feature box {scene.scene_key!r}"
        elif fault == "member-box":
            scene.members.append(next(e for e in ssl_world.entities if e not in scene.members))
            error, message = WorldError, f"no feature box {scene.bb_key(scene.members[-1])!r}"
        elif fault == "unknown-member":  # with a box of its own
            scene.members.append("stranger")
            ssl_world.feature_index[scene.bb_key("stranger")] = len(ssl_world.features)
            ssl_world.features = np.vstack([ssl_world.features, ssl_world.features[:1]])
            error, message = VocabError, "unknown symbol 'stranger'"
        else:
            scene = good
            error, message = TrainError, f"scene {good.name!r} is listed twice"
        n, digest = len(v), v.digest()
        kind_counts, flat = params.kind_counts, params.flat.tobytes()
        with pytest.raises(error, match=re.escape(message)):
            ssl_step(params, ColumnMap(v), v, ssl_world, [good.name, scene.name],
                     TrainConfig(seed=0))
        assert (len(v), v.digest()) == (n, digest)
        assert params.kind_counts == kind_counts and params.flat.tobytes() == flat


class TestConsolidation:
    def test_validations(self):
        v = small_vocab()
        params, cmap = small_params(v)
        with pytest.raises(TrainError, match="instance"):
            consolidate(params, cmap, v, v.id_of("e0"))

    def test_duplicate_reproduces_the_original(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=30)
        tid = v.id_of("t1")
        pre = {
            sid: params.emb[:, cmap.col_of(sid)].copy() for sid in cmap.ids
        }
        orig_trace = decode(
            params, cmap, v,
            DecodeRequest(mode="episodic", instance_id=tid, winner_take_all=True),
            substream(0, "c"),
        )
        params, cmap, dup = consolidate(params, cmap, v, tid)
        assert v.name_of(dup) == "t1.dup"
        np.testing.assert_allclose(
            params.emb[:, cmap.col_of(dup)],
            params.emb[:, cmap.col_of(tid)],
            atol=2e-7, rtol=0,
        )
        for sid, before in pre.items():
            np.testing.assert_array_equal(params.emb[:, cmap.col_of(sid)], before)
        dup_trace = decode(
            params, cmap, v,
            DecodeRequest(mode="episodic", instance_id=dup, winner_take_all=True),
            substream(0, "c"),
        )
        assert dup_trace.subject_id == orig_trace.subject_id
        assert dup_trace.labels == orig_trace.labels
        assert dup_trace.object_id == orig_trace.object_id
        assert dup_trace.predicate_id == orig_trace.predicate_id
