"""Example construction, index swapping, the optimizer, the training loop,
self-labeled growth, and consolidation."""
from __future__ import annotations

import io

import numpy as np
import pytest

from bilayer import graph, training
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
    examples_from_rows,
    injection_pool,
    memory_examples,
    perception_examples,
    ssl_step,
    train,
    write_history_csv,
)
from bilayer.triple_store import UNKNOWN, TripleStore
from bilayer.world import WorldConfig, gen_world, substream

from util import (
    copying_ce_head,
    dict_table,
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
    small_params,
    small_vocab,
    store_from_records,
    table_rows,
)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(inject_rho=1.5)
        with pytest.raises(TrainError):
            TrainConfig(dropout=1.0)
        with pytest.raises(TrainError):
            TrainConfig(modes=("episodic", "dreaming"))
        with pytest.raises(TrainError):
            TrainConfig(direct=True)  # direct needs perception-only modes
        TrainConfig(direct=True, modes=("perception",))

    @pytest.mark.parametrize("key", ["modes", "hidden_families", "excluded_families"])
    def test_refuses_a_bare_string_for_a_list(self, key):
        with pytest.raises(TrainError, match=key):
            TrainConfig(**{key: "Risk"})
        assert TrainConfig(**{key: ["episodic"]}).to_dict()[key] == ["episodic"]

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
            (v.id_of("e1"), ha, v.id_of("Old"), v.id_of("t1"), False),
        ]
        return store_from_records(v, rows)

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
        vectors = {f.tobytes() for f in tiny_world.features.values()}
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
        assert table_rows(unary) == keyed_rows(ref_unary, tiny_world.features)
        assert table_rows(binary) == keyed_rows(ref_binary, tiny_world.features)

    def test_pseudo_dicts_convert_row_for_row(self, tiny_world):
        # self-labeled statements arrive as dicts of this layout
        v = tiny_world.vocab
        ref_unary, ref_binary = reference_perception_examples(tiny_world, v)
        for rows, arity in ((ref_unary, "unary"), (ref_binary, "binary")):
            table = examples_from_rows(rows, arity, v, tiny_world.features)
            assert table_rows(table) == keyed_rows(rows, tiny_world.features)
            assert table_rows(table[:7]) == keyed_rows(rows[:7], tiny_world.features)
        assert len(examples_from_rows([], "binary", v, tiny_world.features)) == 0

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
        assert batch.fam_target_cols["Species"].tolist() == [cmap.col_of(dog)]

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
    """Batches equal field for field, bit for bit (family dicts in any order)."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.mode, a.arity, a.direct) == (b.mode, b.arity, b.direct)
        for name in ("inst_cols", "subj_inject_cols", "obj_inject_cols", "pred_cols",
                     "feat_scene", "feat_subj", "feat_obj", "feat_pred"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None), name
            if x is not None:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert sorted(a.fam_rows) == sorted(b.fam_rows)
        for fam in a.fam_rows:
            assert a.fam_rows[fam].dtype == b.fam_rows[fam].dtype
            assert a.fam_rows[fam].tolist() == b.fam_rows[fam].tolist()
            assert a.fam_target_cols[fam].tolist() == b.fam_target_cols[fam].tolist()


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
            features = tiny_world.features
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
                ident = a.fam_rows["Identity"]
                assert np.array_equal(b.subj_inject_cols[ident], a.subj_inject_cols[ident])
                for row in a.fam_rows["Species"]:
                    assert b.subj_inject_cols[row] in pools[a.subj_inject_cols[row]]
                # family targets keep the entity's own labels
                for fam in a.fam_rows:
                    assert np.array_equal(a.fam_target_cols[fam], b.fam_target_cols[fam])
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
        entity = set(cmap.entity_cols.tolist())
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


def _reference_adam_step(opt_state, params, grads, lr, emb_col_mask):
    """Textbook Adam (b1 0.9, b2 0.999, eps 1e-8) written as plain expressions
    over fresh temporaries: the reference the buffered Adam.step must match
    bit for bit.  With a column mask only the embedding blocks move."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    opt_state["t"] += 1
    t = opt_state["t"]
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for name, p in params.blocks().items():
        if emb_col_mask is not None and name not in ("emb", "emb_up"):
            continue
        g = grads[name]
        m, v = opt_state["m"][name], opt_state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
        if emb_col_mask is not None and name in ("emb", "emb_up"):
            update = update * emb_col_mask
        p -= update.astype(p.dtype)


class TestAdam:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("tied", [True, False])
    def test_matches_reference_bit_for_bit(self, dtype, tied, masked):
        v = small_vocab()
        params, cmap = small_params(v, dtype=dtype, tied=tied, seed=3)
        ref = params.copy()
        lr = 3e-3
        mask = (np.arange(cmap.n_columns) % 3 != 0).astype(params.emb.dtype) if masked else None
        opt = Adam(params, lr, mask)
        stepped = [k for k in ref.blocks() if not masked or k in ("emb", "emb_up")]
        state = {
            "t": 0,
            "m": {k: np.zeros_like(ref.blocks()[k]) for k in stepped},
            "v": {k: np.zeros_like(ref.blocks()[k]) for k in stepped},
        }
        rng = substream(3, "grads")
        for _ in range(6):
            grads = {
                k: rng.standard_normal(a.shape).astype(a.dtype)
                for k, a in params.blocks().items()
            }
            opt.step(params, grads)
            _reference_adam_step(state, ref, grads, lr, mask)
        assert sorted(opt.m) == sorted(opt.v) == sorted(stepped)
        for name, arr in ref.blocks().items():
            np.testing.assert_array_equal(params.blocks()[name], arr)
        for name in stepped:
            np.testing.assert_array_equal(opt.m[name], state["m"][name])
            np.testing.assert_array_equal(opt.v[name], state["v"][name])

    def test_single_step_closed_form(self):
        v = small_vocab()
        params, _ = small_params(v, dtype="float64")
        grads = {k: np.zeros_like(a) for k, a in params.blocks().items()}
        g = np.linspace(-1.0, 1.0, params.pooled.size)
        grads["pooled"] = g.copy()
        before = {k: a.copy() for k, a in params.blocks().items()}
        opt = Adam(params, learning_rate=0.1)
        opt.step(params, grads)
        # after one step the bias corrections cancel: update = lr * g / (|g| + eps)
        want = before["pooled"] - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(params.pooled, want, rtol=1e-12)
        for name in before:
            if name != "pooled":
                np.testing.assert_array_equal(params.blocks()[name], before[name])

    @pytest.mark.parametrize("tied", [True, False])
    def test_frozen_blocks_stay_bit_identical(self, tied):
        """A column mask steps only the embedding blocks: the context,
        pooled and encoder weights keep their bits, and no moments are kept
        for them."""
        v = small_vocab()
        params, cmap = small_params(v, tied=tied)
        grads = {k: np.ones_like(a) for k, a in params.blocks().items()}
        before = {k: a.copy() for k, a in params.blocks().items()}
        opt = Adam(params, 0.05, np.ones(cmap.n_columns, dtype=params.emb.dtype))
        opt.step(params, grads)
        embedding = {"emb"} if tied else {"emb", "emb_up"}
        assert set(opt.m) == set(opt.v) == embedding
        for name, arr in params.blocks().items():
            if name in embedding:
                assert not np.array_equal(arr, before[name])
            else:
                np.testing.assert_array_equal(arr, before[name])

    @pytest.mark.parametrize("tied", [True, False])
    def test_column_mask_pins_embedding_columns(self, tied):
        v = small_vocab()
        params, cmap = small_params(v, tied=tied)
        grads = {k: np.ones_like(a) for k, a in params.blocks().items()}
        before = {k: a.copy() for k, a in params.blocks().items()}
        mask = np.zeros(cmap.n_columns, dtype=params.emb.dtype)
        mask[cmap.entity_cols] = 1.0
        opt = Adam(params, 0.05, mask)
        opt.step(params, grads)
        moved = cmap.entity_cols
        held = np.setdiff1d(np.arange(cmap.n_columns), moved)
        for name in ("emb",) if tied else ("emb", "emb_up"):
            assert not np.array_equal(params.blocks()[name][:, moved], before[name][:, moved])
            np.testing.assert_array_equal(params.blocks()[name][:, held], before[name][:, held])


def _memory_setup(seed: int = 0):
    v = small_vocab(n_entities=6, n_instances=4)
    params, cmap = small_params(v, seed=seed)
    store = store_from_records(v, random_records(v, substream(seed, "rec"), 40, 10))
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
            modes=("episodic", "semantic"), dropout=0.2,
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
        mask[cmap.instance_cols] = 1.0
        before = {k: a.copy() for k, a in params.blocks().items()}
        train(params, cmap, v, store, config, emb_col_mask=mask)
        for name in ("ctx_in", "ctx_rec", "ctx_out", "pooled", "enc_w", "enc_b"):
            np.testing.assert_array_equal(params.blocks()[name], before[name])
        held = np.setdiff1d(np.arange(cmap.n_columns), cmap.instance_cols)
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
        # recognition covered every box of every scene
        for name in unlabeled:
            boxes = {row["box"] for row in report.recognized[name]}
            assert boxes == set(ssl_world.scene(name).members)
            for row in report.recognized[name]:
                assert row["entity"] is not None

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

    @pytest.mark.parametrize("chunk", [None, 2])
    def test_ssl_pseudo_statements_follow_the_reference_walk(self, ssl_world, chunk, monkeypatch):
        from bilayer import network
        from bilayer.params import ColumnMap

        if chunk is not None:  # labeling and relation runs then interleave
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
        novel = [row["novel"] for rows in report.recognized.values() for row in rows]
        assert any(novel) and not all(novel)
        feats = ssl_world.features
        labels = [ex for ex in report.pseudo_unary if ex["fam"] != "Identity"]
        assert labels and report.pseudo_binary
        for ex in labels:
            ref = reference_decode(params, v, DecodeRequest(
                mode="perception", features=SceneInput(feats[ex["scene"]], feats[ex["bb"]]),
                instance_id=ex["t"], subject_id=ex["s"], winner_take_all=True,
            ))
            assert ex["o"] == ref["labels"][ex["fam"]]
        for ex in report.pseudo_binary:
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
        for key in ("new_entities", "recognized", "pseudo_unary", "pseudo_binary"):
            assert getattr(reports[0], key) == getattr(reports[1], key)
        report, ha = reports[0], world.vocab.has_attribute
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

    def test_ssl_step_rejects_featureless_scene(self, ssl_world):
        from bilayer.params import ColumnMap

        v = ssl_world.vocab
        params = NetParams.init(
            v, NetConfig(rep_dim=16, ctx_dim=8, feature_dim=24), substream(0, "init")
        )
        scene = ssl_world.scenes_of_kind("unlabeled")[0]
        del ssl_world.features[scene.scene_key]
        with pytest.raises(TrainError, match="features"):
            ssl_step(
                params, ColumnMap(v), v, ssl_world, [scene.name], TrainConfig(seed=0)
            )


class TestConsolidation:
    def test_validations(self):
        v = small_vocab()
        params, cmap = small_params(v)
        with pytest.raises(TrainError, match="instance"):
            consolidate(params, cmap, v, v.id_of("e0"))
        with pytest.raises(TrainError, match="steps"):
            consolidate(params, cmap, v, v.id_of("t0"), steps=0)
        with pytest.raises(TrainError, match="step_size"):
            consolidate(params, cmap, v, v.id_of("t0"), step_size=1.5)

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
