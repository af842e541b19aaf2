"""Metric primitives, teacher-forced head metrics, decode pipelines, and the
experiment harness (on a small trained model shared across the test session).
"""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from bilayer import evaluation, graph, network
from bilayer.evaluation import (
    EXPERIMENTS,
    EvalContext,
    EvalError,
    MetricReport,
    check_experiments,
    head_metrics,
    label_conditional_estimate,
    perception_binary_eval,
    perception_unary_eval,
    run_experiment,
    target_ranks,
)
from bilayer.graph import Batch
from bilayer.network import DecodeRequest, decode
from bilayer.params import ColumnMap, NetConfig
from bilayer.training import TrainConfig, memory_examples, ssl_step
from bilayer.triple_store import TripleStore
from bilayer.world import WorldConfig, gen_world, substream

from util import group_cols, ranked_cols, small_params, small_vocab, table_rows


class TestElementaryMetrics:
    def test_ranked_cols_is_stable(self):
        scores = np.array([0.4, 0.9, 0.4, 0.1])
        assert ranked_cols(scores).tolist() == [1, 0, 2, 3]

    def test_ranked_cols_ranks_each_row(self):
        scores = np.array([[0.4, 0.9, 0.4, 0.1], [0.0, 0.0, 0.5, 0.5]])
        assert ranked_cols(scores).tolist() == [[1, 0, 2, 3], [2, 3, 0, 1]]

    @pytest.mark.parametrize("width", [1, 11, 365])
    @pytest.mark.parametrize("signed", [False, True])
    def test_target_ranks_equal_the_place_in_the_full_ranking(self, width, signed):
        """On scores full of ties, integer-valued or +0.0 against -0.0 among
        ±inf, each target's counted rank is its place in the stable
        descending sort, so hits at every k agree."""
        rng = substream(2, "ranks", width, signed)
        if signed:
            scores = rng.choice([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf], size=(200, width))
        else:
            scores = rng.integers(-3, 4, size=(200, width)).astype(float)
        targets = rng.integers(0, width, size=200)
        is_target = ranked_cols(scores) == targets[:, None]
        ranks = target_ranks(scores, targets)
        assert ranks.tolist() == np.argmax(is_target, axis=1).tolist()
        for k in (1, 10, width):
            assert (ranks < k).sum() == is_target[:, :k].any(axis=1).sum()


@pytest.fixture()
def ctx(tiny_world, tiny_store, tiny_model):
    params, cmap, _ = tiny_model
    return EvalContext(
        world=tiny_world,
        store=tiny_store,
        vocab=tiny_world.vocab,
        params=params,
        cmap=cmap,
        seed=1,
        train_config=TrainConfig(epochs=2, batch_size=64, learning_rate=3e-3, seed=1),
    )


class TestHeadMetrics:
    def test_structure_and_ranges(self, tiny_model, tiny_store, tiny_world):
        params, cmap, _ = tiny_model
        unary, binary = memory_examples(tiny_store, tiny_world.vocab)
        m = head_metrics(params, cmap, unary, binary, "episodic")
        assert m["n_unary"] == len(unary) and m["n_binary"] == len(binary)
        assert np.isfinite(m["loss"])
        for value in m["families"].values():
            assert 0.0 <= value <= 1.0
        assert set(m["heads"]) <= {"NS", "NO", "NP"}
        assert m["predicate_hits"]["10"] >= m["predicate_hits"]["1"]
        assert m["object_hits"]["10"] >= m["object_hits"]["1"]
        non_identity = [v for f, v in m["families"].items() if f != "Identity"]
        assert min(non_identity) <= m["unary_top1"] <= max(non_identity)
        assert "identity_top1" in m

    def test_batch_size_invariance(self, tiny_model, tiny_store, tiny_world):
        params, cmap, _ = tiny_model
        unary, binary = memory_examples(tiny_store, tiny_world.vocab)
        a = head_metrics(params, cmap, unary, binary, "episodic", batch_size=512)
        b = head_metrics(params, cmap, unary, binary, "episodic", batch_size=64)
        assert a["families"] == b["families"]
        assert a["heads"] == b["heads"]
        assert a["predicate_hits"] == b["predicate_hits"]

    def test_hits_at_one_is_the_head_top1(self, tiny_model, tiny_store, tiny_world):
        params, cmap, _ = tiny_model
        unary, binary = memory_examples(tiny_store, tiny_world.vocab)
        for mode in ("episodic", "semantic"):
            m = head_metrics(params, cmap, unary, binary, mode)
            assert m["predicate_hits"]["1"] == m["heads"]["NP"]
            assert m["object_hits"]["1"] == m["heads"]["NO"]

    def test_the_full_ranking_hits_every_target(self, tiny_model, tiny_store, tiny_world):
        params, cmap, _ = tiny_model
        unary, binary = memory_examples(tiny_store, tiny_world.vocab)
        n_pred, n_obj = group_cols(cmap, "predicate").size, group_cols(cmap, "concept").size
        m = head_metrics(params, cmap, unary, binary, "episodic", ks=(1, n_pred, n_obj))
        assert m["predicate_hits"][str(n_pred)] == 1.0
        assert m["object_hits"][str(n_obj)] == 1.0
        assert m["predicate_hits"]["1"] <= m["predicate_hits"][str(n_obj)]

    @pytest.mark.parametrize("arity", ["unary", "binary"])
    @pytest.mark.parametrize("mode", ["episodic", "semantic", "perception"])
    def test_graph_and_decoder_agree_on_clamped_pass(self, tiny_model, tiny_world, mode, arity):
        """Every head the graph scores equals the score block a winner-take-all
        decode clamped to the batch's instance, subject and object reads:
        the two walk the schedule with the same step functions."""
        params, cmap, _ = tiny_model
        perceiving = mode == "perception"
        rng = substream(0, "agree", mode, arity)
        fams = sorted(f for f, cols in cmap.family_cols.items() if cols.size)
        b = len(fams)  # a unary row per family

        def draw(cols):
            return cols[rng.integers(0, cols.size, size=b)]

        fields = {"subj_inject_cols": draw(group_cols(cmap, "entity"))}
        if mode != "semantic":
            fields["inst_cols"] = draw(group_cols(cmap, "instance"))
        if arity == "unary":
            fields["label_rows"] = np.arange(b)
            fields["label_fams"] = np.array([cmap.families.index(f) for f in fams])
            fields["label_target_cols"] = np.concatenate([
                cmap.family_cols[f][rng.integers(0, cmap.family_cols[f].size, size=1)]
                for f in fams
            ])
        else:
            fields["obj_inject_cols"] = draw(group_cols(cmap, "entity"))
            fields["pred_cols"] = draw(group_cols(cmap, "predicate"))
        boxes = ("feat_scene", "feat_subj")
        if arity == "binary":
            boxes += ("feat_obj", "feat_pred")
        if perceiving:
            dim = params.config.feature_dim
            fields.update({box: rng.standard_normal((b, dim)) for box in boxes})
        batch = Batch(mode=mode, arity=arity, **fields)
        _, cache = graph.forward(params, cmap, batch)

        def symbol(key, i):
            return int(cmap.ids[fields[key][i]]) if key in fields else None

        requests = [
            DecodeRequest(
                mode=mode, winner_take_all=True,
                features=network.SceneInput(*(fields[box][i] for box in boxes))
                if perceiving else None,
                instance_id=symbol("inst_cols", i), subject_id=symbol("subj_inject_cols", i),
                object_id=symbol("obj_inject_cols", i),
            )
            for i in range(b)
        ]
        traces = network.decode_many(params, cmap, tiny_world.vocab, requests, substream(0, "d"))

        def decoded(key):
            return np.stack([t.scores[key] for t in traces])

        steps = {"NT": "instance", "NS": "subject", "NO": "object", "NP": "predicate"}
        want_heads = {
            ("perception", "unary"): {"NT", "NS"}, ("perception", "binary"): set(steps),
            ("episodic", "unary"): {"NS"}, ("episodic", "binary"): {"NS", "NO", "NP"},
            ("semantic", "unary"): set(), ("semantic", "binary"): {"NO", "NP"},
        }[mode, arity]
        assert set(cache["heads"]) == want_heads
        for key, h in cache["heads"].items():
            np.testing.assert_allclose(h["scores"], decoded(steps[key]), rtol=1e-5, atol=1e-6)
        if arity == "binary":
            return
        label_scores = decoded("label")
        h = cache["identity"]
        pos = cmap.pos("concept", cmap.family_cols["Identity"])
        np.testing.assert_allclose(
            h["scores"], label_scores[h["rows"]][:, pos], rtol=1e-5, atol=1e-6
        )
        h = cache["labels"]
        assert sorted([cmap.families[k] for k in h["codes"]] + ["Identity"]) == fams
        for j, (i, k) in enumerate(zip(h["rows"], h["codes"])):
            fcols = cmap.family_cols[cmap.families[k]]
            np.testing.assert_allclose(
                h["scores"][j, fcols - cmap.block["label"].start],
                label_scores[i, cmap.pos("concept", fcols)], rtol=1e-5, atol=1e-6,
            )


class TestLabelConditional:
    def test_family_probabilities_normalize(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        v = tiny_world.vocab
        dog = v.id_of("Dog")
        fam_members = sorted(v.families["PClass"])
        probs = [
            label_conditional_estimate(params, cmap, v, dog, c2) for c2 in fam_members
        ]
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_family_free_target(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        v = tiny_world.vocab
        with pytest.raises(EvalError, match="family"):
            label_conditional_estimate(params, cmap, v, v.id_of("Dog"), v.id_of("near"))


class TestPerceptionPipelines:
    def test_unary_eval_structure(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        v = tiny_world.vocab
        scenes = tiny_world.scenes_of_kind("ex_test")
        out = perception_unary_eval(params, cmap, v, tiny_world, scenes, "samp")
        fams = sorted(f for f in v.families if f != "Identity")
        assert sorted(out["families"]) == fams
        assert out["mean_unary"] == pytest.approx(
            np.mean([out["families"][f] for f in fams])
        )
        assert out["n_boxes"] == sum(len(s.members) for s in scenes)
        # ex_test members are vocabulary entities, so subject accuracy exists
        assert "subject_top1" in out and out["n_known_subjects"] == out["n_boxes"]

    def test_unary_eval_on_unknown_entities(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        scenes = tiny_world.scenes_of_kind("e_test")
        out = perception_unary_eval(
            params, cmap, tiny_world.vocab, tiny_world, scenes, "sa"
        )
        assert "subject_top1" not in out  # held-out entities have no index units

    def test_unary_eval_of_no_family_reports_none(self, tiny_model, tiny_world):
        """An empty family list, as when every label family is hidden or
        excluded, scores no family; it does not fall back to all of them."""
        params, cmap, _ = tiny_model
        scenes = tiny_world.scenes_of_kind("ex_test")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = perception_unary_eval(params, cmap, tiny_world.vocab, tiny_world, scenes,
                                        "samp", families=())
        assert out["families"] == {} and np.isnan(out["mean_unary"])
        assert out["n_boxes"] == sum(len(s.members) for s in scenes)

    def test_unary_eval_rejects_empty(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        with pytest.raises(EvalError):
            perception_unary_eval(params, cmap, tiny_world.vocab, tiny_world, [], "samp")

    def test_unknown_variant(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        scenes = tiny_world.scenes_of_kind("ex_test")
        with pytest.raises(EvalError, match="variant"):
            perception_unary_eval(
                params, cmap, tiny_world.vocab, tiny_world, scenes, "turbo"
            )

    def test_binary_eval_structure(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        v = tiny_world.vocab
        scenes = tiny_world.scenes_of_kind("ex_test")
        examples = []
        for scene in scenes:
            for i, (s, p, o) in enumerate(scene.binaries):
                examples.append(
                    {"scene": scene.scene_key, "s_bb": scene.bb_key(s),
                     "o_bb": scene.bb_key(o), "rel": scene.rel_key(i), "p": p}
                )
        out = perception_binary_eval(params, cmap, v, tiny_world, examples, "samp")
        assert out["n"] == len(examples)
        assert out["chance"] == pytest.approx(1.0 / len(v.binary_predicates))
        hits = out["predicate_hits"]
        assert 0.0 <= hits["1"] <= hits["10"] <= 1.0
        with pytest.raises(EvalError):
            perception_binary_eval(params, cmap, v, tiny_world, [], "samp")


    def test_results_do_not_depend_on_the_decode_runs(self, tiny_model, tiny_world, monkeypatch):
        params, cmap, _ = tiny_model
        v = tiny_world.vocab
        scenes = tiny_world.scenes_of_kind("ex_test")
        examples = [
            {"scene": sc.scene_key, "s_bb": sc.bb_key(s), "o_bb": sc.bb_key(o),
             "rel": sc.rel_key(i), "p": p}
            for sc in scenes for i, (s, p, o) in enumerate(sc.binaries)
        ]

        def run():
            return [
                (perception_unary_eval(params, cmap, v, tiny_world, scenes, variant),
                 perception_binary_eval(params, cmap, v, tiny_world, examples, variant))
                for variant in ("samp", "sa", "direct")
            ]

        whole = run()
        monkeypatch.setattr(network, "DECODE_CHUNK", 2)
        assert run() == whole


class TestMetricReport:
    def _report(self):
        return MetricReport(
            experiment="demo",
            metrics={"a": 0.5, "nested": {"z": 1.0, "b": {"k": 2}}, "tag": "text"},
            counts={"rows": 7},
            fingerprint="f" * 64,
            wall_clock_s=1.25,
        )

    def test_volatile_fields(self):
        rep = self._report()
        assert "wall_clock_s" in rep.to_dict()
        assert "wall_clock_s" not in rep.to_dict(volatile=False)

    def test_rows_flatten_numerics_only(self):
        rows = self._report().rows()
        assert ("demo", "a", 0.5) in rows
        assert ("demo", "nested.b.k", 2.0) in rows
        assert ("demo", "nested.z", 1.0) in rows
        assert ("demo", "n.rows", 7.0) in rows
        assert all(name != "tag" for _, name, _ in rows)


@pytest.fixture(scope="module")
def bare_world():
    """A world without an unlabeled shard or a social network."""
    return gen_world(WorldConfig(n_entities=30, n_scenes=8, n_test_entities=4, n_test_scenes=2,
                                 zero_shot_per_combo=2, unlabeled_fraction=0.0, social=False,
                                 seed=5))


class TestCheckExperiments:
    def test_accepts_every_experiment_the_world_feeds(self, tiny_world):
        check_experiments(sorted(EXPERIMENTS), tiny_world, tiny_world.vocab)

    def test_an_empty_list_passes(self, bare_world):
        check_experiments([], bare_world, bare_world.vocab)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_an_unknown_name_is_refused_wherever_it_stands(self, tiny_world, at):
        names = ["episodic-recall", "semantic-recall"]
        names.insert(at, "daydreaming")
        with pytest.raises(EvalError, match="unknown experiment 'daydreaming'"):
            check_experiments(names, tiny_world, tiny_world.vocab)

    @pytest.mark.parametrize("name, lack", [
        ("ssl-before-after", "no unlabeled shard"),
        ("social-recall", "no social instances"),
    ])
    def test_refuses_what_the_world_cannot_feed(self, bare_world, name, lack):
        with pytest.raises(EvalError, match=f"^{name}: world has {lack}"):
            check_experiments(["episodic-recall", name], bare_world, bare_world.vocab)
        check_experiments(sorted(set(EXPERIMENTS) - {"ssl-before-after", "social-recall"}),
                          bare_world, bare_world.vocab)

    def test_run_experiment_refuses_before_running(self, ctx, bare_world, monkeypatch):
        ran = []
        monkeypatch.setitem(EXPERIMENTS, "ssl-before-after", lambda c: ran.append(c))
        bare = EvalContext(world=bare_world, store=ctx.store, vocab=ctx.vocab, params=ctx.params,
                           cmap=ctx.cmap, seed=ctx.seed, train_config=ctx.train_config)
        with pytest.raises(EvalError, match="no unlabeled shard"):
            run_experiment("ssl-before-after", bare)
        assert ran == []


class TestExperimentHarness:
    def test_unknown_experiment_lists_names(self, ctx):
        with pytest.raises(EvalError, match="zero-shot-binary"):
            run_experiment("daydreaming", ctx)

    def test_registry_covers_every_scenario(self):
        assert sorted(EXPERIMENTS) == [
            "consolidation-fidelity",
            "episodic-recall",
            "hidden-label-enrichment",
            "perception-binary",
            "perception-unary",
            "semantic-recall",
            "social-recall",
            "ssl-before-after",
            "zero-shot-binary",
        ]

    def test_episodic_recall_report(self, ctx):
        rep = run_experiment("episodic-recall", ctx)
        assert rep.experiment == "episodic-recall"
        assert len(rep.fingerprint) == 64
        assert 0.0 <= rep.metrics["unary_top1"] <= 1.0
        assert rep.counts["unary"] > 0 and rep.counts["binary"] > 0
        again = run_experiment("episodic-recall", ctx)
        assert again.to_dict(volatile=False) == rep.to_dict(volatile=False)

    def test_semantic_recall_carries_conditionals(self, ctx):
        rep = run_experiment("semantic-recall", ctx)
        cond = rep.metrics["conditionals"]["Dog->Mammal"]
        assert 0.0 <= cond["estimate"] <= 1.0
        assert cond["oracle"] == 1.0  # taxonomy: every dog is a mammal
        assert cond["abs_err"] == pytest.approx(abs(cond["estimate"] - 1.0))

    def test_social_recall_reports_edges(self, ctx):
        rep = run_experiment("social-recall", ctx)
        assert rep.counts["edges"] > 0
        assert 0.0 <= rep.metrics["predicate_top1"] <= 1.0

    def test_zero_shot_reads_the_worlds_held_out_combos(self, ctx):
        rep = run_experiment("zero-shot-binary", ctx)
        assert rep.metrics["held_out_combos"] == len(ctx.world.heldout) > 0
        views = ctx.world.scenes_of_kind("zero_shot")
        assert rep.counts["examples"] == sum(len(view.binaries) for view in views)

    def test_zero_shot_refuses_a_held_out_combo_a_train_scene_shows(self, ctx):
        scene = ctx.world.scenes_of_kind("train")[0]
        s, p, o = scene.binaries[0]
        combo = tuple(ctx.world.entity_record(e).labels["BClass"] for e in (s, o))
        leaky = dataclasses.replace(ctx.world, heldout=[(combo[0], p, combo[1])])
        with pytest.raises(EvalError, match="held-out combos appear in training scenes"):
            run_experiment("zero-shot-binary", dataclasses.replace(ctx, world=leaky))

    def test_consolidation_fidelity(self, ctx, tiny_model):
        params, _, _ = tiny_model
        before = params.emb.copy()
        rep = run_experiment("consolidation-fidelity", ctx)
        assert rep.metrics["preexisting_bitwise"] is True
        assert 0.0 <= rep.metrics["match_fraction"] <= 1.0
        assert rep.metrics["instance"] in ctx.vocab
        np.testing.assert_array_equal(params.emb, before)  # session model untouched

    def test_consolidation_targets_the_instance_with_the_most_positives(self, ctx):
        store = ctx.store
        want = max(store.observed_instances(), key=lambda t: (len(store.positives_at(t)), -t))
        rep = run_experiment("consolidation-fidelity", ctx)
        assert rep.metrics["instance"] == ctx.vocab.name_of(want)

    def test_consolidation_without_true_statements(self, ctx):
        """With no true statement the target is the lowest observed instance,
        and a store that observed nothing is refused."""
        v = small_vocab()
        params, cmap = small_params(v)
        store = TripleStore(v)
        bare = dataclasses.replace(ctx, vocab=v, params=params, cmap=cmap, store=store)
        with pytest.raises(EvalError, match="no instances to consolidate"):
            EXPERIMENTS["consolidation-fidelity"](bare)
        near = v.id_of("near")
        store.close_instances([(v.id_of(t), [v.id_of("e0"), v.id_of("e1")], [], [near])
                               for t in ("t2", "t1")])
        metrics, counts = EXPERIMENTS["consolidation-fidelity"](bare)
        assert metrics["instance"] == "t1" and counts == {"subjects": 0}

    def test_consolidation_fidelity_on_an_ssl_grown_vocabulary(self, ctx):
        """Consolidation copies the grown vocabulary and grows it once more;
        the shared fixture vocabulary stays as it was."""
        vocab = ctx.vocab.copy()
        digest = ctx.vocab.digest()
        unlabeled = [s.name for s in ctx.world.scenes_of_kind("unlabeled")]
        params, cmap, report = ssl_step(ctx.params.copy(), ColumnMap(vocab), vocab, ctx.world,
                                        unlabeled, ctx.config_with(ssl_epochs=1))
        assert report.new_instances and vocab.extends(ctx.vocab) and len(vocab) > len(ctx.vocab)
        grown = dataclasses.replace(ctx, vocab=vocab, params=params, cmap=cmap)
        n_grown = len(vocab)
        rep = run_experiment("consolidation-fidelity", grown)
        assert rep.metrics["preexisting_bitwise"] is True
        assert np.isfinite(rep.metrics["match_fraction"])
        assert len(vocab) == n_grown and ctx.vocab.digest() == digest
        assert all(name not in ctx.vocab for name in report.new_instances)

    @pytest.mark.parametrize("kind, frozen", [
        ("classes", False), ("entities", True),
        ("attributes", False), ("binary_predicates", False),
    ])
    def test_ssl_frozen_flag_reads_every_column_ssl_does_not_train(
            self, ctx, monkeypatch, kind, frozen):
        """`frozen_blocks_bitwise` compares the class, attribute and predicate
        columns of the embedding by symbol: one such column nudged after the
        step turns it false, while an entity column, which SSL trains, may
        move."""
        real_ssl_step = evaluation.ssl_step

        def nudged(*args, **kwargs):
            params, cmap, report = real_ssl_step(*args, **kwargs)
            params.emb[0, cmap.col_of(getattr(ctx.vocab, kind)[0])] += 1e-3
            return params, cmap, report

        monkeypatch.setattr(evaluation, "ssl_step", nudged)
        assert run_experiment("ssl-before-after", ctx).metrics["frozen_blocks_bitwise"] is frozen

    def test_fingerprint_tracks_inputs(self, ctx, tiny_world, tiny_store, tiny_model):
        rep = run_experiment("episodic-recall", ctx)
        params, cmap, _ = tiny_model
        other = EvalContext(
            world=tiny_world, store=tiny_store, vocab=tiny_world.vocab,
            params=params, cmap=cmap, seed=ctx.seed + 1,
            train_config=ctx.train_config,
        )
        rep2 = run_experiment("episodic-recall", other)
        assert rep.fingerprint != rep2.fingerprint
        assert rep.metrics == rep2.metrics  # same frozen model, different context tag
        widths = EvalContext(
            world=tiny_world, store=tiny_store, vocab=tiny_world.vocab,
            params=params, cmap=cmap, seed=ctx.seed, train_config=ctx.train_config,
            net_config=NetConfig(rep_dim=24, feature_dim=tiny_world.config.feature_dim),
        )
        assert run_experiment("episodic-recall", widths).fingerprint != rep.fingerprint
