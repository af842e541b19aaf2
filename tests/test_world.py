"""Synthetic world generation: ontology closure, deterministic sampling,
feature geometry, zero-shot holdout hygiene, store ingestion, export round
trips.  The orientation model gets a Monte-Carlo check against its closed form.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilayer.params import ParamError, write_archive
from bilayer.triple_store import UNKNOWN, TripleStore, write_jsonl
from bilayer.world import (
    EntityRecord,
    GroundTruthWorld,
    ONTOLOGY,
    SCENE_KINDS,
    SceneRecord,
    _build_pair_table,
    _compose_scene,
    _dump_json,
    _hold_out,
    _predicate_sampler,
    _scene_pool,
    FEATURES_FORMAT,
    FEATURES_VERSION,
    WorldConfig,
    WorldError,
    box_features,
    export_world,
    gen_world,
    load_world,
    read_features,
    scene_features,
    social_network,
    substream,
)

from util import (
    orientation_probability,
    read_jsonl,
    reference_compose_scene,
    reference_ingest,
    reference_jsonl,
)


class TestOntology:
    def test_class_tree_is_closed(self):
        onto = ONTOLOGY
        for b in onto.b_classes:
            p = onto.parent_of(b)
            assert p in onto.p_classes
            assert onto.top_of(p) in onto.g_classes
        with pytest.raises(WorldError):
            onto.parent_of("Ghost")
        with pytest.raises(WorldError):
            onto.top_of("Ghost")

    def test_risk_rule_covers_top_classes(self):
        onto = ONTOLOGY
        assert set(onto.risk_rule) == set(onto.g_classes)
        assert set(onto.risk_rule.values()) <= set(onto.risks)

    def test_family_members_match_declared_families(self):
        onto = ONTOLOGY
        members = onto.family_members()
        assert tuple(members) == onto.label_families
        assert members["BClass"] == onto.b_classes
        assert all(members[f] for f in onto.label_families)


class TestWorldConfig:
    def test_validation(self):
        with pytest.raises(WorldError):
            WorldConfig(n_entities=0)
        with pytest.raises(WorldError):
            WorldConfig(mean_entities_per_scene=1.0)
        with pytest.raises(WorldError):
            WorldConfig(unlabeled_fraction=1.0)
        with pytest.raises(WorldError):
            WorldConfig(zero_shot_fraction=-0.1)
        with pytest.raises(WorldError):
            WorldConfig(noise_sigma=-0.5)

    def test_test_scenes_need_test_entities(self):
        # with no test entities every test scene would be empty, and its
        # scene feature the NaN mean of no members
        with pytest.raises(WorldError, match="test entit"):
            WorldConfig(n_entities=30, n_scenes=10, n_test_entities=0, n_test_scenes=3, seed=5)
        config = WorldConfig(n_entities=30, n_scenes=10, n_test_entities=0, n_test_scenes=0, seed=5)
        world = gen_world(config)
        assert not world.test_entities
        assert np.all(np.isfinite(world.features))

    def test_round_trip(self):
        config = WorldConfig(n_entities=12, n_scenes=3, seed=4, owners=False)
        assert WorldConfig(**config.to_dict()) == config

    def test_an_int_passes_for_a_float(self):
        assert WorldConfig(noise_sigma=0).noise_sigma == 0

    def test_the_world_types_hold_only_what_a_loaded_world_has(self):
        """18 settings, no ontology (it is `ONTOLOGY`) and none of what only
        generation reads: the prototypes and latents, the predicate table,
        each scene's theme and which entities a scene may show."""
        assert len(fields(WorldConfig)) == 18
        assert not {"ontology", "prototypes", "pair_table"} & {
            f.name for f in fields(GroundTruthWorld)}
        assert [f.name for f in fields(EntityRecord)] == ["name", "labels"]
        assert [f.name for f in fields(SceneRecord)] == ["name", "kind", "members", "binaries"]


class TestSubstream:
    def test_reseeding_repeats_the_stream(self):
        a = substream(7, "x", 3).standard_normal(16)
        b = substream(7, "x", 3).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_tags_separate_streams(self):
        a = substream(7, "x").standard_normal(16)
        b = substream(7, "y").standard_normal(16)
        c = substream(8, "x").standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSocialNetwork:
    def test_needs_enough_persons(self):
        latents = {"a": np.ones(3), "b": np.ones(3)}
        with pytest.raises(WorldError, match="persons"):
            social_network(latents, k=2, beta=1.0, rng=substream(0, "s"))

    def test_edge_structure(self):
        rng = substream(3, "latents")
        latents = {f"p{i}": rng.normal(size=4) for i in range(8)}
        net = social_network(latents, k=3, beta=1.0, rng=substream(0, "s"))
        assert set(net) == set(latents)
        for name, edges in net.items():
            assert len(edges) == 3
            partners = set()
            for u, w in edges:
                assert name in (u, w) and u != w
                partners.add(w if u == name else u)
            assert len(partners) == 3  # k distinct acquaintances

    def test_orientation_matches_closed_form(self):
        la = np.array([1.2, -0.3, 0.8])
        lb = np.array([-0.5, 0.9, 0.4])
        p = orientation_probability(la, lb, beta=1.0)
        assert abs(p + orientation_probability(lb, la, beta=1.0) - 1.0) < 1e-12
        n = 2500
        wins = 0
        latents = {"a": la, "b": lb}
        for i in range(n):
            net = social_network(latents, k=1, beta=1.0, rng=substream(i, "mc"))
            (edge,) = net["a"]
            wins += edge == ("a", "b")
        sd = math.sqrt(n * p * (1 - p))
        assert abs(wins - p * n) <= 3 * sd

    def test_equal_norms_are_a_coin_flip(self):
        la = np.array([1.0, 0.0])
        lb = np.array([0.0, 1.0])
        assert orientation_probability(la, lb, beta=2.0) == pytest.approx(0.5)


CLEAN = WorldConfig(
    n_entities=40,
    n_scenes=8,
    mean_entities_per_scene=3.0,
    feature_dim=24,
    proto_dim=8,
    noise_sigma=0.0,
    scene_noise_sigma=0.0,
    theme_bias=1.0,
    n_test_entities=4,
    n_test_scenes=2,
    ex_split=False,
    owners=False,
    social=False,
    zero_shot_per_combo=1,
    seed=9,
)


@pytest.fixture(scope="module")
def clean_world():
    return gen_world(CLEAN)


class TestGeneration:
    # sha256 of the files that hold only the generator's draws and names (no
    # BLAS arithmetic), so they are the same on every machine.  A change here
    # is a change of the RNG consumption order or of the world's layout: a
    # behaviour change to declare in CHANGES.md, never to re-pin silently.
    PINNED = {
        "tiny": {
            "vocab.json": "58416bb4597115252bb9bbebd56785a21dc01074dd159abf4979f63ee03abee5",
            "world.json": "40b7e60d44b870db039ee17d2924cad13584477113ab56b217da1360930468dd",
            "triples.jsonl": "17ea5dbbce50ae7358fc04383f612592c6587c028712c2d8439f6ee3537e9251",
        },
        "default": {
            "vocab.json": "9ec9fce9e054612e5bd1d61f214b6bd7735ace541cdafbf264e2988e883aa66f",
            "world.json": "bc8e30921d5a87cd2022899a5c47b928bd37fb106c57939737540ddfc77a8a3e",
            "triples.jsonl": "2aaba830d4485c57376640f76d95b4a52fe2be7e9d438821e133358886654a6a",
        },
    }

    @pytest.mark.parametrize("which", sorted(PINNED))
    def test_seeded_world_files_match_pinned_digests(self, which, tiny_world, tmp_path):
        world = tiny_world if which == "tiny" else gen_world(WorldConfig(seed=0))
        export_world(world, str(tmp_path))
        for name, digest in self.PINNED[which].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_deterministic_rebuild(self):
        config = WorldConfig(
            n_entities=20, n_scenes=6, n_test_entities=3, n_test_scenes=1,
            feature_dim=24, proto_dim=8, unlabeled_fraction=0.2,
            zero_shot_per_combo=1, seed=7,
        )
        a = gen_world(config)
        b = gen_world(config)
        assert a.vocab.digest() == b.vocab.digest()
        assert [(s.name, s.kind, s.members, s.binaries) for s in a.scenes] == [
            (s.name, s.kind, s.members, s.binaries) for s in b.scenes
        ]
        assert a.feature_index == b.feature_index
        np.testing.assert_array_equal(a.features, b.features)
        assert a.heldout == b.heldout

    def test_scene_membership(self, clean_world):
        for scene in clean_world.scenes:
            assert len(scene.members) == len(set(scene.members))
            names = set(scene.members)
            for s, p, o in scene.binaries:
                assert s in names and o in names and s != o
                assert p in ONTOLOGY.scene_predicates

    def test_theme_bias_saturates(self, clean_world):
        # with bias 1.0 and large per-theme pools every member matches the
        # theme, a parent class or a colour
        for scene in clean_world.scenes_of_kind("train"):
            labels = [clean_world.entity_record(m).labels for m in scene.members]
            assert any(len({rec[fam] for rec in labels}) == 1 for fam in ("PClass", "Color"))

    def test_instance_registration(self, tiny_world):
        """A scene is an episodic instance exactly when its kind is train,
        ex_train, background or social, and every kind is one of `SCENE_KINDS`."""
        v = tiny_world.vocab
        kinds = {}
        for scene in tiny_world.scenes:
            assert scene.instance == (scene.name in v)
            kinds[scene.kind] = scene.instance
        assert kinds == {kind: kind in ("train", "ex_train", "background", "social")
                         for kind in SCENE_KINDS}

    def test_held_out_entities_stay_out_of_vocabulary(self, clean_world):
        v = clean_world.vocab
        assert clean_world.test_entities
        for name in clean_world.test_entities:
            assert name not in v
        for name in clean_world.entities:
            assert name in v

    def test_ex_split_mirrors_train_scenes(self):
        config = WorldConfig(
            n_entities=20, n_scenes=4, n_test_entities=2, n_test_scenes=1,
            feature_dim=24, proto_dim=8, owners=False, social=False,
            zero_shot_per_combo=1, seed=21,
        )
        world = gen_world(config)
        trains = {s.name: s for s in world.scenes_of_kind("train")}
        ex_train = world.scenes_of_kind("ex_train")
        ex_test = world.scenes_of_kind("ex_test")
        assert len(ex_train) == len(ex_test) == len(trains)
        for s in ex_train:
            twin = trains["t" + s.name[1:]]
            assert s.members == twin.members and s.binaries == twin.binaries
            assert s.instance and s.name in world.vocab
        for s in ex_test:
            assert not s.instance and s.name not in world.vocab
            # same underlying situation, independently re-rendered views
            twin = trains["t" + s.name[1:]]
            assert s.members == twin.members
            view_a, view_b = world.features_of([s.scene_key, twin.scene_key])
            assert not np.array_equal(view_a, view_b)

    def test_feature_coverage(self, clean_world):
        assert clean_world.features.shape == (len(clean_world.feature_index), 24)
        assert clean_world.features.dtype == np.float32
        feats = clean_world.feature_index
        for scene in clean_world.scenes_of_kind("train", "e_test"):
            assert scene.scene_key in feats
            for m in scene.members:
                assert scene.bb_key(m) in feats
            for i in range(len(scene.binaries)):
                assert scene.rel_key(i) in feats

    def test_every_featured_box_belongs_to_a_scene(self, tiny_world):
        keys = set()
        for scene in tiny_world.scenes:
            keys.add(scene.scene_key)
            keys.update(scene.bb_key(m) for m in scene.members)
            keys.update(scene.rel_key(i) for i in range(len(scene.binaries)))
        strays = sorted(set(tiny_world.feature_index) - keys)
        assert not strays, f"{len(strays)} boxes of no scene: {strays[:4]}"

    def test_noise_free_scene_feature_is_member_mean(self, clean_world):
        scene = clean_world.scenes_of_kind("train")[0]
        boxes = clean_world.features_of([scene.bb_key(m) for m in scene.members])
        np.testing.assert_allclose(
            clean_world.features_of([scene.scene_key])[0],
            np.mean(boxes.astype(np.float64), axis=0), atol=1e-6,
        )

    def test_box_features_cluster_by_class(self, clean_world):
        by_class: dict[str, list[np.ndarray]] = {}
        for scene in clean_world.scenes_of_kind("train"):
            for m in scene.members:
                cls = clean_world.entity_record(m).labels["BClass"]
                by_class.setdefault(cls, []).append(
                    clean_world.features_of([scene.bb_key(m)])[0].astype(np.float64)
                )
        by_class = {c: v for c, v in by_class.items() if len(v) >= 2}
        assert len(by_class) >= 2

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        within = []
        across = []
        classes = sorted(by_class)
        for ci in classes:
            boxes = by_class[ci]
            within.extend(cos(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1:])
            for cj in classes:
                if cj <= ci:
                    continue
                across.extend(cos(a, b) for a in boxes[:10] for b in by_class[cj][:10])
        assert np.mean(within) > np.mean(across)


class TestFeatureSynthesis:
    @staticmethod
    def _parts(seed: int, widths: tuple) -> tuple:
        rng = substream(seed, "parts")
        projection = rng.standard_normal((6, sum(widths)))
        return projection, [rng.standard_normal(w) for w in widths]

    def test_entity_box_without_noise_is_the_projection(self):
        projection, (proto, latent) = self._parts(1, (3, 2))
        rng = substream(0, "noise")
        state = rng.bit_generator.state
        out = box_features(projection, [proto, latent], 0.0, rng)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(
            out, (projection @ np.concatenate([proto, latent])).astype(np.float32))
        assert rng.bit_generator.state == state  # no noise, no draw

    def test_relation_box_without_noise_is_the_projection(self):
        projection, (ls, lo, proto) = self._parts(2, (2, 2, 3))
        out = box_features(projection, [ls, lo, proto], 0.0, substream(0, "noise"))
        assert out.dtype == np.float32
        np.testing.assert_array_equal(
            out, (projection @ np.concatenate([ls, lo, proto])).astype(np.float32))

    def test_scene_without_noise_is_the_member_mean(self):
        boxes = list(substream(3, "boxes").standard_normal((4, 6)).astype(np.float32))
        out = scene_features(boxes, 0.0, substream(0, "noise"))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, np.mean(boxes, axis=0), rtol=1e-6)

    def test_noise_is_seeded_and_scaled_by_sigma(self):
        projection, (proto, latent) = self._parts(4, (3, 2))
        clean = box_features(projection, [proto, latent], 0.0, substream(0, "n"))
        a = box_features(projection, [proto, latent], 0.5, substream(7, "n"))
        b = box_features(projection, [proto, latent], 0.5, substream(7, "n"))
        np.testing.assert_array_equal(a, b)
        want = clean + 0.5 * substream(7, "n").normal(0.0, 1.0, size=6)
        np.testing.assert_allclose(a, want, rtol=1e-5, atol=1e-5)


class TestSceneComposition:
    """The indexed `_compose_scene` against the pool-scanning reference: equal
    generators give equal scenes and leave equal generator states."""

    @given(
        labels=st.lists(
            st.tuples(st.sampled_from(ONTOLOGY.b_classes), st.sampled_from(ONTOLOGY.colors)),
            min_size=0, max_size=12,
        ),
        mean_k=st.floats(2.0, 14.0),
        theme_bias=st.sampled_from([0.0, 0.5, 1.0]),
        binary_per_scene=st.integers(0, 4),
        held_fraction=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pool_scanning_reference(
        self, labels, mean_k, theme_bias, binary_per_scene, held_fraction, seed
    ):
        onto = ONTOLOGY
        records = []
        for i, (b, color) in enumerate(labels):
            p = onto.parent_of(b)
            records.append(EntityRecord(
                name=f"e{i}", labels={"BClass": b, "PClass": p, "GClass": onto.top_of(p),
                                      "Color": color}))
        config = WorldConfig(mean_entities_per_scene=mean_k, theme_bias=theme_bias,
                             binary_per_scene=binary_per_scene)
        table = _build_pair_table(substream(seed, "table"))
        heldout_set = set(_hold_out(table, held_fraction, substream(seed, "held")))
        pool, predicates = _scene_pool(records), _predicate_sampler(table, heldout_set)
        fast, ref = substream(seed, "scenes"), substream(seed, "scenes")
        for i in range(3):
            args = (f"t{i}", "train")
            want = reference_compose_scene(*args, records, onto, config, table, heldout_set, ref)
            got = _compose_scene(*args, pool, config, predicates, fast)
            assert got == want
        assert fast.random() == ref.random()


class TestZeroShotHoldout:
    @staticmethod
    def _pair_table(config):
        """The predicate table `gen_world` draws the world's scenes from."""
        return _build_pair_table(substream(config.seed, "pair-table"))

    def test_every_pair_keeps_a_predicate(self, clean_world):
        table = self._pair_table(CLEAN)
        assert clean_world.heldout == _hold_out(table, CLEAN.zero_shot_fraction,
                                                substream(CLEAN.seed, "zero-shot"))
        removed: dict[tuple[str, str], int] = {}
        for cs, p, co in clean_world.heldout:
            assert p in dict(table[(cs, co)])
            removed[(cs, co)] = removed.get((cs, co), 0) + 1
        for pair, row in table.items():
            assert len(row) - removed.get(pair, 0) >= 1

    def test_pair_table_weights(self):
        onto = ONTOLOGY
        table = self._pair_table(CLEAN)
        assert set(table) == {
            (cs, co) for cs in onto.b_classes for co in onto.b_classes
        }
        for row in table.values():
            assert [w for _, w in row] == [0.70, 0.20, 0.10][: len(row)]
            preds = [p for p, _ in row]
            assert len(preds) == len(set(preds))
            assert all(p in onto.scene_predicates for p in preds)

    def test_no_scene_leaks_a_held_out_combo(self, clean_world):
        """Only the zero-shot views show a held-out combination."""
        held = set(clean_world.heldout)
        assert held, "holdout must not be empty for this test"
        scene_preds = set(ONTOLOGY.scene_predicates)
        for scene in clean_world.scenes:
            if scene.kind == "zero_shot":
                continue
            for s, p, o in scene.binaries:
                if p not in scene_preds:
                    continue
                combo = (
                    clean_world.entity_record(s).labels["BClass"],
                    p,
                    clean_world.entity_record(o).labels["BClass"],
                )
                assert combo not in held, f"{combo} leaked into scene {scene.name}"

    def test_zero_shot_views_show_held_out_combos(self, clean_world, tiny_world):
        """A zero-shot view is a scene of two entities a scene may show (no
        owner) and one binary statement of a held-out combination, never
        stored as an episode."""
        for world in (clean_world, tiny_world):
            held = set(world.heldout)
            owners = {o for scene in world.scenes_of_kind("background")
                      for _s, p, o in scene.binaries if p == "ownedBy"}
            views = world.scenes_of_kind("zero_shot")
            assert views
            for view in views:
                assert not view.instance and view.name not in world.vocab
                (s, p, o), = view.binaries
                assert view.members == [s, o] and s != o
                labels = [world.entity_record(e).labels["BClass"] for e in (s, o)]
                assert (labels[0], p, labels[1]) in held
                assert not {s, o} & owners
                for key in (view.scene_key, view.bb_key(s), view.bb_key(o), view.rel_key(0)):
                    assert key in world.feature_index
        assert owners, "the tiny world has owners"


class TestStoreIngestion:
    def test_train_scene_closed_world(self, tiny_world):
        v = tiny_world.vocab
        store = tiny_world.build_store()
        ha = v.has_attribute
        onto = ONTOLOGY
        scene = tiny_world.scenes_of_kind("train")[0]
        t = v.id_of(scene.name)
        for m in scene.members:
            rec = tiny_world.entity_record(m)
            e = v.id_of(m)
            for fam in onto.label_families:
                true_label = v.id_of(rec.labels[fam])
                for label_name in onto.family_members()[fam]:
                    got = store.truth_of(e, ha, v.id_of(label_name), t)
                    assert got is (v.id_of(label_name) == true_label)
        # every member pair is closed over the scene predicates
        positives = {(s, p, o) for s, p, o in scene.binaries}
        for s in scene.members:
            for o in scene.members:
                if s == o:
                    continue
                for p in onto.scene_predicates:
                    got = store.truth_of(v.id_of(s), v.id_of(p), v.id_of(o), t)
                    assert got is ((s, p, o) in positives)

    def test_background_scenes_close_only_nonvisual_predicates(self, tiny_world):
        v = tiny_world.vocab
        store = tiny_world.build_store()
        scenes = tiny_world.scenes_of_kind("background")
        assert scenes, "owners enabled, so background scenes must exist"
        scene = scenes[0]
        t = v.id_of(scene.name)
        dog, owner = scene.members
        assert store.truth_of(v.id_of(dog), v.id_of("ownedBy"), v.id_of(owner), t) is True
        assert store.truth_of(v.id_of(owner), v.id_of("ownedBy"), v.id_of(dog), t) is False
        got = store.truth_of(v.id_of(dog), v.id_of("near"), v.id_of(owner), t)
        assert got is UNKNOWN  # scene predicates are not closed here

    def test_social_scenes_assert_no_labels(self, tiny_world):
        v = tiny_world.vocab
        store = tiny_world.build_store()
        scenes = tiny_world.scenes_of_kind("social")
        assert scenes, "tiny world is big enough for a social network"
        scene = scenes[0]
        t = v.id_of(scene.name)
        ha = v.has_attribute
        member = scene.members[0]
        rec = tiny_world.entity_record(member)
        label = v.id_of(rec.labels["BClass"])
        assert store.truth_of(v.id_of(member), ha, label, t) is UNKNOWN
        s, p, o = scene.binaries[0]
        assert store.truth_of(v.id_of(s), v.id_of(p), v.id_of(o), t) is True


    @pytest.mark.parametrize("social", [True, False])
    def test_default_worlds_pass_the_record_checks(self, social):
        """A generated scene lists each member once and states only what its
        members do, so the checks of the bulk build never refuse it."""
        world = gen_world(WorldConfig(seed=2, social=social))
        assert bool(world.scenes_of_kind("social")) is social
        for scene in world.scenes:
            assert len(set(scene.members)) == len(scene.members)
            assert all(s in scene.members and o in scene.members for s, _, o in scene.binaries)
        store, ref = world.build_store(), reference_ingest(world)
        np.testing.assert_array_equal(store.positive_array(), ref.positive_array())
        assert list(store.iter_negative()) == list(ref.iter_negative())


class TestExport:
    def test_feature_archive_round_trip(self, tmp_path):
        matrix = substream(0, "f").standard_normal((2, 8)).astype(np.float32)
        base = str(tmp_path / "features")
        write_archive(base, FEATURES_FORMAT, FEATURES_VERSION, {"keys": ["b:rel0", "a"]},
                      [("features", matrix)], np.float32)
        loaded, index = read_features(base, 8)
        assert index == {"b:rel0": 0, "a": 1}
        np.testing.assert_array_equal(loaded, matrix)
        assert loaded.dtype == np.float32 and loaded.flags.writeable

    def test_read_features_rejects_foreign_manifest(self, tmp_path):
        base = str(tmp_path / "features")
        with open(base + ".json", "w") as fp:
            json.dump({"format": "other"}, fp)
        with open(base + ".bin", "wb") as fp:
            fp.write(b"")
        with pytest.raises(ParamError, match="not a bilayer-features manifest"):
            read_features(base, 8)

    def test_archive_holds_one_matrix_and_its_keys_in_row_order(self, clean_world, tmp_path):
        export_world(clean_world, str(tmp_path))
        doc = json.loads((tmp_path / "features.json").read_text(encoding="utf-8"))
        assert (doc["format"], doc["version"]) == ("bilayer-features", 2)
        n, dim = clean_world.features.shape
        assert doc["tensors"] == [{"name": "features", "shape": [n, dim], "offset": 0,
                                   "nbytes": n * dim * 4}]
        assert doc["keys"] == list(clean_world.feature_index)
        assert [clean_world.feature_index[k] for k in doc["keys"]] == list(range(n))
        blob = (tmp_path / "features.bin").read_bytes()
        assert doc["blob_sha256"] == hashlib.sha256(blob).hexdigest()
        assert blob == clean_world.features.astype("<f4").tobytes()

    def test_a_loaded_world_equals_the_generated_one(self, tiny_world, tmp_path):
        """`load_world` of an export holds every field `gen_world` made, equal
        field by field and in the same order: the vocabulary numbers each
        symbol as the generated one does, and each entity lists its labels in
        family order.  The store is a cache that each side builds itself."""
        export_world(tiny_world, str(tmp_path))
        loaded = load_world(str(tmp_path))
        for f in fields(GroundTruthWorld):
            made, read = getattr(tiny_world, f.name), getattr(loaded, f.name)
            if f.name == "vocab":
                assert [(made.name_of(i), made.kind_of(i)) for i in range(len(made))] == [
                    (read.name_of(i), read.kind_of(i)) for i in range(len(read))]
                assert made.families == read.families
            elif f.name == "features":
                assert made.dtype == read.dtype
                np.testing.assert_array_equal(made, read)
            elif f.name in ("entities", "test_entities"):
                assert made == read, f.name
                assert [list(r.labels.items()) for r in made.values()] == [
                    list(r.labels.items()) for r in read.values()], f.name
            elif f.name != "_store":
                assert made == read, f.name

    def test_world_json_holds_each_fact_once(self, tiny_world, tmp_path):
        """An entity is a row of its name and its labels in family order, a
        scene holds its name, kind, members and binary statements, and
        nothing else sits beside them but the held-out combinations."""
        export_world(tiny_world, str(tmp_path))
        doc = json.loads((tmp_path / "world.json").read_text(encoding="utf-8"))
        assert sorted(doc) == ["entities", "heldout", "scenes", "test_entities"]
        for key in ("entities", "test_entities"):
            records = getattr(tiny_world, key).values()
            assert doc[key] == [
                [r.name, *(r.labels[fam] for fam in ONTOLOGY.label_families)] for r in records]
        assert {tuple(sorted(scene)) for scene in doc["scenes"]} == {
            ("binaries", "kind", "members", "name")}

    def test_export_load_reexport_is_byte_identical(self, clean_world, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        files = export_world(clean_world, str(first))
        loaded = load_world(str(first))
        export_world(loaded, str(second))
        for name in files:
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b, f"{name} changed across a load/export round trip"

    def test_rebuilt_store_matches_original(self, clean_world, tmp_path):
        outdir = tmp_path / "w"
        assert "negatives.jsonl" not in export_world(clean_world, str(outdir))
        assert not (outdir / "negatives.jsonl").exists()
        original = clean_world.build_store()
        listed = TripleStore(clean_world.vocab)
        with open(outdir / "triples.jsonl", encoding="utf-8") as fp:
            read_jsonl(listed, fp)
        np.testing.assert_array_equal(listed.positive_array(), original.positive_array())
        reloaded = load_world(str(outdir)).build_store()
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_jsonl(original, buf_a)
        write_jsonl(reloaded, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        assert set(reloaded.iter_negative()) == set(original.iter_negative()) != set()

    def test_json_documents_put_one_element_on_a_line(self):
        doc = {"b": [{"y": 1, "x": "ä"}, [1, 2]], "a": {"k2": [], "k1": {"z": None}},
               "c": [], "d": {}, "e": 1.5}
        text = _dump_json(doc)
        assert text == (
            '{\n"a": {\n"k1": {"z": null},\n"k2": []\n},\n'
            '"b": [\n{"x": "\\u00e4", "y": 1},\n[1, 2]\n],\n'
            '"c": [],\n"d": {},\n"e": 1.5\n}\n'
        )
        assert json.loads(text) == doc

    def test_seeded_export_is_byte_identical_and_matches_reference(self, tmp_path):
        # a default-size world: both statement files run to several write chunks
        config = WorldConfig(seed=21)
        worlds = [gen_world(config), gen_world(config)]
        dirs = [tmp_path / "one", tmp_path / "two"]
        files = [export_world(w, str(outdir)) for w, outdir in zip(worlds, dirs)]
        assert files[0] == files[1]
        for name in files[0]:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        store = worlds[0].build_store()
        text = (dirs[0] / "triples.jsonl").read_text(encoding="utf-8")
        assert text == reference_jsonl(store, True)
        assert set(store.iter_negative()) == set(reference_ingest(worlds[0]).iter_negative())
