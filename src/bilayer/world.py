"""Synthetic relational world: entities with layered labels, scenes, features.

The world stands in for an annotated image corpus.  Entities carry one label
per family: a base class, its parent class, its top class (closed upward
through a fixed subclass forest), an age, a color, and an activity, plus a
risk label derived from a hidden rule (living things are Dangerous).  Scenes
are sets of entities with a few binary statements whose predicate frequencies
depend on the (subject class, object class) pair, so class-level regularities
exist to be learned.  The classes, labels and predicates are one constant,
`ONTOLOGY`; what varies between worlds is a flat `WorldConfig`, the document
`bilayer gen --config` reads and every exported world's `config.json` holds.

Feature vectors replace a vision backbone: a fixed random projection of the
entity's class prototype concatenated with its private latent vector, plus
fresh Gaussian noise per view.  The prototypes and latents live only inside
`gen_world`, so a loaded world holds what a generated one does.  Age and
activity are deliberately absent from features (a single view cannot show
them; only memory can recover them) and risk labels are never shown to
perception.  Every view the world shows is a scene, a zero-shot view of a
held-out (class, predicate, class) combination included, and each of its
boxes (the scene box, its entity boxes, its relation boxes) is one row of
one float32 matrix, found by its key; the feature archive stores that matrix
and its keys in row order as one tensor of the shared archive format
(`params.write_archive`).

The record file `world.json` holds each fact once: an entity is a row of its
name and its labels in family order, a scene its name, kind (which decides
whether it is an episodic instance), members and binary statements.  What
only generation reads (the predicate table, scene themes, which entities a
scene may show) stays inside `gen_world`.  Generated and loaded worlds are
numbered by one constructor: `gen_world` hands its name lists to
`Vocabulary.from_dict`, as `load_world` hands it `vocab.json`.  A record that
does not fit is refused with one line that names it.  `load_world` refuses a
wrong shape, and a scene that is no instance and lists a member twice or
states something of a non-member; resolving the names (`resolve_scenes`,
`resolve_labels`) refuses an instance scene with either fault, and an entity
with another family's label in a family's place.
"""
from __future__ import annotations

import bisect
import json
import os
import zlib
from dataclasses import dataclass, fields, asdict
from itertools import chain

import numpy as np

from .params import check_types, read_json, read_manifest, read_tensors, write_archive
from .triple_store import TripleStore, write_jsonl
from .vocab import VocabError, Vocabulary


class WorldError(ValueError):
    pass


def substream(seed: int, *tags: str | int) -> np.random.Generator:
    """Deterministic named child generator."""
    parts = [seed & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, int):
            parts.append(tag & 0xFFFFFFFF)
        else:
            parts.append(zlib.crc32(tag.encode("utf-8")))
    return np.random.default_rng(parts)


@dataclass(frozen=True)
class Ontology:
    """The symbols every world is made of: a forest of top classes over
    parent classes over base classes, the values of the attribute families,
    the rule that gives each top class its risk, and the predicates.  Its
    one instance is the constant `ONTOLOGY`; no world file carries it."""

    g_children: dict[str, list[str]]
    p_children: dict[str, list[str]]
    ages: tuple[str, ...]
    colors: tuple[str, ...]
    activities: tuple[str, ...]
    risks: tuple[str, ...]
    risk_rule: dict[str, str]
    scene_predicates: tuple[str, ...]
    nonvisual_predicates: tuple[str, ...]
    social_predicate: str
    owned_class: str
    owner_class: str

    @property
    def b_classes(self) -> tuple:
        return tuple(b for ps in self.p_children.values() for b in ps)

    @property
    def p_classes(self) -> tuple:
        return tuple(self.p_children)

    @property
    def g_classes(self) -> tuple:
        return tuple(self.g_children)

    def parent_of(self, b: str) -> str:
        for p, bs in self.p_children.items():
            if b in bs:
                return p
        raise WorldError(f"{b!r} has no parent class")

    def top_of(self, p: str) -> str:
        for g, ps in self.g_children.items():
            if p in ps:
                return g
        raise WorldError(f"{p!r} has no top class")

    @property
    def label_families(self) -> tuple:
        return ("BClass", "PClass", "GClass", "Age", "Color", "Activity", "Risk")

    def family_members(self) -> dict[str, tuple]:
        return {
            "BClass": self.b_classes,
            "PClass": self.p_classes,
            "GClass": self.g_classes,
            "Age": self.ages,
            "Color": self.colors,
            "Activity": self.activities,
            "Risk": self.risks,
        }


ONTOLOGY = Ontology(
    g_children={"LivingBeing": ["Mammal", "Bird"], "NonLivingBeing": ["Vehicle", "Furniture"]},
    p_children={
        "Mammal": ["Dog", "Cat", "Person"], "Bird": ["Sparrow", "Owl"],
        "Vehicle": ["Car", "Bus", "Bike"], "Furniture": ["Chair", "Table"],
    },
    ages=("Young", "Old"),
    colors=("Black", "White", "Brown", "Green", "Gray"),
    activities=("Resting", "Moving", "Eating", "Watching"),
    risks=("Dangerous", "Harmless"),
    risk_rule={"LivingBeing": "Dangerous", "NonLivingBeing": "Harmless"},
    scene_predicates=("near", "on", "under", "behind", "looksAt", "chases", "holds", "passes"),
    nonvisual_predicates=("ownedBy", "lovedBy"),
    social_predicate="knows",
    owned_class="Dog",
    owner_class="Person",
)

SOCIAL_K = 5        # acquaintances per person in the social network
SOCIAL_BETA = 1.0   # how sharply `social_network` orients an edge


@dataclass
class WorldConfig:
    """The settings of a world: the flat document `bilayer gen --config`
    reads and every world's `config.json` holds."""

    n_entities: int = 300
    n_scenes: int = 120
    mean_entities_per_scene: float = 4.0
    binary_per_scene: int = 3
    feature_dim: int = 48
    proto_dim: int = 12
    noise_sigma: float = 0.3
    scene_noise_sigma: float = 0.15
    theme_bias: float = 0.7
    n_test_entities: int = 40
    n_test_scenes: int = 15
    ex_split: bool = True
    unlabeled_fraction: float = 0.0
    owners: bool = True
    social: bool = True
    zero_shot_fraction: float = 0.10
    zero_shot_per_combo: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        check_types("world", self, WorldError)
        if self.n_entities < 1 or self.n_scenes < 1:
            raise WorldError("need at least one entity and one scene")
        if self.mean_entities_per_scene < 2:
            raise WorldError("scenes need two entities on average for binary statements")
        if not (0 <= self.unlabeled_fraction < 1):
            raise WorldError("unlabeled_fraction must be in [0, 1)")
        if not (0 <= self.zero_shot_fraction < 1):
            raise WorldError("zero_shot_fraction must be in [0, 1)")
        if self.noise_sigma < 0 or self.scene_noise_sigma < 0:
            raise WorldError("noise levels must be nonnegative")
        if self.n_test_scenes > 0 and self.n_test_entities < 1:
            raise WorldError("test scenes need at least one test entity")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EntityRecord:
    """An entity's name and its label in each family, in the order of
    `ONTOLOGY.label_families`.  Its latent vector, and whether a scene may
    show it (an owner is not shown), live only inside `gen_world`."""

    name: str
    labels: dict[str, str]  # family -> label name


INSTANCE_KINDS = ("train", "ex_train", "background", "social")
SCENE_KINDS = INSTANCE_KINDS + ("ex_test", "e_test", "unlabeled", "zero_shot")


@dataclass
class SceneRecord:
    """A scene: its members, its binary statements and its kind, one of
    `SCENE_KINDS`.  The kind decides whether the scene is an episodic
    instance; the theme that composed it lives only inside `gen_world`."""

    name: str
    kind: str
    members: list[str]
    binaries: list[tuple[str, str, str]]

    @property
    def instance(self) -> bool:
        """Whether the scene is registered as an episodic instance."""
        return self.kind in INSTANCE_KINDS

    @property
    def scene_key(self) -> str:
        return f"scene:{self.name}"

    def bb_key(self, entity: str) -> str:
        return f"bb:{self.name}:{entity}"

    def rel_key(self, i: int) -> str:
        return f"rel:{self.name}:{i}"

    def box_keys(self) -> list[str]:
        """The keys of the scene's boxes: its own, its members' in member
        order, then its relations' in statement order."""
        name = self.name
        return [f"scene:{name}", *[f"bb:{name}:{m}" for m in self.members],
                *[f"rel:{name}:{i}" for i in range(len(self.binaries))]]


@dataclass
class GroundTruthWorld:
    """A world, the same whether generated or loaded: `load_world` of an
    export holds every field `gen_world` made.  Its symbols come from
    `ONTOLOGY`.  `features` holds one float32 row per box, `(n_boxes,
    feature_dim)`, and `feature_index` maps each box's key (a scene's
    `SceneRecord.scene_key`, `bb_key` or `rel_key`) to its row.  Rows are in
    generation order, and `feature_index` lists its keys in row order.
    `heldout` lists the (class, predicate, class) combinations no train scene
    shows.  What only made the world is not kept: the class prototypes and
    entity latents behind the features, the predicate table the scenes drew
    from, each scene's theme and which entities a scene may show."""

    config: WorldConfig
    vocab: Vocabulary
    entities: dict[str, EntityRecord]
    test_entities: dict[str, EntityRecord]
    scenes: list[SceneRecord]
    features: np.ndarray
    feature_index: dict[str, int]
    heldout: list[tuple[str, str, str]]
    _store: TripleStore | None = None

    def entity_record(self, name: str) -> EntityRecord:
        rec = self.entities.get(name) or self.test_entities.get(name)
        if rec is None:
            raise WorldError(f"unknown entity {name!r}")
        return rec

    def features_of(self, keys: list[str]) -> np.ndarray:
        """The feature rows of `keys`, in their order, in one gather.  A key
        the feature archive lacks is refused."""
        try:
            rows = list(map(self.feature_index.__getitem__, keys))
        except KeyError as exc:
            raise WorldError(f"features.json lists no feature box {exc.args[0]!r}") from None
        return self.features[rows]

    def scenes_of_kind(self, *kinds: str) -> list[SceneRecord]:
        return [s for s in self.scenes if s.kind in kinds]

    def scene(self, name: str) -> SceneRecord:
        for s in self.scenes:
            if s.name == name:
                return s
        raise WorldError(f"unknown scene {name!r}")

    def build_store(self) -> TripleStore:
        if self._store is None:
            self._store = _ingest(self)
        return self._store


# -- feature synthesis -----------------------------------------------------------


def box_features(
    projection: np.ndarray, parts: list[np.ndarray], sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """A box's view: `projection` of its concatenated `parts` (an entity box's
    class prototype and latent; a relation box's subject latent, object latent
    and predicate prototype), plus fresh N(0, sigma) noise."""
    base = projection @ np.concatenate(parts)
    if sigma > 0:
        base = base + rng.normal(0.0, sigma, size=base.shape)
    return base.astype(np.float32)


def scene_features(
    member_boxes: list[np.ndarray], sigma: float, rng: np.random.Generator
) -> np.ndarray:
    base = np.mean(member_boxes, axis=0)
    if sigma > 0:
        base = base + rng.normal(0.0, sigma, size=base.shape)
    return base.astype(np.float32)


# -- generation --------------------------------------------------------------------


def _draw(seq: tuple, rng: np.random.Generator):
    """`rng.choice(seq)` without its array conversion: the same single draw."""
    return seq[int(rng.integers(len(seq)))]


def _draw_entity(name: str, rng: np.random.Generator, protos) -> tuple[EntityRecord, np.ndarray]:
    """An entity's labels and its latent vector: its colour's prototype plus
    standard normal noise."""
    onto = ONTOLOGY
    b = _draw(onto.b_classes, rng)
    p = onto.parent_of(b)
    g = onto.top_of(p)
    labels = {
        "BClass": b,
        "PClass": p,
        "GClass": g,
        "Age": _draw(onto.ages, rng),
        "Color": _draw(onto.colors, rng),
        "Activity": _draw(onto.activities, rng),
        "Risk": onto.risk_rule[g],
    }
    latent = protos[labels["Color"]] + rng.normal(size=protos[b].shape)
    return EntityRecord(name=name, labels=labels), latent


def _build_pair_table(rng: np.random.Generator):
    weights = (0.70, 0.20, 0.10)
    table: dict[tuple[str, str], list[tuple[str, float]]] = {}
    preds = list(ONTOLOGY.scene_predicates)
    for cs in ONTOLOGY.b_classes:
        for co in ONTOLOGY.b_classes:
            picks = rng.choice(len(preds), size=min(3, len(preds)), replace=False)
            table[(cs, co)] = [(preds[int(i)], weights[j]) for j, i in enumerate(picks)]
    return table


def _hold_out(table, fraction, rng) -> list[tuple[str, str, str]]:
    combos = [(cs, p, co) for (cs, co), row in sorted(table.items()) for p, _ in row]
    n_hold = int(round(fraction * len(combos)))
    order = rng.permutation(len(combos))
    held: list[tuple[str, str, str]] = []
    removed: dict[tuple[str, str], int] = {}
    for idx in order:
        if len(held) >= n_hold:
            break
        cs, p, co = combos[int(idx)]
        pair = (cs, co)
        if len(table[pair]) - removed.get(pair, 0) <= 1:
            continue  # a pair must keep at least one expressible predicate
        removed[pair] = removed.get(pair, 0) + 1
        held.append((cs, p, co))
    return sorted(held)


def _predicate_sampler(table, heldout_set) -> dict[tuple[str, str], tuple[list[str], list[float]]]:
    """Per (subject class, object class) pair with a predicate left after the
    hold-out: those predicates and the cumulative distribution of their
    weights, normalized as `Generator.choice` normalizes `p`."""
    sampler = {}
    for (cs, co), row in table.items():
        row = [(p, w) for p, w in row if (cs, p, co) not in heldout_set]
        if row:
            weights = np.array([w for _, w in row], dtype=np.float64)
            weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            sampler[(cs, co)] = ([p for p, _ in row], cdf.tolist())
    return sampler


def _sample_predicate(sampler, cs, co, rng) -> str | None:
    """`rng.choice(len(row), p=weights)` over the pair's row: the same single
    uniform draw, looked up in the precomputed distribution."""
    entry = sampler.get((cs, co))
    if entry is None:
        return None
    preds, cdf = entry
    return preds[bisect.bisect_right(cdf, rng.random())]


@dataclass
class _ScenePool:
    """An entity pool indexed once for scene composition: its records in pool
    order and, per (family, label) theme, the positions of the theme's members
    in that order."""
    records: list[EntityRecord]
    themes: dict[tuple[str, str], list[int]]


def _scene_pool(records: list[EntityRecord]) -> _ScenePool:
    themes: dict[tuple[str, str], list[int]] = {}
    for pos, rec in enumerate(records):
        for theme in rec.labels.items():
            themes.setdefault(theme, []).append(pos)
    return _ScenePool(records, themes)


def _nth_free(j: int, taken: list[int]) -> int:
    """The j-th (from 0) non-negative integer not in `taken`, a sorted list."""
    for c in taken:
        if c > j:
            break
        j += 1
    return j


def _compose_scene(name, kind, pool: _ScenePool, config, predicates, rng) -> SceneRecord:
    """A scene of k distinct members drawn from `pool` around a theme (a parent
    class or a colour), then up to `binary_per_scene` binary statements among
    them, their predicates drawn from `predicates` (`_predicate_sampler`).
    While the theme has unchosen members, each pick takes one of them
    with probability `theme_bias`; otherwise it takes any unchosen member.  A
    pick draws j over the unchosen candidates and takes the j-th of them in
    pool order, found by stepping past the sorted positions already chosen, so
    a scene costs O(k^2) whatever the size of the pool."""
    if rng.random() < 0.5:
        fam, label = "PClass", _draw(ONTOLOGY.p_classes, rng)
    else:
        fam, label = "Color", _draw(ONTOLOGY.colors, rng)
    records = pool.records
    themed = pool.themes.get((fam, label), [])
    k = 2 + int(rng.poisson(config.mean_entities_per_scene - 2))
    k = min(k, len(records))
    picked: list[EntityRecord] = []
    taken: list[int] = []         # chosen pool positions, sorted
    taken_themed: list[int] = []  # chosen indices into `themed`, sorted
    for _ in range(k):
        use_theme = themed and rng.random() < config.theme_bias
        if use_theme and len(taken_themed) < len(themed):
            j = int(rng.integers(len(themed) - len(taken_themed)))
            pos = themed[_nth_free(j, taken_themed)]
        else:  # k <= len(records), so an unchosen member is left
            pos = _nth_free(int(rng.integers(len(records) - len(taken))), taken)
        bisect.insort(taken, pos)
        at = bisect.bisect_left(themed, pos)
        if at < len(themed) and themed[at] == pos:
            bisect.insort(taken_themed, at)
        picked.append(records[pos])
    members = [rec.name for rec in picked]
    binaries: list[tuple[str, str, str]] = []
    if len(picked) >= 2:
        seen = set()
        for _ in range(config.binary_per_scene):
            for _try in range(10):
                i, j = rng.choice(len(picked), size=2, replace=False)
                s, o = picked[int(i)], picked[int(j)]
                p = _sample_predicate(predicates, s.labels["BClass"], o.labels["BClass"], rng)
                if p is not None and (s.name, p, o.name) not in seen:
                    seen.add((s.name, p, o.name))
                    binaries.append((s.name, p, o.name))
                    break
    return SceneRecord(name=name, kind=kind, members=members, binaries=binaries)


def _scene_view_features(scene: SceneRecord, records, protos, latents, cfg: WorldConfig, rng,
                         boxes: dict[str, np.ndarray]) -> None:
    """Add the scene's boxes to `boxes`: each member's entity box, the scene
    box, then each binary statement's relation box."""
    proj_ent = protos["_proj_entity"]
    proj_rel = protos["_proj_relation"]
    members = []
    for name in scene.members:
        b = records[name].labels["BClass"]
        feat = box_features(proj_ent, [protos[b], latents[name]], cfg.noise_sigma, rng)
        boxes[scene.bb_key(name)] = feat
        members.append(feat.astype(np.float64))
    boxes[scene.scene_key] = scene_features(members, cfg.scene_noise_sigma, rng)
    for i, (s, p, o) in enumerate(scene.binaries):
        parts = [latents[s], latents[o], protos[p]]
        boxes[scene.rel_key(i)] = box_features(proj_rel, parts, cfg.noise_sigma, rng)


def social_network(
    latents: dict[str, np.ndarray], k: int, beta: float, rng: np.random.Generator
) -> dict[str, list[tuple[str, str]]]:
    """Per person: k oriented acquaintance edges to the highest-scoring others.

    Candidate score is the inner product of the two vectors.  Each selected
    pair is oriented by sampling: orientation s->s' wins with probability
    w(s,s') / (w(s,s') + w(s',s)) where w(s,s') = exp(beta*|s|) / |s + s'|.
    """
    names = sorted(latents)
    if len(names) < k + 1:
        raise WorldError(f"need at least {k + 1} persons, have {len(names)}")
    mat = np.stack([latents[n] for n in names])
    scores = mat @ mat.T
    np.fill_diagonal(scores, -np.inf)
    out: dict[str, list[tuple[str, str]]] = {}
    norms = np.linalg.norm(mat, axis=1)
    for i, name in enumerate(names):
        top = np.argsort(-scores[i])[:k]
        edges = []
        for j in top:
            j = int(j)
            denom = max(float(np.linalg.norm(mat[i] + mat[j])), 1e-12)
            w_ij = float(np.exp(beta * norms[i])) / denom
            w_ji = float(np.exp(beta * norms[j])) / denom
            if rng.random() < w_ij / (w_ij + w_ji):
                edges.append((name, names[j]))
            else:
                edges.append((names[j], name))
        out[name] = edges
    return out


def gen_world(config: WorldConfig) -> GroundTruthWorld:
    onto = ONTOLOGY
    seed = config.seed

    proto_rng = substream(seed, "prototypes")
    protos: dict[str, np.ndarray] = {}
    for name in (
        list(onto.b_classes) + list(onto.colors) + list(onto.activities)
        + list(onto.scene_predicates) + list(onto.nonvisual_predicates) + [onto.social_predicate]
    ):
        protos[name] = proto_rng.normal(size=config.proto_dim)
    protos["_proj_entity"] = proto_rng.normal(
        size=(config.feature_dim, 2 * config.proto_dim)
    ) / np.sqrt(2 * config.proto_dim)
    protos["_proj_relation"] = proto_rng.normal(
        size=(config.feature_dim, 3 * config.proto_dim)
    ) / np.sqrt(3 * config.proto_dim)

    latents: dict[str, np.ndarray] = {}  # entity name -> latent, for the feature synthesis
    ent_rng = substream(seed, "entities")
    entities: dict[str, EntityRecord] = {}
    for i in range(config.n_entities):
        rec, latents[f"e{i:04d}"] = _draw_entity(f"e{i:04d}", ent_rng, protos)
        entities[rec.name] = rec

    owners: list[tuple[str, str]] = []  # (owned entity, owner entity)
    if config.owners:
        own_rng = substream(seed, "owners")
        owned = [e for e in entities.values() if e.labels["BClass"] == onto.owned_class]
        for i, dog in enumerate(owned):
            rec, latents[f"w{i:04d}"] = _draw_entity(f"w{i:04d}", own_rng, protos)
            rec.labels["BClass"] = onto.owner_class
            rec.labels["PClass"] = onto.parent_of(onto.owner_class)
            rec.labels["GClass"] = onto.top_of(rec.labels["PClass"])
            rec.labels["Risk"] = onto.risk_rule[rec.labels["GClass"]]
            entities[rec.name] = rec
            owners.append((dog.name, rec.name))

    test_rng = substream(seed, "test-entities")
    test_entities: dict[str, EntityRecord] = {}
    for i in range(config.n_test_entities):
        rec, latents[f"v{i:04d}"] = _draw_entity(f"v{i:04d}", test_rng, protos)
        test_entities[rec.name] = rec

    table_rng = substream(seed, "pair-table")
    table = _build_pair_table(table_rng)
    heldout = _hold_out(table, config.zero_shot_fraction, substream(seed, "zero-shot"))
    predicates = _predicate_sampler(table, set(heldout))

    scene_rng = substream(seed, "scenes")
    hidden = {owner for _, owner in owners}  # no scene shows an owner
    visual = [e for e in entities.values() if e.name not in hidden]
    visual_pool = _scene_pool(visual)
    scenes: list[SceneRecord] = []
    n_unlabeled = int(round(config.unlabeled_fraction * config.n_scenes))
    for i in range(config.n_scenes):
        unlabeled = i >= config.n_scenes - n_unlabeled
        scenes.append(
            _compose_scene(
                f"u{i:04d}" if unlabeled else f"t{i:04d}",
                "unlabeled" if unlabeled else "train",
                visual_pool,
                config,
                predicates,
                scene_rng,
            )
        )
    test_pool = _scene_pool(list(test_entities.values()))
    for i in range(config.n_test_scenes):
        scenes.append(
            _compose_scene(f"g{i:04d}", "e_test", test_pool, config, predicates, scene_rng)
        )

    if config.ex_split:
        for scene in [s for s in scenes if s.kind == "train"]:
            for prefix, kind in (("x", "ex_train"), ("y", "ex_test")):
                scenes.append(SceneRecord(name=prefix + scene.name[1:], kind=kind,
                                          members=list(scene.members),
                                          binaries=list(scene.binaries)))

    for i, (dog, owner) in enumerate(owners):
        binaries = [(dog, "ownedBy", owner)]
        if substream(seed, "affection", i).random() < 0.5:
            binaries.append((dog, "lovedBy", owner))
        scenes.append(
            SceneRecord(name=f"b{i:04d}", kind="background", members=[dog, owner],
                        binaries=binaries)
        )

    persons = {
        name: latents[name]
        for name, rec in entities.items()
        if rec.labels["BClass"] == onto.owner_class
    }
    if config.social and len(persons) >= SOCIAL_K + 1:
        per_person = social_network(persons, SOCIAL_K, SOCIAL_BETA, substream(seed, "social"))
        for i, name in enumerate(sorted(per_person)):
            edges = per_person[name]
            friends = sorted({u for e in edges for u in e if u != name})
            scenes.append(
                SceneRecord(
                    name=f"s{i:04d}", kind="social", members=[name] + friends,
                    binaries=[(u, onto.social_predicate, v) for u, v in edges],
                )
            )

    boxes: dict[str, np.ndarray] = {}  # key -> feature vector, in generation order
    records = {**entities, **test_entities}
    feat_rng = substream(seed, "features")
    for scene in scenes:
        if scene.kind in ("train", "ex_train", "ex_test", "e_test", "unlabeled"):
            _scene_view_features(scene, records, protos, latents, config, feat_rng, boxes)

    # zero-shot views: a scene of two visual entities that shows one held-out
    # combination, never stored as an episode
    zs_rng = substream(seed, "zs-examples")
    by_class: dict[str, list[str]] = {}
    for rec in visual:
        by_class.setdefault(rec.labels["BClass"], []).append(rec.name)
    n_views = 0
    for cs, p, co in heldout:
        subj_pool, obj_pool = by_class.get(cs, []), by_class.get(co, [])
        if not subj_pool or not obj_pool:
            continue
        for _ in range(config.zero_shot_per_combo):
            s = subj_pool[int(zs_rng.integers(len(subj_pool)))]
            o = obj_pool[int(zs_rng.integers(len(obj_pool)))]
            if s == o:
                continue
            view = SceneRecord(name=f"zs{n_views:04d}", kind="zero_shot", members=[s, o],
                               binaries=[(s, p, o)])
            _scene_view_features(view, records, protos, latents, config, zs_rng, boxes)
            scenes.append(view)
            n_views += 1

    members = onto.family_members()
    vocab = Vocabulary.from_dict({
        "classes": [*onto.b_classes, *onto.p_classes, *onto.g_classes],
        "attributes": [*onto.ages, *onto.colors, *onto.activities, *onto.risks],
        "predicates": [*onto.scene_predicates, *onto.nonvisual_predicates, onto.social_predicate],
        "entities": list(entities),
        "instances": [scene.name for scene in scenes if scene.instance],
        "families": {fam: list(members[fam]) for fam in onto.label_families},
    })
    return GroundTruthWorld(
        config=config, vocab=vocab, entities=entities, test_entities=test_entities,
        scenes=scenes, features=np.stack(list(boxes.values())),
        feature_index={key: row for row, key in enumerate(boxes)}, heldout=heldout,
    )


# -- store ingestion ---------------------------------------------------------------


def _ingest(world: GroundTruthWorld) -> TripleStore:
    """The world's store in two bulk steps: the positives of every instance
    scene as one array, then the closure of every instance.  The scenes'
    names are resolved once (`resolve_scenes`), and the labels once per
    distinct labeled member (`resolve_labels`).  The store sees the positives
    scene by scene, in `world.scenes` order: a labeled scene's members in
    member order, each member's labels in family order, then the scene's
    binary statements in order, so `add_observations` names the first bad row
    of that order.  Labeled scenes close every label family; train scenes
    close the scene predicates, background scenes the nonvisual ones, social
    scenes only the social predicate."""
    v = world.vocab
    onto = ONTOLOGY
    families = onto.label_families
    n_fam = len(families)
    store = TripleStore(v)
    scenes = [s for s in world.scenes if s.instance]
    ids, ts = resolve_scenes(scenes, v), v.ids_of([s.name for s in scenes])
    labeled = np.array([s.kind in ("train", "ex_train", "background") for s in scenes], dtype=bool)
    at = labeled[ids.member_scene]
    e, where = ids.members[at], ids.member_scene[at]
    entities, row = np.unique(e, return_inverse=True)
    labels = resolve_labels(world, v, entities, families)[row.reshape(-1)]
    unary = np.stack([
        np.repeat(e, n_fam), np.full(labels.size, v.has_attribute), labels.reshape(-1),
        np.repeat(ts[where], n_fam),
    ], axis=1)
    binary = np.column_stack([ids.binaries, ts[ids.binary_scene]])
    # input order: scene by scene, its unary rows before its binary ones
    order = np.argsort(np.r_[np.repeat(where, n_fam), ids.binary_scene], kind="stable")
    store.add_observations(np.concatenate([unary, binary])[order])

    label_ids = [c for fam in families for c in v.family_members(fam)]
    closing = {
        "train": (label_ids, [v.id_of(p) for p in onto.scene_predicates]),
        "background": (label_ids, [v.id_of(p) for p in onto.nonvisual_predicates]),
        "social": ([], [v.id_of(onto.social_predicate)]),
    }
    closing["ex_train"] = closing["train"]
    members, ends = ids.members.tolist(), np.cumsum(ids.n_members).tolist()
    store.close_instances([
        (t, members[end - len(s.members):end], *closing[s.kind])
        for s, t, end in zip(scenes, ts.tolist(), ends)
    ])
    return store


# -- resolving names -----------------------------------------------------------------


@dataclass(frozen=True)
class SceneIds:
    """A list of scenes with their members' and statements' names resolved,
    scene after scene: `n_members` holds each scene's member count,
    `members` every member's id, `binaries` the
    (subject, predicate, object) ids of every binary statement as an (n, 3)
    array, and `member_scene` and `binary_scene` the scene of each member and
    statement, as positions in the list.  `subject_at` and `object_at` give
    the index in `members` of each statement's subject and object.  The
    scenes' own names are not resolved, so scenes can be resolved before
    their instances are registered."""

    n_members: np.ndarray
    members: np.ndarray
    member_scene: np.ndarray
    binaries: np.ndarray
    binary_scene: np.ndarray
    subject_at: np.ndarray
    object_at: np.ndarray


def _member_fault(scene: SceneRecord) -> str | None:
    """The line that refuses `scene` for its first member listed twice, or
    else its first statement about a non-member; None if it has neither."""
    where, listed, members = f"world.json: scene {scene.name!r}", scene.members, set(scene.members)
    if len(members) < len(listed):
        twice = next(m for i, m in enumerate(listed) if m in listed[:i])
        return f"{where} lists member {twice!r} twice"
    for s, p, o in scene.binaries:
        if s not in members or o not in members:
            stranger = s if s not in members else o
            return f"{where} states ({s}, {p}, {o}), but {stranger!r} is not one of its members"
    return None


def resolve_scenes(scenes: list[SceneRecord], vocab: Vocabulary) -> SceneIds:
    """The ids of `scenes`' member and statement names, one
    `Vocabulary.ids_of` for each kind of name.  A scene that lists a member
    twice, or a statement whose subject or object is not a member of its
    scene, is refused with one line that names the scene; a world from
    `gen_world` has neither."""
    n_members = np.array([len(s.members) for s in scenes], dtype=np.int64)
    n_binaries = np.array([len(s.binaries) for s in scenes], dtype=np.int64)
    members = vocab.ids_of(list(chain.from_iterable(s.members for s in scenes)))
    spo = vocab.ids_of(list(chain.from_iterable(chain.from_iterable(s.binaries for s in scenes))))
    member_scene = np.repeat(np.arange(len(scenes)), n_members)
    binary_scene = np.repeat(np.arange(len(scenes)), n_binaries)
    # one key per (scene, member), sorted; -1 after the last never matches
    n = len(vocab)
    key = member_scene * n + members
    order = np.argsort(key, kind="stable")
    sorted_key = np.r_[key[order], -1]
    twice = np.flatnonzero(sorted_key[1:-1] == sorted_key[:-2])
    if twice.size:
        raise WorldError(_member_fault(scenes[member_scene[int(order[twice + 1].min())]]))
    spo = spo.reshape(-1, 3)
    wanted = [binary_scene * n + spo[:, k] for k in (0, 2)]
    found = [np.searchsorted(sorted_key[:-1], keys) for keys in wanted]
    outside = (sorted_key[found[0]] != wanted[0]) | (sorted_key[found[1]] != wanted[1])
    if outside.any():
        raise WorldError(_member_fault(scenes[binary_scene[int(np.argmax(outside))]]))
    subject_at, object_at = (np.r_[order, -1][pos] for pos in found)
    return SceneIds(n_members, members, member_scene, spo, binary_scene, subject_at, object_at)


def resolve_labels(world: GroundTruthWorld, vocab: Vocabulary, entities: np.ndarray,
                   families) -> np.ndarray:
    """The ids of the labels of each entity id in `entities` in `families`,
    one row per entity.  A label that is not one of its family's is refused
    with one line that names the entity: one compare on the whole block."""
    names = [vocab.name_of(e) for e in entities.tolist()]
    block = vocab.ids_of([
        labels[fam] for name in names for labels in (world.entity_record(name).labels,)
        for fam in families
    ]).reshape(len(names), len(families))
    misplaced = vocab.family_codes()[block] != [vocab.family_code(fam) for fam in families]
    if misplaced.any():
        i, k = np.argwhere(misplaced)[0].tolist()
        label = int(block[i, k])
        raise WorldError(f"world.json: entity {names[i]!r} has {vocab.name_of(label)!r} as its "
                         f"{families[k]} label, a label of {vocab.family_of(label) or 'no family'}")
    return block


# -- export / import -----------------------------------------------------------------


_ENCODE = json.JSONEncoder(sort_keys=True).encode


def _dump_json(doc: dict) -> str:
    """`doc` as JSON text with sorted keys: each top-level item on lines of its
    own, and each element of a list or dict item on a line of its own.  Every
    piece goes through the C encoder, which an indented `json.dump` bypasses."""
    enc = _ENCODE
    items = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, list) and value:
            body = "[\n" + ",\n".join(map(enc, value)) + "\n]"
        elif isinstance(value, dict) and value:
            body = "{\n" + ",\n".join(f"{enc(k)}: {enc(value[k])}" for k in sorted(value)) + "\n}"
        else:
            body = enc(value)
        items.append(f"{enc(key)}: {body}")
    return "{\n" + ",\n".join(items) + "\n}\n"


FEATURES_FORMAT = "bilayer-features"
FEATURES_VERSION = 2


def read_features(base_path: str, feature_dim: int) -> tuple[np.ndarray, dict[str, int]]:
    """The feature matrix of the archive at `base_path` and its key -> row
    index.  The archive holds one tensor, `features`, of `feature_dim`
    columns, and its manifest lists one distinct key per row, in row order."""
    path = base_path + ".json"
    manifest = read_manifest(base_path, FEATURES_FORMAT, FEATURES_VERSION, ("keys",))
    tensors = read_tensors(base_path, manifest, np.float32)
    matrix, keys = tensors.get("features"), manifest["keys"]
    if len(tensors) != 1 or matrix is None or matrix.ndim != 2 or matrix.shape[1] != feature_dim:
        shapes = {name: list(arr.shape) for name, arr in tensors.items()}
        raise WorldError(f"{path}: holds tensors {shapes}, not one 'features' matrix "
                         f"of {feature_dim} columns")
    if type(keys) is not list or not {str}.issuperset(map(type, keys)):
        raise WorldError(f"{path}: its keys are not a list of strings")
    if len(keys) != len(matrix):
        raise WorldError(f"{path} lists {len(keys)} keys for {len(matrix)} feature rows")
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        twice = next(k for row, k in enumerate(keys) if index[k] != row)
        raise WorldError(f"{path}: key {twice!r} names two feature rows")
    return matrix, index


def export_world(world: GroundTruthWorld, outdir: str) -> list[str]:
    """Write the world to `outdir` and return the names written: `config.json`,
    `vocab.json`, `triples.jsonl`, `world.json` and the feature archive.
    `triples.jsonl` lists the store's positive statements for a reader; no
    command parses it (a run's manifest only hashes it).  `load_world`
    rebuilds the store from `world.json`, closed-world negatives included, so
    a damaged `triples.jsonl` is harmless and the implied negatives are not
    written; a `negatives.jsonl` left by an older export is neither read nor
    hashed."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    def _write(name: str, content) -> None:
        """`content` is a string, or a function that writes to the open file."""
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8") as fp:
            if callable(content):
                content(fp)
            else:
                fp.write(content)
        written.append(name)

    _write("config.json", json.dumps(world.config.to_dict(), indent=2, sort_keys=True) + "\n")
    _write("vocab.json", world.vocab.dumps() + "\n")

    store = world.build_store()
    _write("triples.jsonl", lambda fp: write_jsonl(store, fp))

    families = ONTOLOGY.label_families
    doc = {
        key: [[r.name, *(r.labels[fam] for fam in families)] for r in records.values()]
        for key, records in (("entities", world.entities), ("test_entities", world.test_entities))
    }
    doc["scenes"] = [
        {"name": s.name, "kind": s.kind, "members": s.members,
         "binaries": [list(b) for b in s.binaries]}
        for s in world.scenes
    ]
    doc["heldout"] = [list(h) for h in world.heldout]
    _write("world.json", _dump_json(doc))
    write_archive(os.path.join(outdir, "features"), FEATURES_FORMAT, FEATURES_VERSION,
                  {"keys": list(world.feature_index)}, [("features", world.features)],
                  np.float32)
    written.extend(["features.json", "features.bin"])
    return written


def read_vocab(path: str) -> Vocabulary:
    """The vocabulary in the JSON file `path`, refused with one line that
    names the file when it does not fit."""
    try:
        return Vocabulary.from_dict(read_json(path, tuple(Vocabulary().to_dict()), WorldError))
    except VocabError as exc:
        raise WorldError(f"{path}: {exc}") from exc


_WORLD_KEYS = ("entities", "test_entities", "scenes", "heldout")


def _entity_rows(doc_path: str, key: str, rows: list) -> dict[str, EntityRecord]:
    """The records of `world.json`'s `key`: each a row `[name, label, ...]`
    with one label per family, in family order."""
    families = ONTOLOGY.label_families
    width = len(families) + 1
    if not ({list}.issuperset(map(type, rows)) and {width}.issuperset(map(len, rows))):
        i = next(i for i, row in enumerate(rows) if type(row) is not list or len(row) != width)
        raise WorldError(f"{doc_path}: {key}[{i}] is not a row [name, {', '.join(families)}]")
    return {row[0]: EntityRecord(row[0], dict(zip(families, row[1:]))) for row in rows}


def _check_scenes(doc_path: str, docs: list[dict], scenes: list[SceneRecord]) -> None:
    """Refuse the first scene of an unknown kind, whose members are not a
    list of names, or whose binaries are not a list of [subject, predicate,
    object] lists of names, with one line that names the scene.  One scan of
    every scene's lists finds whether there is one; only then are the scenes
    walked."""
    statements = [doc["binaries"] for doc in docs]
    flat = list(chain.from_iterable(statements))
    members = [s.members for s in scenes]
    if (all(s.kind in SCENE_KINDS for s in scenes)
            and {list}.issuperset(map(type, members))
            and {list}.issuperset(map(type, statements)) and {list}.issuperset(map(type, flat))
            and {3}.issuperset(map(len, flat))
            and {str}.issuperset(map(type, chain.from_iterable(members)))
            and {str}.issuperset(map(type, chain.from_iterable(flat)))):
        return
    for scene, binaries in zip(scenes, statements):
        where = f"{doc_path}: scene {scene.name!r}"
        if scene.kind not in SCENE_KINDS:
            raise WorldError(f"{where} is of kind {scene.kind!r}, "
                             f"not one of {', '.join(SCENE_KINDS)}")
        if type(scene.members) is not list or not {str}.issuperset(map(type, scene.members)):
            raise WorldError(f"{where} has members {scene.members!r}, not a list of names")
        if type(binaries) is not list:
            raise WorldError(f"{where} has binaries {binaries!r}, not a list of statements")
        for b in binaries:
            if type(b) is not list or len(b) != 3 or not {str}.issuperset(map(type, b)):
                raise WorldError(f"{where} states {b!r}, not a list [subject, predicate, "
                                 "object] of names")


def load_world(indir: str) -> GroundTruthWorld:
    """The world exported to `indir`.  A record of `world.json` that does not
    fit is refused with one line that names the file and the record."""
    config = WorldConfig(**read_json(os.path.join(indir, "config.json"),
                                     [f.name for f in fields(WorldConfig)], WorldError))
    vocab = read_vocab(os.path.join(indir, "vocab.json"))
    doc_path = os.path.join(indir, "world.json")
    doc = read_json(doc_path, _WORLD_KEYS, WorldError)
    try:
        entities = _entity_rows(doc_path, "entities", doc["entities"])
        test_entities = _entity_rows(doc_path, "test_entities", doc["test_entities"])
        scenes = [SceneRecord(**{**s, "binaries": [tuple(b) for b in s["binaries"]]})
                  for s in doc["scenes"]]
        heldout = [tuple(h) for h in doc["heldout"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise WorldError(f"{doc_path}: a record does not fit: {exc}") from exc
    _check_scenes(doc_path, doc["scenes"], scenes)
    for scene in scenes:
        if not scene.instance and (fault := _member_fault(scene)):
            raise WorldError(fault)
    features, feature_index = read_features(os.path.join(indir, "features"), config.feature_dim)
    return GroundTruthWorld(
        config=config, vocab=vocab, entities=entities, test_entities=test_entities,
        scenes=scenes, features=features, feature_index=feature_index, heldout=heldout,
    )
