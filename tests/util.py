"""Shared test helpers: a hand-rolled vocabulary builder, the triple store as
it was written one quad at a time (the oracle of the bulk-built store), and
independent brute-force reference implementations of the store's counting
queries, of the decode walk, of the statement-file bytes and the store read
back from them, of scene composition by scanning the entity pool, of the
social-edge orientation model, and of the training inputs and heads as they
were written per item: example dicts, per-example index swaps, one softmax
head per label family, the copying CE head and the two-division sigmoid; and the decode's
inverse-CDF draw and label picks, one row at a time with the label plan
derived on every call; and the full descending ranking of score rows, the
oracle of the metrics' counted target ranks.

The reference code here deliberately shares no logic with the package: it
scans flat observation records with nested loops so the fast incremental
counters in the store can be checked against first principles, and it walks
the decode schedule one unit at a time in float64 from the formulas.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from bilayer.graph import Batch
from bilayer.params import ColumnMap, NetConfig, NetParams
from bilayer.training import Examples, InjectionPool
from bilayer.triple_store import UNKNOWN, ConflictError, StoreError, TripleStore
from bilayer.vocab import IDENTITY_FAMILY, Kind, Vocabulary
from bilayer.world import ONTOLOGY, SceneRecord, substream


def small_vocab(
    n_entities: int = 4,
    n_instances: int = 3,
    classes: tuple = ("Dog", "Cat", "Mammal"),
    attributes: tuple = ("Young", "Old"),
    predicates: tuple = ("near", "chases"),
    families: dict | None = None,
) -> Vocabulary:
    if families is None:
        labels = {*classes, *attributes}
        families = {"Species": ["Dog", "Cat"], "Rank": ["Mammal"], "Age": ["Young", "Old"]}
        families = {f: [m for m in members if m in labels] for f, members in families.items()}
        families = {f: m for f, m in families.items() if m}
    return Vocabulary.from_dict({
        "classes": list(classes), "attributes": list(attributes), "predicates": list(predicates),
        "entities": [f"e{i}" for i in range(n_entities)],
        "instances": [f"t{i}" for i in range(n_instances)], "families": families,
    })


# Species skips Mammal's column (Dog, Cat, Mammal are registered in that
# order), so its columns are no contiguous run of the label block
INTERLEAVED = {"Species": ["Dog", "Mammal"], "Pet": ["Cat"], "Age": ["Young", "Old"]}


def group_cols(cmap: ColumnMap, group: str) -> np.ndarray:
    """The columns of a readout group's block, in order, as an array."""
    return np.arange(cmap.n_columns)[cmap.block[group]]


def ranked_cols(scores: np.ndarray) -> np.ndarray:
    """Each row's columns in descending score order, ties toward the lower
    index."""
    return np.argsort(-scores, kind="stable")


def small_params(
    vocab: Vocabulary,
    rep_dim: int = 8,
    ctx_dim: int = 4,
    feature_dim: int = 6,
    seed: int = 0,
    dtype: str = "float32",
) -> tuple[NetParams, ColumnMap]:
    config = NetConfig(rep_dim=rep_dim, ctx_dim=ctx_dim, feature_dim=feature_dim, dtype=dtype)
    params = NetParams.init(vocab, config, substream(seed, "init"))
    return params, ColumnMap(vocab)


Record = tuple[int, int, int, int, bool]  # (s, p, o, t, truth)


Closure = tuple[int, list, list, list]  # `lcwa_expand`'s (t, members, families, predicates)


def random_records(vocab: Vocabulary, rng: np.random.Generator, n_true: int) -> list[Record]:
    """Random well-typed true records of distinct quads."""
    entities = list(vocab.entities)
    instances = list(vocab.instances)
    preds = list(vocab.binary_predicates)
    labels = list(vocab.labels)
    ha = vocab.has_attribute
    seen: set[tuple[int, int, int, int]] = set()
    out: list[Record] = []
    while len(out) < n_true:
        s = entities[int(rng.integers(len(entities)))]
        t = instances[int(rng.integers(len(instances)))]
        if rng.random() < 0.5:
            p, o = ha, labels[int(rng.integers(len(labels)))]
        else:
            p = preds[int(rng.integers(len(preds)))]
            o = entities[int(rng.integers(len(entities)))]
            if o == s:
                continue
        if (s, p, o, t) in seen:
            continue
        seen.add((s, p, o, t))
        out.append((s, p, o, t, True))
    return out


def random_closures(vocab: Vocabulary, rng: np.random.Generator, n: int) -> list[Closure]:
    """Random closures: each of an instance, two or three distinct entities,
    and each label family and binary predicate with chance one half."""
    entities, instances = list(vocab.entities), list(vocab.instances)
    families = [f for f in vocab.families if f != IDENTITY_FAMILY]
    preds = list(vocab.binary_predicates)
    out = []
    for _ in range(n):
        t = instances[int(rng.integers(len(instances)))]
        members = [entities[i] for i in rng.permutation(len(entities))[:int(rng.integers(2, 4))]]
        out.append((t, members, [f for f in families if rng.random() < 0.5],
                    [p for p in preds if rng.random() < 0.5]))
    return out


def closure_of(vocab: Vocabulary, t, members, families=None, predicates=None) -> tuple:
    """The closure `ReferenceStore.lcwa_expand` makes of these arguments, as a
    `close_instances` tuple: families default to every label family,
    predicates to every binary one."""
    if families is None:
        families = [f for f in vocab.families if f != IDENTITY_FAMILY]
    labels = [c for f in families for c in vocab.family_members(f)]
    preds = list(vocab.binary_predicates) if predicates is None else list(predicates)
    return (t, list(members), labels, preds)


def store_from_records(vocab: Vocabulary, records: list[Record], closures=()) -> TripleStore:
    """A store that took the true records one add at a time, then the
    closures one close at a time."""
    store = TripleStore(vocab)
    for s, p, o, t, _ in records:
        store.add_observations([(s, p, o, t)])
    for closure in closures:
        store.close_instances([closure_of(vocab, *closure)])
    return store


def closed_records(vocab: Vocabulary, records: list[Record], closures) -> tuple:
    """The reference store of the true records closed by the closures, and
    the records the brute-force oracles read: the true ones, then every quad
    the reference's `lcwa_expand` returned, false."""
    ref = ReferenceStore(vocab)
    for record in records:
        ref.add_observation(*record)
    implied = [quad for closure in closures for quad in ref.lcwa_expand(*closure)]
    return ref, records + [(*quad, False) for quad in implied]


# -- brute-force reference models (exact rational arithmetic) ----------------------


def brute_expected_truth(records: list[Record], s: int, p: int, o: int):
    pos = sum(1 for s2, p2, o2, _, y in records if (s2, p2, o2) == (s, p, o) and y)
    known = sum(1 for s2, p2, o2, _, y in records if (s2, p2, o2) == (s, p, o))
    if known == 0:
        return None
    return Fraction(pos, known)


def brute_label_conditional(records: list[Record], ha: int, c1: int, c2: int):
    sites = {(s, t) for s, p, o, t, y in records if (p, o) == (ha, c1) and y}
    num = den = 0
    for s, t in sites:
        for s2, p2, o2, t2, y in records:
            if (s2, p2, o2, t2) == (s, ha, c2, t):
                den += 1
                num += int(y)
                break
    if den == 0:
        return None
    return Fraction(num, den)


# -- reference store (one quad at a time, every index kept up to date on each add) ----


@dataclass
class ReferenceStore:
    """The triple store as it was written quad by quad: Python sets of quads,
    and counters and site sets updated on every add.  `lcwa_expand` walks
    members x labels and member pairs x predicates one quad at a time.  The
    bulk-built `TripleStore` must answer every query exactly as this does."""

    vocab: Vocabulary

    _positive: set = field(default_factory=set)
    _negative: set = field(default_factory=set)
    _pos_by_instance: dict = field(default_factory=lambda: defaultdict(list))
    _pos_count: Counter = field(default_factory=Counter)
    _known_count: Counter = field(default_factory=Counter)
    _pos_sites: dict = field(default_factory=lambda: defaultdict(set))  # (p, o) -> {(s, t)}

    def _check_kinds(self, s: int, p: int, o: int, t: int) -> None:
        v = self.vocab
        for i in (s, p, o, t):
            if not 0 <= i < len(v):
                raise StoreError(f"id {i} is not in the vocabulary")
        if v.kind_of(s) is not Kind.ENTITY:
            raise StoreError(f"subject {v.name_of(s)!r} is not an entity")
        if v.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"instance {v.name_of(t)!r} is not an instance")
        if v.kind_of(p) is not Kind.PREDICATE:
            raise StoreError(f"predicate {v.name_of(p)!r} is not a predicate")
        if p == v.has_attribute:
            if v.kind_of(o) not in (Kind.CLASS, Kind.ATTRIBUTE):
                raise StoreError(f"{v.name_of(o)!r} cannot be the object of {v.name_of(p)!r}")
        elif v.kind_of(o) is not Kind.ENTITY:
            raise StoreError(f"binary statement object {v.name_of(o)!r} is not an entity")

    def add_observation(self, s: int, p: int, o: int, t: int, truth: bool) -> None:
        self._check_kinds(s, p, o, t)
        quad = (s, p, o, t)
        opposite = self._negative if truth else self._positive
        if quad in opposite:
            raise ConflictError(
                f"({self.vocab.name_of(s)}, {self.vocab.name_of(p)}, "
                f"{self.vocab.name_of(o)}) at {self.vocab.name_of(t)} "
                f"already asserted with truth={not truth}"
            )
        same = self._positive if truth else self._negative
        if quad in same:
            raise StoreError(f"duplicate observation {quad}")
        same.add(quad)
        self._known_count[(s, p, o)] += 1
        if truth:
            self._pos_by_instance[t].append((s, p, o))
            self._pos_count[(s, p, o)] += 1
            self._pos_sites[(p, o)].add((s, t))

    def lcwa_expand(self, t, observed_entities, families=None, predicates=None) -> list:
        v = self.vocab
        entities = list(dict.fromkeys(observed_entities))
        for e in entities:
            if not 0 <= e < len(v):
                raise StoreError(f"id {e} is not in the vocabulary")
            if v.kind_of(e) is not Kind.ENTITY:
                raise StoreError(f"observed id {v.name_of(e)!r} is not an entity")
        if not 0 <= t < len(v):
            raise StoreError(f"id {t} is not in the vocabulary")
        if v.kind_of(t) is not Kind.INSTANCE:
            raise StoreError(f"{v.name_of(t)!r} is not an instance")
        fam_names = list(families) if families is not None else [
            f for f in v.families if f != IDENTITY_FAMILY
        ]
        preds = list(predicates) if predicates is not None else list(v.binary_predicates)
        ha = v.has_attribute
        implied = []
        candidates = [(e, ha, c, t) for e in entities for fam in fam_names
                      for c in v.family_members(fam)]
        candidates += [(s, p, o, t) for s in entities for o in entities if s != o for p in preds]
        for quad in candidates:
            if quad in self._positive or quad in self._negative:
                continue
            self._negative.add(quad)
            self._known_count[quad[:3]] += 1
            implied.append(quad)
        return implied

    def truth_of(self, s, p, o, t):
        if (s, p, o, t) in self._positive:
            return True
        if (s, p, o, t) in self._negative:
            return False
        return UNKNOWN

    def n_statements(self, t) -> int:
        return len(self._pos_by_instance.get(t, ()))

    def total_statements(self, truth: bool = True) -> int:
        return len(self._positive if truth else self._negative)

    def observed_instances(self) -> tuple:
        return tuple(sorted({q[3] for q in self._positive} | {q[3] for q in self._negative}))

    def positives_at(self, t) -> tuple:
        return tuple(sorted(set(self._pos_by_instance.get(t, ()))))

    def iter_positive(self):
        return iter(sorted(self._positive, key=lambda q: (q[3], q[0], q[1], q[2])))

    def iter_negative(self):
        return iter(sorted(self._negative, key=lambda q: (q[3], q[0], q[1], q[2])))

    def positive_array(self) -> np.ndarray:
        return np.array(list(self.iter_positive()), dtype=np.int64).reshape(-1, 4)

    def expected_truth(self, s, p, o):
        known = self._known_count[(s, p, o)]
        if known == 0:
            return UNKNOWN
        return self._pos_count[(s, p, o)] / known

    def label_conditional(self, c1, c2):
        ha = self.vocab.has_attribute
        sites = self._pos_sites.get((ha, c1))
        if not sites:
            raise StoreError(f"label {self.vocab.name_of(c1)!r} never observed on any entity")
        num = den = 0
        for s, t in sites:
            truth = self.truth_of(s, ha, c2, t)
            if truth is UNKNOWN:
                continue
            den += 1
            num += int(truth)
        if den == 0:
            return UNKNOWN
        return num / den


def reference_ingest(world) -> ReferenceStore:
    """A world's store built scene by scene through single adds and one
    `lcwa_expand` per instance scene, as `world.build_store` once did."""
    v = world.vocab
    onto = ONTOLOGY
    store = ReferenceStore(v)
    ha = v.has_attribute
    scene_preds = [v.id_of(p) for p in onto.scene_predicates]
    nonvisual_preds = [v.id_of(p) for p in onto.nonvisual_predicates]
    social_pred = [v.id_of(onto.social_predicate)]
    for scene in world.scenes:
        if not scene.instance:
            continue
        t = v.id_of(scene.name)
        member_ids = [v.id_of(m) for m in scene.members]
        if scene.kind in ("train", "ex_train", "background"):
            for name, e in zip(scene.members, member_ids):
                for fam in onto.label_families:
                    label = world.entity_record(name).labels[fam]
                    store.add_observation(e, ha, v.id_of(label), t, True)
        for s, p, o in scene.binaries:
            store.add_observation(v.id_of(s), v.id_of(p), v.id_of(o), t, True)
        if scene.kind in ("train", "ex_train"):
            store.lcwa_expand(t, member_ids, onto.label_families, scene_preds)
        elif scene.kind == "background":
            store.lcwa_expand(t, member_ids, onto.label_families, nonvisual_preds)
        elif scene.kind == "social":
            store.lcwa_expand(t, member_ids, [], social_pred)
    return store


# -- reference statement file (one json.dumps per line) ------------------------------


def reference_jsonl(store: TripleStore, truth: bool) -> str:
    """The bytes `write_jsonl` must produce: the statements of one truth value
    as named (t, s, p, o) tuples, sorted as strings, one `json.dumps` each."""
    v = store.vocab
    quads = store.iter_positive() if truth else store.iter_negative()
    named = sorted(
        (v.name_of(t), v.name_of(s), v.name_of(p), v.name_of(o)) for s, p, o, t in quads
    )
    return "".join(
        json.dumps({"s": s, "p": p, "o": o, "t": t, "y": 1 if truth else 0},
                   separators=(", ", ": ")) + "\n"
        for t, s, p, o in named
    )


def read_jsonl(store: TripleStore, fp) -> int:
    """Read true statement lines by symbol name into the store with one
    `add_observations` call; returns the number of lines."""
    v = store.vocab
    recs = [json.loads(line) for line in fp if line.strip()]
    assert all(r["y"] == 1 for r in recs)
    store.add_observations([[v.id_of(r[k]) for k in ("s", "p", "o", "t")] for r in recs])
    return len(recs)


# -- reference scene composition (one scan of the pool per pick) ---------------------


def reference_sample_predicate(table, heldout_set, cs, co, rng) -> str | None:
    """A predicate for the class pair by `rng.choice` over its row's weights."""
    row = [(p, w) for p, w in table[(cs, co)] if (cs, p, co) not in heldout_set]
    if not row:
        return None
    weights = np.array([w for _, w in row], dtype=np.float64)
    weights /= weights.sum()
    return row[int(rng.choice(len(row), p=weights))][0]


def reference_compose_scene(
    name, kind, pool, onto, config, table, heldout_set, rng
) -> SceneRecord:
    """`world._compose_scene` over a list of entity records, as it was written:
    the theme's members and each pick's options are rebuilt by scanning the
    pool, and labels and predicates are drawn with `rng.choice`."""
    if rng.random() < 0.5:
        fam, name_ = "PClass", str(rng.choice(onto.p_classes))
    else:
        fam, name_ = "Color", str(rng.choice(onto.colors))
    k = 2 + int(rng.poisson(config.mean_entities_per_scene - 2))
    k = min(k, len(pool))
    themed = [e for e in pool if e.labels[fam] == name_]
    members: list[str] = []
    chosen: set[str] = set()
    for _ in range(k):
        use_theme = themed and rng.random() < config.theme_bias
        options = [e for e in (themed if use_theme else pool) if e.name not in chosen]
        if not options:
            options = [e for e in pool if e.name not in chosen]
        if not options:
            break
        pick = options[int(rng.integers(len(options)))]
        members.append(pick.name)
        chosen.add(pick.name)
    by_name = {e.name: e for e in pool}
    binaries: list[tuple[str, str, str]] = []
    if len(members) >= 2:
        seen = set()
        for _ in range(config.binary_per_scene):
            for _try in range(10):
                i, j = rng.choice(len(members), size=2, replace=False)
                s, o = members[int(i)], members[int(j)]
                p = reference_sample_predicate(
                    table, heldout_set, by_name[s].labels["BClass"], by_name[o].labels["BClass"], rng
                )
                if p is not None and (s, p, o) not in seen:
                    seen.add((s, p, o))
                    binaries.append((s, p, o))
                    break
    return SceneRecord(name=name, kind=kind, members=members, binaries=binaries)


# -- closed-form orientation of a social edge ----------------------------------------


def orientation_probability(latent_a: np.ndarray, latent_b: np.ndarray, beta: float) -> float:
    """Closed-form probability that `world.social_network` orients the edge a -> b."""
    denom = max(float(np.linalg.norm(latent_a + latent_b)), 1e-12)
    w_ab = float(np.exp(beta * np.linalg.norm(latent_a))) / denom
    w_ba = float(np.exp(beta * np.linalg.norm(latent_b))) / denom
    return w_ab / (w_ab + w_ba)


# -- reference decode walk (float64, one pass, straight from the formulas) ---------


def _ref_sig(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def reference_decode(params: NetParams, vocab: Vocabulary, request) -> dict:
    """One winner-take-all pass of the schedule for a decode request, in
    float64, one index unit and one step at a time.

    The formulas: a unit's score is its embedding column dotted with the
    squashed representation; a commitment adds the winning unit's embedding
    column (an attention commitment adds the sum of the entity or instance
    columns weighted by the softmax of their scores at temperature 1); the
    context after a step is ctx_rec . sig(sig(ctx) + ctx_in . sig(rep)) from
    ctx = 0, and feeds the next step through ctx_out . sig(ctx); perception
    adds enc_w . box + enc_b to every step.  Each family's label is the
    argmax of its members' scores at the committed subject.  The direct
    variant scores each head from its encoded box alone.  Columns follow the
    canonical order (entities, classes, attributes, predicates, instances).
    Returns the committed ids, the labels and the score vectors by step.
    """
    f64 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731
    emb = f64(params.emb)
    entities = list(vocab.entities)
    concepts = entities + list(vocab.classes) + list(vocab.attributes)
    predicates = list(vocab.binary_predicates)
    instances = list(vocab.instances)
    col = {sid: i for i, sid in enumerate(concepts + predicates + instances)}
    support = {"entities": entities, "concepts": concepts}
    families = {f: sorted(m, key=col.get) for f, m in vocab.families.items() if m}

    def scores(rep, ids):
        z = _ref_sig(rep)
        return np.array([float(emb[:, col[i]] @ z) for i in ids])

    def argmax(rep, ids):
        return ids[int(np.argmax(scores(rep, ids)))]

    def mixture(rep, ids):
        s = scores(rep, ids)
        w = np.exp(s - s.max())
        w /= w.sum()
        return rep + sum(wk * emb[:, col[i]] for wk, i in zip(w, ids))

    def enc(box):
        return f64(params.enc_w) @ f64(box) + f64(params.enc_b)

    def step(ctx, rep):
        return f64(params.ctx_rec) @ _ref_sig(_ref_sig(ctx) + f64(params.ctx_in) @ _ref_sig(rep))

    def out(ctx):
        return f64(params.ctx_out) @ _ref_sig(ctx)

    def commit(rep, clamp, ids, mix_ids):
        if clamp is not None:
            return rep + emb[:, col[clamp]], clamp
        if mix_ids is not None:
            return mixture(rep, mix_ids), None
        won = argmax(rep, ids)
        return rep + emb[:, col[won]], won

    res = {"ids": {}, "labels": {}, "scores": {}}
    ids, sc = res["ids"], res["scores"]
    feats = request.features
    perceiving = request.mode == "perception"
    binary = feats is None or feats.object_box is not None

    def labels_at(rep):
        res["labels"] = {f: argmax(rep, m) for f, m in sorted(families.items())}

    if request.direct:
        rep_t, rep_s = enc(feats.scene), enc(feats.subject_box)
        sc["instance"] = scores(rep_t, instances)
        if instances:
            ids["instance"] = argmax(rep_t, instances)
        sc["subject"] = sc["label"] = scores(rep_s, concepts)
        ids["subject"] = argmax(rep_s, support[request.subject_support])
        labels_at(rep_s)
        if binary:
            rep_o, rep_p = enc(feats.object_box), enc(feats.predicate_box)
            sc["object"] = scores(rep_o, concepts)
            ids["object"] = argmax(rep_o, support[request.object_support])
            sc["predicate"] = scores(rep_p, predicates)
            ids["predicate"] = argmax(rep_p, predicates)
        return res

    if perceiving:
        rep = enc(feats.scene)
        sc["instance"] = scores(rep, instances)
        rep_t, ids["instance"] = commit(
            rep, request.instance_id, instances, instances if request.instance_attention else None
        )
    elif request.mode == "episodic":
        rep_t, ids["instance"] = emb[:, col[request.instance_id]], request.instance_id
    else:
        rep_t = f64(params.pooled)
    ctx = step(np.zeros(params.config.ctx_dim), rep_t)
    mix = entities if perceiving and request.concept_attention else None

    rep = out(ctx) + (enc(feats.subject_box) if perceiving else 0.0)
    sc["subject"] = scores(rep, concepts)
    rep_s, ids["subject"] = commit(rep, request.subject_id, support[request.subject_support], mix)
    sc["label"] = scores(rep_s, concepts)
    labels_at(rep_s)
    if not binary:
        return res
    ctx = step(ctx, rep_s)
    rep = out(ctx) + (enc(feats.object_box) if perceiving else 0.0)
    sc["object"] = scores(rep, concepts)
    rep_o, ids["object"] = commit(rep, request.object_id, support[request.object_support], mix)
    ctx = step(ctx, rep_o)
    rep_p = out(ctx) + (enc(feats.predicate_box) if perceiving else 0.0)
    sc["predicate"] = scores(rep_p, predicates)
    if predicates:
        ids["predicate"] = argmax(rep_p, predicates)
    return res


# -- training inputs as per-example dicts (the layout the example tables replace) --


def reference_memory_examples(store, vocab, excluded_families=()):
    """Per-statement example dicts from the store's positives, plus one
    identity pseudo-statement per (entity, instance) observation."""
    ha = vocab.has_attribute
    excluded = set(excluded_families)
    unary, binary, observed = [], [], set()
    for s, p, o, t in store.iter_positive():
        observed.add((s, t))
        if p == ha:
            fam = vocab.family_of(o)
            if fam in excluded:
                continue
            unary.append({"t": t, "s": s, "fam": fam, "o": o})
        else:
            if vocab.kind_of(o) is Kind.ENTITY:
                observed.add((o, t))
            binary.append({"t": t, "s": s, "p": p, "o": o})
    for s, t in sorted(observed):
        unary.append({"t": t, "s": s, "fam": IDENTITY_FAMILY, "o": s})
    return unary, binary


def reference_perception_examples(world, vocab, hidden_families=(), kinds=("train", "ex_train")):
    """Feature-keyed example dicts from scenes that are registered instances."""
    hidden = set(hidden_families)
    unary, binary = [], []
    for scene in world.scenes_of_kind(*kinds):
        if not scene.instance:
            continue
        t = vocab.id_of(scene.name)
        for m in scene.members:
            s = vocab.id_of(m)
            base = {"t": t, "s": s, "scene": scene.scene_key, "bb": scene.bb_key(m)}
            for fam, label in world.entity_record(m).labels.items():
                if fam not in hidden:
                    unary.append({**base, "fam": fam, "o": vocab.id_of(label)})
            unary.append({**base, "fam": IDENTITY_FAMILY, "o": s})
        for i, (s, p, o) in enumerate(scene.binaries):
            binary.append({
                "t": t, "s": vocab.id_of(s), "p": vocab.id_of(p), "o": vocab.id_of(o),
                "scene": scene.scene_key, "s_bb": scene.bb_key(s), "o_bb": scene.bb_key(o),
                "rel": scene.rel_key(i),
            })
    return unary, binary


def reference_pseudo_examples(report, world) -> tuple[list[dict], list[dict]]:
    """An SSL report's pseudo-statement rows with the keys of the boxes each
    was read from, walked from the new scenes' records: the unary rows run
    through the scenes' members in order, each box's rows ending at its
    identity row; the binary rows run through the scenes' statements."""
    scenes = [world.scene(name) for name in report.new_instances]
    unary, rows = [], iter(report.pseudo_unary)
    for scene in scenes:
        for m in scene.members:
            for ex in rows:
                unary.append({**ex, "scene": scene.scene_key, "bb": scene.bb_key(m)})
                if ex["fam"] == IDENTITY_FAMILY:
                    break
    statements = [(scene, i, s, o) for scene in scenes
                  for i, (s, _p, o) in enumerate(scene.binaries)]
    binary = [
        {**ex, "scene": scene.scene_key, "s_bb": scene.bb_key(s), "o_bb": scene.bb_key(o),
         "rel": scene.rel_key(i)}
        for ex, (scene, i, s, o) in zip(report.pseudo_binary, statements, strict=True)
    ]
    # every row is on a box, and every box has its identity row
    assert len(unary) == len(report.pseudo_unary)
    assert sum(ex["fam"] == IDENTITY_FAMILY for ex in unary) == sum(len(sc.members) for sc in scenes)
    return unary, binary


def reference_injection_pool(store, vocab, excluded_families=()) -> dict:
    """Per entity: the sorted list of labels eligible to replace its index."""
    ha = vocab.has_attribute
    excluded = set(excluded_families)
    pool: dict[int, set] = {}
    for s, p, o, t in store.iter_positive():
        if p == ha and vocab.family_of(o) not in excluded:
            pool.setdefault(s, set()).add(o)
    return {s: sorted(v) for s, v in pool.items()}


def dict_table(rows: list[dict], arity: str, vocab: Vocabulary) -> Examples:
    """A feature-free example table from example dicts, rows in order."""
    families = tuple(sorted(vocab.families))
    names = ("t", "s", "fam", "o") if arity == "unary" else ("t", "s", "p", "o")
    return Examples({
        k: np.array([families.index(ex[k]) if k == "fam" else ex[k] for ex in rows],
                    dtype=np.int64).reshape(-1)
        for k in names
    }, families)


def table_rows(table) -> list[dict]:
    """An example table's rows as dicts: family names for codes, and each
    feature column as the bytes of the feature vector it points at."""
    out = []
    for i in range(len(table)):
        row = {}
        for k, col in table.cols.items():
            if k == "fam":
                row[k] = table.families[int(col[i])]
            elif k in ("scene", "bb", "s_bb", "o_bb", "rel"):
                row[k] = table.features[int(col[i])].tobytes()
            else:
                row[k] = int(col[i])
        out.append(row)
    return out


def keyed_rows(rows: list[dict], features: dict) -> list[dict]:
    """Example dicts with each feature key replaced by its vector's bytes."""
    keys = ("scene", "bb", "s_bb", "o_bb", "rel")
    return [{k: features[v].tobytes() if k in keys else v for k, v in ex.items()} for ex in rows]


def pool_dict(pool: InjectionPool) -> dict:
    return {int(e): pool.labels[pool.offsets[i]:pool.offsets[i + 1]].tolist()
            for i, e in enumerate(pool.entities)}


def pool_from_dict(pool: dict) -> InjectionPool:
    entities = np.array(sorted(pool), dtype=np.int64)
    labels = [np.sort(np.asarray(pool[e], dtype=np.int64)) for e in entities]
    offsets = np.cumsum([0] + [x.size for x in labels]).astype(np.int64)
    flat = np.concatenate(labels) if labels else np.zeros(0, dtype=np.int64)
    return InjectionPool(entities, offsets, flat)


def reference_build_batches(unary, binary, *, mode, cmap, batch_size, rng, rho=0.0, pool=None,
                            features=None) -> list[Batch]:
    """Batches from example dicts, one index swap draw per example: shuffle,
    swap, resolve ids to columns, group into batches."""

    def swapped(eid):
        if rho > 0.0 and pool is not None and rng.random() < rho:
            options = pool.get(eid)
            if options is not None and len(options):
                return int(options[int(rng.integers(len(options)))])
        return eid

    def stack(exs, key):
        return None if features is None else np.stack([features[ex[key]] for ex in exs])

    def chunks(n):
        order = rng.permutation(n)
        return [order[i: i + batch_size] for i in range(0, n, batch_size)]

    batches = []
    if unary:
        for chunk in chunks(len(unary)):
            exs = [unary[int(i)] for i in chunk]
            inj = [ex["s"] if ex["fam"] == IDENTITY_FAMILY else swapped(ex["s"]) for ex in exs]
            batches.append(Batch(
                mode=mode, arity="unary",
                inst_cols=None if mode == "semantic" else cmap.cols_of([ex["t"] for ex in exs]),
                subj_inject_cols=cmap.cols_of(inj),
                # one label occurrence per example: its row, family code and target
                label_rows=np.arange(len(exs), dtype=np.int64),
                label_fams=np.array([cmap.families.index(ex["fam"]) for ex in exs],
                                    dtype=np.int64),
                label_target_cols=cmap.cols_of([ex["o"] for ex in exs]),
                feat_scene=stack(exs, "scene"), feat_subj=stack(exs, "bb"),
            ))
    if binary:
        for chunk in chunks(len(binary)):
            exs = [binary[int(i)] for i in chunk]
            batches.append(Batch(
                mode=mode, arity="binary",
                inst_cols=None if mode == "semantic" else cmap.cols_of([ex["t"] for ex in exs]),
                subj_inject_cols=cmap.cols_of([swapped(ex["s"]) for ex in exs]),
                obj_inject_cols=cmap.cols_of([swapped(ex["o"]) for ex in exs]),
                pred_cols=cmap.cols_of([ex["p"] for ex in exs]),
                feat_scene=stack(exs, "scene"), feat_subj=stack(exs, "s_bb"),
                feat_obj=stack(exs, "o_bb"), feat_pred=stack(exs, "rel"),
            ))
    return batches


# -- heads as they were written per family --------------------------------------------


def copying_ce_head(scores, target_pos, inv_b) -> dict:
    """Softmax cross-entropy that makes its gradient in the forward pass, on
    a copy of the probabilities, so the probabilities stay intact."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(scores.shape[0])
    nll = -np.log(np.maximum(probs[rows, target_pos], np.finfo(probs.dtype).tiny))
    dscores = probs.copy()
    dscores[rows, target_pos] -= 1.0
    dscores *= inv_b
    hits = scores.argmax(axis=1) == target_pos
    return {"scores": scores, "probs": probs, "targets": target_pos, "inv_b": inv_b,
            "nll": nll, "hits": hits, "loss": float(nll.sum() * inv_b),
            "accuracy": float(hits.mean()), "dscores": dscores}


def reference_family_heads(zs, read, cmap, batch, inv_b) -> dict:
    """One softmax cross-entropy per label family of a unary batch, each over
    its own family's columns and the batch's occurrences of that family.
    Returns per-family loss and accuracy (keyed by family name) and the
    gradients of their summed loss at `zs` and at the readout."""
    loss, acc = {}, {}
    d_zs = np.zeros_like(zs)
    d_read = np.zeros_like(read)
    for code in sorted(set(batch.label_fams.tolist())):
        fam, mine = cmap.families[code], batch.label_fams == code
        rows = batch.label_rows[mine]
        cols = cmap.family_cols[fam]
        target = np.searchsorted(cols, batch.label_target_cols[mine])
        scores = zs[rows] @ read[:, cols]
        probs = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        picked = probs[np.arange(rows.size), target]
        loss[fam] = float(-np.log(picked).sum() * inv_b)
        acc[fam] = float((scores.argmax(axis=1) == target).mean())
        dscores = probs.copy()
        dscores[np.arange(rows.size), target] -= 1.0
        dscores *= inv_b
        d_read[:, cols] += zs[rows].T @ dscores
        d_zs[rows] += dscores @ read[:, cols].T
    return {"loss": loss, "accuracy": acc, "d_zs": d_zs, "d_read": d_read}


def two_division_sigmoid(x):
    """Logistic function from e = exp(-|x|): 1 / (1 + e) for x >= 0 and
    e / (1 + e) below, each a division of its own over the whole array."""
    x = np.asarray(x)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def reference_draw(scores, u) -> np.ndarray:
    """The inverse-CDF draw one row at a time in float64: per row of the
    last axis, the first position whose running sum of exp(score - max)
    exceeds the row's uniform times the row's total."""
    s = np.array(scores, dtype=np.float64)
    rows, us = s.reshape(-1, s.shape[-1]), np.asarray(u, dtype=np.float64).reshape(-1)
    out = []
    for row, ui in zip(rows, us):
        running, total = [], 0.0
        for w in np.exp(row - row.max()).tolist():
            total += w
            running.append(total)
        out.append(next((i for i, c in enumerate(running) if c > ui * total), len(running)))
    return np.array(out, dtype=np.int64).reshape(s.shape[:-1])


def reference_pick_labels(cmap: ColumnMap, label_scores: np.ndarray, winner_take_all: bool,
                          rng: np.random.Generator) -> list[dict[str, int]]:
    """Per row, one label per nonempty family, with every family's block
    derived on the call from `cmap.families` and `cmap.family_cols`:
    Identity scores its own columns, every other family the class and
    attribute block with -inf outside its members.  Winner-take-all takes
    the argmax (ties low); sampling draws `rng.random((n_families, n_rows))`,
    family-major in name order, through `reference_draw`."""
    names = [fam for fam in cmap.families if cmap.family_cols[fam].size]
    n = label_scores.shape[0]
    u = None if winner_take_all else rng.random((len(names), n))
    labels = [{} for _ in range(n)]
    for k, fam in enumerate(names):
        members = cmap.family_cols[fam]
        cols = members if fam == IDENTITY_FAMILY else group_cols(cmap, "label")
        block = np.asarray(label_scores, dtype=np.float64)[:, cols]
        if fam != IDENTITY_FAMILY:
            block[:, ~np.isin(cols, members)] = -np.inf
        pos = block.argmax(axis=1) if u is None else reference_draw(block, u[k])
        for row, sid in zip(labels, cmap.ids[cols[pos]].tolist()):
            row[fam] = sid
    return labels
