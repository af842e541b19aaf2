"""Training: example construction, Adam, self-labeled growth, consolidation.

Examples are per-statement: each unary quadruple contributes one family target
(plus the identity pseudo-statement tying an entity to itself at the instances
where it was observed), each binary quadruple one subject/object/predicate
chain.  Teacher forcing injects ground-truth indices at every commitment.
Each batch trains through the one teacher-forced graph of its mode and arity
(`graph.forward`); the feature-only direct pass is a decode variant only.

An example set is built once per `train` call as an `Examples` table of
integer columns (symbol ids, family codes, and for perception sets rows of
the set's feature matrix, gathered from the world's).  `build_batches` turns
a table into batches in one pass: one permutation, the swaps, every column
in shuffled order, then consecutive slices.  A unary row is one label
occurrence, so its family code and target go into the batch as they are.
`train` batches every mode the same way, from a per-mode table of (unary
set, binary set, swap probability, pool).

Generalized statements: with probability `inject_rho` the injected subject (or
object) index is swapped for one of the entity's own class/attribute labels and
the matching index target follows the swap, while family targets keep the
entity's actual labels.  Aggregated over entities this trains the label
conditionals P(c2 | c1).  Episodic batches are never swapped; they memorize.
The swaps of a whole set are drawn at once, after its permutation: one
uniform draw per swappable index and one integer draw per swap, from the
entity's labels in the `InjectionPool`.

Self-labeled growth (`ssl_step`) makes its pseudo-statements once, as the two
perception tables `train` reads: it lays out its scenes' boxes as
`perception_examples` does, and each box's and relation's labels and
predicates, picked by the decode passes, fill the same columns a labeled
scene's ground truth does.  It trains only the entity and instance columns
of the embedding; every other weight stays bit-identical.  One column mask
states that rule: `train` hands it to `Adam`, which then steps only the
embedding and only its masked columns.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict
from itertools import chain
from typing import IO

import numpy as np

from . import graph
from .graph import Batch
from .network import DecodeRequest, NumericsError, SceneInput, decode_chunked, sigmoid
from .params import ColumnMap, NetParams, check_types
from .triple_store import UNKNOWN, TripleStore, distinct
from .vocab import IDENTITY_FAMILY, Kind, Vocabulary
from .world import ONTOLOGY, GroundTruthWorld, SceneIds, resolve_labels, resolve_scenes, substream


class TrainError(ValueError):
    pass


class TrainingDiverged(ArithmeticError):
    def __init__(self, epoch: int, mode: str, detail: str):
        super().__init__(f"training diverged at epoch {epoch} ({mode}): {detail}")
        self.epoch = epoch
        self.mode = mode
        self.detail = detail


ALL_MODES = ("perception", "episodic", "semantic")


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 128
    learning_rate: float = 1e-4
    seed: int = 0
    modes: tuple = ALL_MODES
    inject_rho: float = 0.5
    hidden_families: tuple = ()     # kept out of perception targets
    excluded_families: tuple = ()   # kept out of every loss
    ssl_learning_rate: float = 1e-5
    ssl_epochs: int = 20
    novelty_threshold: float = 0.6

    def __post_init__(self) -> None:
        check_types("train", self, TrainError)
        for key in ("modes", "hidden_families", "excluded_families"):
            names = getattr(self, key)
            if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
                raise TrainError(f"{key} must be a list of names, not {names!r}")
            setattr(self, key, tuple(names))
        if self.learning_rate <= 0 or self.ssl_learning_rate <= 0:
            raise TrainError("learning rates must be positive")
        if self.batch_size < 1:
            raise TrainError("batch_size must be at least 1")
        if self.epochs < 0 or self.ssl_epochs < 0:
            raise TrainError("epoch counts must be nonnegative")
        if not 0.0 <= self.inject_rho <= 1.0:
            raise TrainError("inject_rho must be in [0, 1]")
        bad = [m for m in self.modes if m not in ALL_MODES]
        if bad:
            raise TrainError(f"unknown modes {bad}")
        twice = sorted({m for m in self.modes if self.modes.count(m) > 1})
        if twice:
            raise TrainError(f"modes lists {twice} more than once")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("modes", "hidden_families", "excluded_families"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return cls(**data)


def _check_families(config: TrainConfig, vocab: Vocabulary) -> None:
    """Refuse a hidden or excluded family the vocabulary does not have."""
    unknown = sorted(set(config.hidden_families + config.excluded_families) - set(vocab.families))
    if unknown:
        raise TrainError(
            f"unknown families {unknown}; the vocabulary has {sorted(vocab.families)}"
        )


# -- example construction --------------------------------------------------------


@dataclass(frozen=True)
class Examples:
    """One example set as integer columns, one row per example.

    Unary sets hold the columns `t, s, fam, o`, where `fam` indexes
    `families` (every family of the vocabulary, sorted by name); binary sets
    hold `t, s, p, o`.  Perception sets also hold, for each feature input,
    the row of `features` it reads: `scene, bb` in unary sets, `scene, s_bb,
    o_bb, rel` in binary sets.  `features` is one float32 matrix, gathered
    from the world's `features` in one step, that a unary and a binary set
    share: their scenes' boxes, scene by scene, the scene box, its member
    boxes in member order, then its relation boxes (`_box_layout`).
    Indexing with a slice, a mask or row indices selects those rows.
    """

    cols: dict[str, np.ndarray]
    families: tuple[str, ...] = ()
    features: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.cols["t"])

    def __getitem__(self, rows) -> "Examples":
        return Examples({k: v[rows] for k, v in self.cols.items()}, self.families, self.features)


def _families(vocab: Vocabulary) -> tuple[str, ...]:
    return tuple(sorted(vocab.families))


def memory_examples(
    store: TripleStore, vocab: Vocabulary, excluded_families: tuple = ()
) -> tuple[Examples, Examples]:
    """Per-statement examples from the store's positives, in `iter_positive`
    order, then one identity pseudo-statement per (entity, instance)
    observation, sorted by entity and instance."""
    families = _families(vocab)
    s, p, o, t = store.positive_array().T
    label = p == vocab.has_attribute
    fam = vocab.family_codes()[o]
    if np.any(label & (fam < 0)):
        bad = vocab.name_of(int(o[label & (fam < 0)][0]))
        raise TrainError(f"label {bad!r} belongs to no family")
    excluded = [families.index(f) for f in set(excluded_families) if f in families]
    keep = label & ~np.isin(fam, excluded)
    # observed (entity, instance) pairs: every subject, and entity objects of
    # binaries; the entities are the Identity family's members
    identity = families.index(IDENTITY_FAMILY)
    obj = ~label & (fam == identity)
    n = len(vocab)
    pairs = distinct(np.concatenate([s * n + t, o[obj] * n + t[obj]]))
    ident_s, ident_t = pairs // n, pairs % n
    unary = Examples(
        {
            "t": np.concatenate([t[keep], ident_t]),
            "s": np.concatenate([s[keep], ident_s]),
            "fam": np.concatenate([fam[keep], np.full(ident_s.size, identity)]),
            "o": np.concatenate([o[keep], ident_s]),
        },
        families,
    )
    binary = Examples({"t": t[~label], "s": s[~label], "p": p[~label], "o": o[~label]}, families)
    return unary, binary


def perception_examples(
    world: GroundTruthWorld,
    vocab: Vocabulary,
    hidden_families: tuple = (),
) -> tuple[Examples, Examples]:
    """Feature-bearing examples from the train and ex_train scenes, which are
    registered instances, in scene order: per member, one row per visible
    label, in family order, then an identity row; one row per scene relation.
    The scenes' names are resolved once (`resolve_scenes`), the visible labels
    once per distinct member (`resolve_labels`), and the boxes laid out as
    `_box_layout` says."""
    hidden = set(hidden_families)
    visible = [f for f in ONTOLOGY.label_families if f not in hidden]
    scenes = world.scenes_of_kind("train", "ex_train")
    ids = resolve_scenes(scenes, vocab)
    entities, row = np.unique(ids.members, return_inverse=True)
    labels = resolve_labels(world, vocab, entities, visible)[row.reshape(-1)]
    return _perception_tables(ids, vocab.ids_of([sc.name for sc in scenes]),
                              _box_layout(world, scenes), _families(vocab), visible,
                              ids.members, labels, ids.binaries)


def _box_layout(world: GroundTruthWorld, scenes: list) -> tuple:
    """The boxes of `scenes` as one feature matrix, scene by scene: the scene
    box, its member boxes, then its relation boxes.  Returns the row of each
    scene's, member's and relation's box, and the matrix, gathered from the
    world's in one step."""
    counts = np.array([(1, len(sc.members), len(sc.binaries)) for sc in scenes], dtype=np.int64)
    part = np.repeat(np.tile([0, 1, 2], len(scenes)), counts.reshape(-1))  # per row, its part
    scene, bb, rel = (np.flatnonzero(part == k) for k in range(3))
    features = world.features_of(list(chain.from_iterable(sc.box_keys() for sc in scenes)))
    return scene, bb, rel, features


def _perception_tables(ids: SceneIds, t: np.ndarray, layout: tuple, families: tuple[str, ...],
                       label_families: list, s: np.ndarray, labels: np.ndarray,
                       spo: np.ndarray) -> tuple[Examples, Examples]:
    """The perception tables of scenes resolved as `ids`, with instance ids
    `t` and their boxes at `layout`.  Per member, with subject `s`: one row
    per column of `labels` (of `label_families`), then an identity row, as
    one repeat of its columns; per binary statement, one row of the (n, 3)
    ids `spo`."""
    scene, bb, rel, features = layout
    fam = np.array([families.index(f) for f in [*label_families, IDENTITY_FAMILY]], np.int64)
    unary = {
        "t": np.repeat(t[ids.member_scene], fam.size), "s": np.repeat(s, fam.size),
        "fam": np.tile(fam, s.size), "o": np.concatenate([labels, s[:, None]], axis=1).reshape(-1),
        "scene": np.repeat(scene[ids.member_scene], fam.size), "bb": np.repeat(bb, fam.size),
    }
    binary = {
        "t": t[ids.binary_scene], "s": spo[:, 0], "p": spo[:, 1], "o": spo[:, 2],
        "scene": scene[ids.binary_scene], "s_bb": bb[ids.subject_at], "o_bb": bb[ids.object_at],
        "rel": rel,
    }
    return Examples(unary, families, features), Examples(binary, families, features)


@dataclass(frozen=True)
class InjectionPool:
    """Per entity, the labels eligible to replace its index in a swap, as CSR
    arrays: the labels of `entities[i]` are `labels[offsets[i]:offsets[i + 1]]`,
    sorted; `entities` is sorted."""

    entities: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return int(self.entities.size)


def injection_pool(
    store: TripleStore, vocab: Vocabulary, excluded_families: tuple = ()
) -> InjectionPool:
    """Per entity: the labels eligible to replace its index in a swap."""
    families = _families(vocab)
    s, p, o, _ = store.positive_array().T
    excluded = [families.index(f) for f in set(excluded_families) if f in families]
    keep = (p == vocab.has_attribute) & ~np.isin(vocab.family_codes()[o], excluded)
    n = len(vocab)
    pairs = distinct(s[keep] * n + o[keep])
    entities, counts = np.unique(pairs // n, return_counts=True)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return InjectionPool(entities, offsets, pairs % n)


def _swapped(
    ids: np.ndarray, eligible: np.ndarray, rng: np.random.Generator, rho: float,
    pool: InjectionPool | None,
) -> np.ndarray:
    """`ids`, each eligible id that has a pool replaced with probability `rho`
    by one of its pool's labels, uniformly.  The draws for the whole set are
    one uniform draw per candidate and one integer draw per swap; nothing is
    drawn when `rho` is 0 or the pool is empty."""
    if rho == 0.0 or pool is None or not len(pool):
        return ids
    # each id's labels: `size` of them from `start` (none for an id without a pool)
    i = np.minimum(np.searchsorted(pool.entities, ids), len(pool) - 1)
    start = pool.offsets[i]
    size = np.where(pool.entities[i] == ids, pool.offsets[i + 1] - start, 0)
    candidates = np.flatnonzero(eligible & (size > 0))
    hit = candidates[rng.random(candidates.size) < rho]
    out = ids.copy()
    out[hit] = pool.labels[start[hit] + rng.integers(0, size[hit])]
    return out


def build_batches(
    unary: Examples,
    binary: Examples,
    *,
    mode: str,
    cmap: ColumnMap,
    batch_size: int,
    rng: np.random.Generator,
    rho: float = 0.0,
    pool: InjectionPool | None = None,
) -> list[Batch]:
    """Shuffle, apply index swaps, resolve ids to columns, group into batches.

    One pass per set, the unary set first: one permutation, then the swaps
    (`_swapped`), then every column in shuffled order; its batches are
    consecutive slices of those columns.  Swaps touch unary subjects outside
    the identity family, and binary subjects and objects independently.  A
    unary row is one label occurrence, so its batch takes the set's `fam`
    and `o` columns as they are.  Perception batches gather their rows of the
    set's feature matrix.
    """
    batches: list[Batch] = []
    for arity, table in (("unary", unary), ("binary", binary)):
        n = len(table)
        if not n:
            continue
        order = rng.permutation(n)
        c = table.cols
        if arity == "unary":
            if table.families != cmap.families:
                raise TrainError("the unary set's family codes do not follow the column map's")
            s = _swapped(c["s"], c["fam"] != cmap.identity_code, rng, rho, pool)
            ids = {"subj_inject_cols": s, "label_target_cols": c["o"]}
            # each row is one occurrence; `label_rows` is its row in its batch
            shuffled = {"label_fams": c["fam"][order], "label_rows": np.arange(n) % batch_size}
            boxes = {"feat_scene": "scene", "feat_subj": "bb"}
        else:
            ends = _swapped(np.concatenate([c["s"], c["o"]]), np.ones(2 * n, dtype=bool), rng,
                            rho, pool)
            ids = {"subj_inject_cols": ends[:n], "obj_inject_cols": ends[n:], "pred_cols": c["p"]}
            shuffled = {}
            boxes = {"feat_scene": "scene", "feat_subj": "s_bb", "feat_obj": "o_bb",
                     "feat_pred": "rel"}
        if mode != "semantic":
            ids["inst_cols"] = c["t"]
        shuffled |= {k: cmap.cols_of(v[order]) for k, v in ids.items()}
        if mode == "perception":
            shuffled |= {k: table.features[c[key][order]] for k, key in boxes.items()}
        for lo in range(0, n, batch_size):
            rows = slice(lo, lo + batch_size)
            batches.append(Batch(mode=mode, arity=arity,
                                 **{k: v[rows] for k, v in shuffled.items()}))
    return batches


# -- optimizer ---------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Adam with bias correction, at the usual constants `ADAM_BETA1`,
    `ADAM_BETA2` and `ADAM_EPS` (Kingma & Ba, arXiv:1412.6980).

    With `emb_col_mask` (a 0/1 weight per column) only the embedding is
    stepped, and only its masked columns change; every other block and column
    stays bit-identical.  The moments are one buffer each, in the layout of
    what it steps: the whole of `flat`, or only `emb` under a column mask.

    The update runs in two scratch buffers that the optimizer owns, in the
    operation order of the textbook expressions
    `m = b1 m + (1 - b1) g`, `v = b2 v + (1 - b2) g^2`,
    `p -= lr (m / c1) / (sqrt(v / c2) + eps)`, so it allocates nothing per step.
    """

    def __init__(self, params: NetParams, learning_rate: float,
                 emb_col_mask: np.ndarray | None = None):
        self.lr = learning_rate
        self.t = 0
        self.emb_col_mask = emb_col_mask
        stepped = params.flat if emb_col_mask is None else params.emb
        self.m, self.v = np.zeros_like(stepped), np.zeros_like(stepped)
        self._scratch = (np.empty_like(stepped), np.empty_like(stepped))

    def step(self, params: NetParams, grads: NetParams) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        p, g = (params.flat, grads.flat) if self.emb_col_mask is None else (params.emb, grads.emb)
        m, v, (a, b) = self.m, self.v, self._scratch
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        v += np.multiply(1.0 - ADAM_BETA2, a, out=a)
        np.divide(m, c1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        if self.emb_col_mask is not None:
            a *= self.emb_col_mask
        p -= a


# -- training loop -------------------------------------------------------------------


def train(
    params: NetParams,
    cmap: ColumnMap,
    vocab: Vocabulary,
    store: TripleStore,
    config: TrainConfig,
    world: GroundTruthWorld | None = None,
    emb_col_mask: np.ndarray | None = None,
    pseudo: tuple[Examples, Examples] | None = None,
) -> list[dict]:
    """Multi-task loop over the configured modes; params update in place.

    Returns one history row per (epoch, mode): epoch, split, loss, metric.
    `emb_col_mask` restricts the update to those embedding columns (see
    `Adam`).  `pseudo` substitutes a prebuilt (unary, binary) pair of
    perception example sets for the sets of every mode (self-labeled
    training); it swaps nothing.
    """
    if "perception" in config.modes and world is None and pseudo is None:
        raise TrainError("perception training needs a world with features")
    if store.total_statements() == 0 and pseudo is None:
        raise TrainError("empty store")
    _check_families(config, vocab)

    # per mode: (unary set, binary set, swap probability, pool); build only
    # the sets and pools the configured modes read (a mode that injects
    # nothing never reads its pool)
    rho = config.inject_rho
    if pseudo is not None:
        sets = {mode: (*pseudo, 0.0, None) for mode in ALL_MODES}
    else:
        sets = {}
        modes = set(config.modes)
        if modes & {"episodic", "semantic"}:
            memory = memory_examples(store, vocab, config.excluded_families)
            injecting = "semantic" in modes and rho > 0
            pool = injection_pool(store, vocab, config.excluded_families) if injecting else None
            sets |= {"episodic": (*memory, 0.0, None), "semantic": (*memory, rho, pool)}
        if "perception" in modes:
            hidden = tuple(set(config.hidden_families) | set(config.excluded_families))
            pool = injection_pool(store, vocab, hidden) if rho > 0 else None
            sets["perception"] = (*perception_examples(world, vocab, hidden), rho, pool)

    opt = Adam(params, config.learning_rate, emb_col_mask)
    history: list[dict] = []

    for epoch in range(config.epochs):
        rng = substream(config.seed, "epoch", epoch)
        batches: list[Batch] = []
        for mode in config.modes:
            unary, binary, mode_rho, pool = sets[mode]
            batches += build_batches(unary, binary, mode=mode, cmap=cmap, rng=rng, rho=mode_rho,
                                     pool=pool, batch_size=config.batch_size)

        sums = {m: [0.0, 0.0, 0] for m in config.modes}
        for bi in rng.permutation(len(batches)):
            batch = batches[int(bi)]
            try:
                loss, cache = graph.forward(params, cmap, batch)
            except NumericsError as exc:
                raise TrainingDiverged(epoch, batch.mode, str(exc)) from exc
            grads = graph.backward(params, cmap, batch, cache)
            opt.step(params, grads)
            n = len(batch)
            into = sums[batch.mode]
            into[0] += loss * n
            into[1] += graph.mean_head_accuracy(cache) * n
            into[2] += n
        for mode in config.modes:
            total, acc, n = sums[mode]
            if n:
                history.append(
                    {"epoch": epoch, "split": mode, "loss": total / n, "metric": acc / n}
                )
    return history


def write_history_csv(history: list[dict], fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["epoch", "split", "loss", "metric"])
    for row in history:
        writer.writerow(
            [row["epoch"], row["split"], f"{row['loss']:.6f}", f"{row['metric']:.6f}"]
        )


# -- self-labeled growth ---------------------------------------------------------------


def detect_novel_entity(entity_sigmoids: np.ndarray, threshold: float) -> bool:
    """True iff no known entity unit fires above threshold."""
    return bool(entity_sigmoids.size == 0 or float(entity_sigmoids.max()) < threshold)


@dataclass
class SslReport:
    new_instances: list[str] = field(default_factory=list)
    new_entities: list[str] = field(default_factory=list)
    pseudo_unary: list[dict] = field(default_factory=list)   # rows t, s, fam (a name), o
    pseudo_binary: list[dict] = field(default_factory=list)  # rows t, s, p, o
    history: list[dict] = field(default_factory=list)
    skipped: int = 0  # scenes whose instance the vocabulary already held


def ssl_step(
    params: NetParams,
    cmap: ColumnMap,
    vocab: Vocabulary,
    world: GroundTruthWorld,
    scene_names: list[str],
    config: TrainConfig,
    store: TripleStore | None = None,
) -> tuple[NetParams, ColumnMap, SslReport]:
    """Self-labeled growth on unlabeled scenes.

    Each scene gets a fresh instance index, but one whose instance the
    vocabulary holds was perceived before: it is skipped and counted.  The
    scenes are resolved (`resolve_scenes`) and their boxes laid out as the
    perception tables lay theirs out (`_box_layout`) before the first
    instance is registered, so a step refused for a scene listed twice, an
    unknown name or a missing box leaves the vocabulary and the weights as
    they were.  Every
    box is recognized with the current weights; if no known entity unit
    clears the novelty threshold a new entity index is allocated for it.  Recognition
    and labeling are winner-take-all perception passes of `decode_chunked`
    with the scene's instance clamped, and for labeling the recognized
    entities too.  The picked labels and predicates are made once into the
    two perception tables `train` reads: per box, its labels in family-name
    order (no Identity, hidden or excluded family), then an identity row;
    one row per scene relation.  The report's rows and the store's new
    statements (each once, if the store does not know it) are read from them.

    Only the entity and instance embedding columns train on them, at the
    dedicated low rate; every other block and column stays bit-identical.
    The entity and instance columns that existed before the step retrain
    too, by design: "pre-existing columns untouched" is an invariant of
    consolidation and of growth (`NetParams.grow`), not of SSL.
    """
    _check_families(config, vocab)
    report = SslReport()
    scenes = [world.scene(n) for n in scene_names if n not in vocab]
    report.skipped = len(scene_names) - len(scenes)
    if not scenes:  # nothing to perceive: no growth and no training
        return params, cmap, report
    names = [scene.name for scene in scenes]
    if len(set(names)) < len(names):
        twice = next(n for i, n in enumerate(names) if n in names[:i])
        raise TrainError(f"scene {twice!r} is listed twice")
    ids = resolve_scenes(scenes, vocab)
    layout = _box_layout(world, scenes)
    t = np.array([vocab.add_instance(name) for name in names], dtype=np.int64)
    report.new_instances = names
    grow_rng = substream(config.seed, "ssl-grow")
    cmap = params.grow(vocab, grow_rng)
    rng = substream(config.seed, "ssl-decode")  # winner-take-all passes draw nothing
    scene_row, bb, rel, features = layout
    # per box, and per statement: its instance, then the rows of the boxes its pass reads
    boxes = np.c_[t[ids.member_scene], scene_row[ids.member_scene], bb].tolist()
    rels = np.c_[t[ids.binary_scene], scene_row[ids.binary_scene], bb[ids.subject_at],
                 bb[ids.object_at], rel].tolist()

    def perceive(t: int, *rows: int, **clamps) -> DecodeRequest:
        return DecodeRequest(
            mode="perception", features=SceneInput(*features[list(rows)]), instance_id=t,
            winner_take_all=True, subject_support="entities", **clamps,
        )

    # recognition pass: novelty detection per box with current weights
    entity = [
        None if detect_novel_entity(sigmoid(trace.scores["subject"][cmap.block["entity"]]),
                                    config.novelty_threshold) else trace.subject_id
        for trace in decode_chunked(params, cmap, vocab, [perceive(*box) for box in boxes], rng)
    ]
    names = [f"{scene.name}.{i}" for scene in scenes for i in range(len(scene.members))]
    report.new_entities = [name for name, e in zip(names, entity) if e is None]
    entity = [vocab.add_entity(name) if e is None else e for name, e in zip(names, entity)]
    if report.new_entities:
        cmap = params.grow(vocab, grow_rng)

    # labeling passes: winner-take-all pseudo-statements through committed states
    hidden = {IDENTITY_FAMILY, *config.hidden_families, *config.excluded_families}
    label_families = [f for f in cmap.families if cmap.family_cols[f].size and f not in hidden]
    labeled = decode_chunked(params, cmap, vocab, [
        perceive(*box, subject_id=e) for box, e in zip(boxes, entity)], rng)
    labels = [[trace.labels[f] for f in label_families] for trace in labeled]
    related = decode_chunked(params, cmap, vocab, [
        perceive(*r, subject_id=entity[i], object_id=entity[j])
        for r, i, j in zip(rels, ids.subject_at.tolist(), ids.object_at.tolist())], rng)
    spo = [(trace.subject_id, trace.predicate_id, trace.object_id) for trace in related]
    unary, binary = _perception_tables(
        ids, t, layout, cmap.families, label_families, np.array(entity, dtype=np.int64),
        np.array(labels, dtype=np.int64).reshape(len(entity), len(label_families)),
        np.array(spo, dtype=np.int64).reshape(-1, 3),
    )
    u, b = unary.cols, binary.cols
    fam_names = np.array(cmap.families)[u["fam"]]
    report.pseudo_unary = [dict(zip(("t", "s", "fam", "o"), row)) for row in zip(
        u["t"].tolist(), u["s"].tolist(), fam_names.tolist(), u["o"].tolist())]
    report.pseudo_binary = [dict(zip(("t", "s", "p", "o"), row)) for row in zip(
        b["t"].tolist(), b["s"].tolist(), b["p"].tolist(), b["o"].tolist())]
    if store is not None:
        # two boxes may resolve to one entity: record each statement once, and
        # only if the store does not know it yet
        label = u["fam"] != cmap.identity_code
        quads = np.r_[np.c_[u["s"], np.full(len(unary), vocab.has_attribute), u["o"],
                            u["t"]][label], np.c_[b["s"], b["p"], b["o"], b["t"]]]
        store.add_observations([q for q in dict.fromkeys(map(tuple, quads.tolist()))
                                if store.truth_of(*q) is UNKNOWN])

    # train only entity and instance embedding columns on the pseudo-statements
    mask = np.zeros(cmap.n_columns, dtype=params.emb.dtype)
    mask[cmap.block["entity"]] = 1.0
    mask[cmap.block["instance"]] = 1.0
    ssl_config = TrainConfig(epochs=config.ssl_epochs, batch_size=config.batch_size,
                             learning_rate=config.ssl_learning_rate, seed=config.seed,
                             modes=("perception", "episodic"), inject_rho=0.0)
    report.history = train(
        params, cmap, vocab, store if store is not None else TripleStore(vocab),
        ssl_config, world=world, emb_col_mask=mask, pseudo=(unary, binary),
    )
    return params, cmap, report


# -- consolidation ----------------------------------------------------------------------


CONSOLIDATE_STEPS = 80
CONSOLIDATE_STEP_SIZE = 0.5


def consolidate(
    params: NetParams, cmap: ColumnMap, vocab: Vocabulary, instance_id: int
) -> tuple[NetParams, ColumnMap, int]:
    """Replay an instance into a fresh duplicate index.

    Activating the instance evokes its representation (its own column); the new
    column regresses onto that evoked vector, `CONSOLIDATE_STEPS` steps of
    `CONSOLIDATE_STEP_SIZE` each, so decoding through the duplicate reproduces
    the original's outputs.  Everything pre-existing is untouched.
    """
    if vocab.kind_of(instance_id) is not Kind.INSTANCE:
        raise TrainError("consolidation duplicates an instance index")
    name = vocab.name_of(instance_id)
    dup = vocab.add_instance(name + ".dup")
    cmap = params.grow(vocab, substream(0, "consolidate"))
    evoked = params.emb[:, cmap.col_of(instance_id)]
    col = params.emb[:, cmap.col_of(dup)]
    for _ in range(CONSOLIDATE_STEPS):
        col += CONSOLIDATE_STEP_SIZE * (evoked - col)
    return params, cmap, dup
