"""Metrics and the experiment harness.

Experiments come in two styles.  Teacher-forced metrics run the training graph
with ground-truth commitments and read head accuracies (memory recall, ranking
quality given known subjects/objects).  Pipeline metrics run the decoder
end to end, one batched pass over every box or relation of a split
(perception variants, zero-shot, hidden labels), so recognition errors
propagate the way they would in use.

Every experiment is a pure function of (world, store, params, seed); reports
carry a fingerprint over those inputs so reruns are comparable.
"""
from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import graph
from .graph import Batch
from .network import DecodeRequest, DecodeTrace, SceneInput, decode_chunked
from .params import ColumnMap, NetConfig, NetParams, params_digest
from .triple_store import TripleStore, is_known
from .training import (
    Examples,
    TrainConfig,
    build_batches,
    consolidate,
    memory_examples,
    ssl_step,
    train,
)
from .vocab import IDENTITY_FAMILY, Vocabulary
from .world import GroundTruthWorld, substream


class EvalError(ValueError):
    pass


# -- elementary metrics ------------------------------------------------------------


def target_ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each row's target's place in descending score order, ties toward the
    lower index: the columns above it, plus those tied with it before it."""
    t = scores[np.arange(len(scores)), targets][:, None]
    before = np.arange(scores.shape[1]) < targets[:, None]
    return ((scores > t) | ((scores == t) & before)).sum(axis=1)


# -- teacher-forced head metrics ------------------------------------------------------


def head_metrics(
    params: NetParams,
    cmap: ColumnMap,
    unary: Examples,
    binary: Examples,
    mode: str,
    batch_size: int = 512,
    ks: tuple = (1, 10),
) -> dict:
    """Accuracy of each prediction head with ground truth committed upstream."""
    rng = substream(0, "eval-order")
    batches = build_batches(unary, binary, mode=mode, cmap=cmap, batch_size=batch_size, rng=rng)
    fam_hit: dict[str, int] = {}
    fam_n: dict[str, int] = {}
    head_hit: dict[str, int] = {}
    head_n: dict[str, int] = {}
    pred_hits = {k: 0 for k in ks}
    obj_hits = {k: 0 for k in ks}
    loss_sum = 0.0
    n_total = 0
    for batch in batches:
        loss, cache = graph.forward(params, cmap, batch)
        loss_sum += loss * len(batch)
        n_total += len(batch)
        for fam, h in cache["fam_heads"].items():
            fam_hit[fam] = fam_hit.get(fam, 0) + h["hits"]
            fam_n[fam] = fam_n.get(fam, 0) + h["n"]
        for name, h in cache["heads"].items():
            head_hit[name] = head_hit.get(name, 0) + int(h["hits"].sum())
            head_n[name] = head_n.get(name, 0) + h["hits"].size
            if name in ("NP", "NO"):
                ranks = target_ranks(h["scores"], h["targets"])
                into = pred_hits if name == "NP" else obj_hits
                for k in ks:
                    into[k] += int((ranks < k).sum())
    out: dict = {
        "loss": loss_sum / n_total if n_total else float("nan"),
        "families": {f: fam_hit[f] / fam_n[f] for f in fam_n},
        "heads": {h: head_hit[h] / head_n[h] for h in head_n},
        "n_unary": len(unary),
        "n_binary": len(binary),
    }
    label_hits = sum(v for f, v in fam_hit.items() if f != IDENTITY_FAMILY)
    label_n = sum(v for f, v in fam_n.items() if f != IDENTITY_FAMILY)
    out["unary_top1"] = label_hits / label_n if label_n else float("nan")
    if IDENTITY_FAMILY in fam_n:
        out["identity_top1"] = fam_hit[IDENTITY_FAMILY] / fam_n[IDENTITY_FAMILY]
    if head_n.get("NP"):
        out["predicate_hits"] = {str(k): pred_hits[k] / head_n["NP"] for k in ks}
    if head_n.get("NO"):
        out["object_hits"] = {str(k): obj_hits[k] / head_n["NO"] for k in ks}
    return out


def label_conditional_estimate(
    params: NetParams, cmap: ColumnMap, vocab: Vocabulary, c1: int, c2: int
) -> float:
    """Model probability of label c2 in its family, queried with subject c1
    through the pooled (pre-observation) pathway."""
    fam = vocab.family_of(c2)
    if fam is None:
        raise EvalError(f"{vocab.name_of(c2)} belongs to no label family")
    batch = Batch(
        mode="semantic",
        arity="unary",
        subj_inject_cols=cmap.cols_of([c1]),
        label_rows=np.array([0]),
        label_fams=np.array([cmap.families.index(fam)]),
        label_target_cols=cmap.cols_of([c2]),
    )
    _, cache = graph.forward(params, cmap, batch)
    key, span = next((key, span) for key, serves, span, _ in cmap.label_heads
                     if serves[batch.label_fams[0]])
    return float(cache[key]["probs"][0, batch.label_target_cols[0] - span.start])


# -- decode pipelines ------------------------------------------------------------------


# the label pairs (c1, c2) whose conditional P(c2 | c1) semantic recall checks
CONDITIONAL_PAIRS = (("Dog", "Mammal"),)

_VARIANTS = {
    "samp": dict(instance_attention=True, subject_support="entities", object_support="entities"),
    "sa": dict(instance_attention=True, concept_attention=True),
    "direct": dict(direct=True, subject_support="entities", object_support="entities"),
}


def _perceive(params, cmap, vocab, variant: str, inputs: list[SceneInput],
              rng) -> Iterator[DecodeTrace]:
    """Winner-take-all perception traces of one variant, in batched passes."""
    if variant not in _VARIANTS:
        raise EvalError(f"unknown perception variant {variant!r}; choose from {tuple(_VARIANTS)}")
    requests = [
        DecodeRequest(mode="perception", features=feats, winner_take_all=True, **_VARIANTS[variant])
        for feats in inputs
    ]
    return decode_chunked(params, cmap, vocab, requests, rng)


def _box_inputs(world: GroundTruthWorld, boxes: list[tuple]) -> list[SceneInput]:
    """Unary perception inputs, one per (scene, member) box, from one gather."""
    keys = [k for s, m in boxes for k in (s.scene_key, s.bb_key(m))]
    return [SceneInput(*rows) for rows in world.features_of(keys).reshape(len(boxes), 2, -1)]


def _box_hits(params, cmap, vocab, world: GroundTruthWorld, boxes: list[tuple], variant: str,
              families: tuple, rng) -> tuple[dict, int, int]:
    """Perceive each (scene, member) box once, in one batch, and count the
    hits: per family, the boxes whose label is the member's; then how many
    members the vocabulary holds, and how many of those were the subject
    picked."""
    traces = _perceive(params, cmap, vocab, variant, _box_inputs(world, boxes), rng)
    hit = dict.fromkeys(families, 0)
    subj_known = subj_hit = 0
    for (_scene, m), trace in zip(boxes, traces):
        labels = world.entity_record(m).labels
        for fam in families:
            hit[fam] += trace.labels.get(fam) == vocab.id_of(labels[fam])
        if m in vocab:
            subj_known += 1
            subj_hit += trace.subject_id == vocab.id_of(m)
    return hit, subj_known, subj_hit


def perception_unary_eval(
    params: NetParams,
    cmap: ColumnMap,
    vocab: Vocabulary,
    world: GroundTruthWorld,
    scenes: list,
    variant: str,
    families: tuple | None = None,
) -> dict:
    """Per-box decoding: one pass per scene member, all in one batch, label
    accuracy per family: `families`, or every label family when it is None.
    With no family the mean is NaN."""
    rng = substream(0, "perception-eval")
    if families is None:
        families = [f for f in sorted(cmap.family_cols) if f != IDENTITY_FAMILY]
    fams = tuple(families)
    boxes = [(scene, m) for scene in scenes for m in scene.members]
    if not boxes:
        raise EvalError("no boxes to evaluate")
    hit, subj_known, subj_hit = _box_hits(params, cmap, vocab, world, boxes, variant, fams, rng)
    n = len(boxes)
    acc = {f: hit[f] / n for f in fams}
    out = {
        "families": acc,
        "mean_unary": float(np.mean(list(acc.values()))) if acc else float("nan"),
        "n_boxes": n,
    }
    if subj_known:
        out["subject_top1"] = subj_hit / subj_known
        out["n_known_subjects"] = subj_known
    return out


def perception_binary_eval(
    params: NetParams,
    cmap: ColumnMap,
    vocab: Vocabulary,
    world: GroundTruthWorld,
    examples: list[dict],
    variant: str,
    ks: tuple = (1, 10),
) -> dict:
    """Full-chain decoding per relation example, all in one batch.

    Each example names feature keys (scene, s, o, rel) and the true predicate
    (`p`, a name); subject and object commitments come from the model,
    predicate is ranked at the end.
    """
    if not examples:
        raise EvalError("no relation examples to evaluate")
    rng = substream(0, "perception-eval")
    keys = [ex[k] for ex in examples for k in ("scene", "s_bb", "o_bb", "rel")]
    inputs = [SceneInput(*rows) for rows in world.features_of(keys).reshape(len(examples), 4, -1)]
    traces = _perceive(params, cmap, vocab, variant, inputs, rng)
    scores = np.stack([trace.scores["predicate"] for trace in traces])
    truth = cmap.pos("predicate", cmap.cols_of([vocab.id_of(ex["p"]) for ex in examples]))
    ranks = target_ranks(scores, truth)
    n = len(examples)
    return {
        "predicate_hits": {str(k): int((ranks < k).sum()) / n for k in ks},
        "chance": 1.0 / scores.shape[1],
        "n": n,
    }


# -- experiment harness ---------------------------------------------------------------


@dataclass
class MetricReport:
    experiment: str
    metrics: dict
    counts: dict
    fingerprint: str
    wall_clock_s: float

    def to_dict(self, volatile: bool = True) -> dict:
        out = {
            "experiment": self.experiment,
            "metrics": self.metrics,
            "counts": self.counts,
            "fingerprint": self.fingerprint,
        }
        if volatile:
            out["wall_clock_s"] = self.wall_clock_s
        return out

    def rows(self) -> list[tuple[str, str, float]]:
        """Flat (experiment, metric, value) rows for CSV output."""
        rows: list[tuple[str, str, float]] = []

        def _walk(prefix: str, value) -> None:
            if isinstance(value, dict):
                for key in sorted(value):
                    _walk(f"{prefix}.{key}" if prefix else str(key), value[key])
            elif isinstance(value, (int, float, bool, np.floating, np.integer)):
                rows.append((self.experiment, prefix, float(value)))

        _walk("", self.metrics)
        for key in sorted(self.counts):
            rows.append((self.experiment, f"n.{key}", float(self.counts[key])))
        return rows


@dataclass
class EvalContext:
    """Everything an experiment may need: the world, its store and
    vocabulary, the model under evaluation (`params`, `cmap`) and the train
    config.  An experiment that trains a model of its own starts it from
    `fresh_params` and trains it with `config_with` its overrides."""

    world: GroundTruthWorld
    store: TripleStore
    vocab: Vocabulary
    params: NetParams
    cmap: ColumnMap
    train_config: TrainConfig
    net_config: NetConfig | None = None
    seed: int = 0

    def config_with(self, **overrides) -> TrainConfig:
        return TrainConfig.from_dict({**self.train_config.to_dict(), **overrides})

    def fresh_params(self) -> tuple[NetParams, ColumnMap]:
        net = self.net_config or NetConfig(feature_dim=self.world.config.feature_dim)
        if net.feature_dim != self.world.config.feature_dim:
            raise EvalError("network feature width does not match the world's")
        cmap = ColumnMap(self.vocab)
        params = NetParams.init(self.vocab, net, substream(self.seed, "init"))
        return params, cmap


def _visible_families(ctx: EvalContext) -> tuple:
    cfg = ctx.train_config
    return tuple(f for f in sorted(ctx.vocab.families) if f != IDENTITY_FAMILY
                 and f not in cfg.hidden_families and f not in cfg.excluded_families)


def _experiment_episodic_recall(ctx: EvalContext) -> tuple[dict, dict]:
    params, cmap = ctx.params, ctx.cmap
    unary, binary = memory_examples(ctx.store, ctx.vocab)
    m = head_metrics(params, cmap, unary, binary, "episodic")
    metrics = {
        "unary_top1": m["unary_top1"],
        "binary_hits1": m["heads"].get("NP", float("nan")),
        "subject_top1": m["heads"].get("NS", float("nan")),
        "object_hits": m.get("object_hits", {}),
        "predicate_hits": m.get("predicate_hits", {}),
        "families": m["families"],
    }
    return metrics, {"unary": m["n_unary"], "binary": m["n_binary"]}


def _experiment_semantic_recall(ctx: EvalContext) -> tuple[dict, dict]:
    params, cmap = ctx.params, ctx.cmap
    unary, binary = memory_examples(ctx.store, ctx.vocab)
    m = head_metrics(params, cmap, unary, binary, "semantic")
    conditionals = {}
    for c1_name, c2_name in CONDITIONAL_PAIRS:
        c1, c2 = ctx.vocab.id_of(c1_name), ctx.vocab.id_of(c2_name)
        estimate = label_conditional_estimate(params, cmap, ctx.vocab, c1, c2)
        oracle = ctx.store.label_conditional(c1, c2)
        oracle_val = float(oracle) if is_known(oracle) else float("nan")
        conditionals[f"{c1_name}->{c2_name}"] = {
            "estimate": estimate,
            "oracle": oracle_val,
            "abs_err": abs(estimate - oracle_val),
        }
    metrics = {
        "unary_top1": m["unary_top1"],
        "object_hits": m.get("object_hits", {}),
        "predicate_hits": m.get("predicate_hits", {}),
        "families": m["families"],
        "conditionals": conditionals,
    }
    return metrics, {"unary": m["n_unary"], "binary": m["n_binary"]}


def _experiment_perception_unary(ctx: EvalContext) -> tuple[dict, dict]:
    # every variant decodes through the same trained weights; "direct" only
    # changes the decode pathway, not the model
    params, cmap = ctx.params, ctx.cmap
    fams = _visible_families(ctx)
    ex_scenes = ctx.world.scenes_of_kind("ex_test")
    e_scenes = ctx.world.scenes_of_kind("e_test")
    metrics: dict = {}
    counts: dict = {}
    for split, scenes in (("ex", ex_scenes), ("e", e_scenes)):
        if not scenes:
            continue
        per = {}
        for variant in _VARIANTS:
            per[variant] = perception_unary_eval(
                params, cmap, ctx.vocab, ctx.world, scenes, variant, families=fams
            )
        metrics[split] = {v: per[v]["mean_unary"] for v in per}
        metrics[f"{split}_families"] = {v: per[v]["families"] for v in per}
        if "subject_top1" in per["samp"]:
            metrics[f"{split}_subject_top1"] = per["samp"]["subject_top1"]
        counts[split] = per["samp"]["n_boxes"]
    if "ex" in metrics:
        metrics["samp_minus_direct_ex"] = metrics["ex"]["samp"] - metrics["ex"]["direct"]
    if "e" in metrics:
        metrics["sa_minus_direct_e"] = metrics["e"]["sa"] - metrics["e"]["direct"]
    return metrics, counts


def _binary_examples_from_scenes(scenes: list) -> list[dict]:
    out = []
    for scene in scenes:
        for i, (s, p, o) in enumerate(scene.binaries):
            out.append(
                {
                    "scene": scene.scene_key, "s_bb": scene.bb_key(s),
                    "o_bb": scene.bb_key(o), "rel": scene.rel_key(i),
                    "s": s, "p": p, "o": o,
                }
            )
    return out


def _experiment_perception_binary(ctx: EvalContext) -> tuple[dict, dict]:
    params, cmap = ctx.params, ctx.cmap
    metrics: dict = {}
    counts: dict = {}
    for split, kind in (("ex", "ex_test"), ("e", "e_test")):
        scenes = ctx.world.scenes_of_kind(kind)
        examples = _binary_examples_from_scenes(scenes)
        if not examples:
            continue
        per = {}
        for variant in _VARIANTS:
            per[variant] = perception_binary_eval(
                params, cmap, ctx.vocab, ctx.world, examples, variant
            )
        metrics[split] = {v: per[v]["predicate_hits"] for v in per}
        metrics[f"{split}_chance"] = per["samp"]["chance"]
        counts[split] = per["samp"]["n"]
    return metrics, counts


def _experiment_hidden_label(ctx: EvalContext, family: str = "Risk") -> tuple[dict, dict]:
    if family not in ctx.vocab.families:
        raise EvalError(f"world has no {family!r} family")
    scenes = ctx.world.scenes_of_kind("ex_test") or ctx.world.scenes_of_kind("train")

    by_label: dict[str, list[tuple]] = {}
    for scene in scenes:
        for m in scene.members:
            label = ctx.world.entity_record(m).labels[family]
            by_label.setdefault(label, []).append((scene, m))
    if len(by_label) < 2:
        raise EvalError(f"evaluation scenes carry only one {family} label")
    take = min(len(v) for v in by_label.values())
    balanced: list[tuple] = []
    for label in sorted(by_label):
        balanced.extend(by_label[label][:take])

    def accuracy(**overrides) -> float:
        """The label accuracy on the balanced boxes of a model trained for it."""
        params, cmap = ctx.fresh_params()
        train(params, cmap, ctx.vocab, ctx.store, ctx.config_with(**overrides), world=ctx.world)
        hit, _, _ = _box_hits(params, cmap, ctx.vocab, ctx.world, balanced, "samp", (family,),
                              substream(0, "hidden-label"))
        return hit[family] / len(balanced)

    metrics = {
        "base_acc": accuracy(excluded_families=(family,)),
        "enriched_acc": accuracy(hidden_families=(family,)),
        "chance": 1.0 / len(by_label),
        "family": family,
    }
    return metrics, {"balanced": len(balanced), "labels": len(by_label)}


def _training_combos(world: GroundTruthWorld) -> set:
    """The (subject BClass, predicate, object BClass) of every training
    binary; each entity's BClass is read once, a train entity's over a test
    entity's of the same name, as `entity_record` resolves it."""
    bclass = {name: rec.labels["BClass"] for records in (world.test_entities, world.entities)
              for name, rec in records.items()}
    return {(bclass[s], p, bclass[o]) for scene in world.scenes_of_kind("train", "ex_train")
            for s, p, o in scene.binaries}


def _experiment_zero_shot(ctx: EvalContext) -> tuple[dict, dict]:
    params, cmap = ctx.params, ctx.cmap
    held = set(ctx.world.heldout)
    leaked = held & _training_combos(ctx.world)
    if leaked:
        raise EvalError(f"held-out combos appear in training scenes: {sorted(leaked)[:3]}")
    examples = _binary_examples_from_scenes(ctx.world.scenes_of_kind("zero_shot"))
    m = perception_binary_eval(params, cmap, ctx.vocab, ctx.world, examples, "samp")
    hits1 = m["predicate_hits"]["1"]
    metrics = {
        "hits": m["predicate_hits"],
        "chance": m["chance"],
        "ratio_vs_chance": hits1 / m["chance"],
        "held_out_combos": len(held),
    }
    return metrics, {"examples": m["n"]}


def _experiment_social_recall(ctx: EvalContext) -> tuple[dict, dict]:
    params, cmap = ctx.params, ctx.cmap
    social_instances = {
        ctx.vocab.id_of(s.name) for s in ctx.world.scenes_of_kind("social")
    }
    unary, binary = memory_examples(ctx.store, ctx.vocab)
    social = list(social_instances)
    binary = binary[np.isin(binary.cols["t"], social)]
    unary = unary[np.isin(unary.cols["t"], social)]
    m = head_metrics(params, cmap, unary, binary, "episodic")
    metrics = {
        "object_hits": m.get("object_hits", {}),
        "predicate_top1": m["heads"].get("NP", float("nan")),
        "subject_top1": m["heads"].get("NS", float("nan")),
    }
    return metrics, {"edges": m["n_binary"]}


def _experiment_ssl(ctx: EvalContext) -> tuple[dict, dict]:
    unlabeled = [s.name for s in ctx.world.scenes_of_kind("unlabeled")]
    params, cmap = ctx.params, ctx.cmap
    vocab2 = ctx.vocab.copy()
    params2 = params.copy()

    unary, binary = memory_examples(ctx.store, ctx.vocab)

    def supervised_recall(p, c) -> float:
        return head_metrics(p, c, unary, binary, "episodic")["unary_top1"]

    def generalization(p, c) -> float:
        scenes = ctx.world.scenes_of_kind("e_test")
        if not scenes:
            return float("nan")
        return perception_unary_eval(
            p, c, vocab2, ctx.world, scenes, "sa", families=_visible_families(ctx)
        )["mean_unary"]

    before = supervised_recall(params, cmap)
    gen_before = generalization(params2, cmap)
    config = ctx.config_with()
    params3, cmap3, report = ssl_step(
        params2, ColumnMap(vocab2), vocab2, ctx.world, unlabeled, config
    )
    after = supervised_recall(params3, cmap3)
    gen_after = generalization(params3, cmap3)

    # SSL trains only entity and instance columns: every other block, and the
    # embedding's label and predicate columns (matched by symbol), must not move
    old_blocks, new_blocks = params.blocks(), params3.blocks()
    old_cols = np.r_[cmap.block["label"], cmap.block["predicate"]]
    new_cols = cmap3.cols_of(cmap.ids[old_cols])
    frozen_ok = all(
        np.array_equal(old_blocks[k][:, old_cols], new_blocks[k][:, new_cols])
        if k == "emb" else np.array_equal(old_blocks[k], new_blocks[k])
        for k in old_blocks
    )
    metrics = {
        "recall_before": before,
        "recall_after": after,
        "drop_points": (before - after) * 100.0,
        "generalization_before": gen_before,
        "generalization_after": gen_after,
        "new_entities": len(report.new_entities),
        "new_instances": len(report.new_instances),
        "frozen_blocks_bitwise": frozen_ok,
    }
    counts = {
        "unlabeled_scenes": len(unlabeled),
        "pseudo_unary": len(report.pseudo_unary),
        "pseudo_binary": len(report.pseudo_binary),
    }
    return metrics, counts


def _experiment_consolidation(ctx: EvalContext) -> tuple[dict, dict]:
    params, cmap = ctx.params, ctx.cmap
    vocab2 = ctx.vocab.copy()
    # the observed instance with the most true statements, the lowest id
    # among ties.  An instance with a true statement is observed, so while
    # the store holds one the argmax over every id finds the target.
    counts = np.bincount(ctx.store.positive_array()[:, 3])
    if counts.size:
        target = int(counts.argmax())
    else:
        candidates = ctx.store.observed_instances()
        if not candidates:
            raise EvalError("no instances to consolidate")
        target = candidates[0]
    params2, cmap2, dup = consolidate(params.copy(), cmap, vocab2, target)

    subjects = sorted({s for s, _p, _o in ctx.store.positives_at(target)})
    requests = [
        DecodeRequest(mode="episodic", instance_id=t, subject_id=s, winner_take_all=True)
        for s in subjects for t in (target, dup)
    ]
    outs = [
        (tuple(sorted(trace.labels.items())), trace.object_id, trace.predicate_id)
        for trace in decode_chunked(params2, cmap2, vocab2, requests, substream(0, "consolidation"))
    ]
    matches = sum(int(a == b) for a, b in zip(outs[::2], outs[1::2]))

    # the duplicate's column is appended last; every column before it and
    # every other block must keep its bits
    old, new = params.blocks(), params2.blocks()
    new["emb"] = new["emb"][:, :params.emb.shape[1]]
    pre_bitwise = all(np.array_equal(old[k], new[k]) for k in old)
    metrics = {
        "match_fraction": matches / len(subjects) if subjects else float("nan"),
        "preexisting_bitwise": pre_bitwise,
        "instance": ctx.vocab.name_of(target),
    }
    return metrics, {"subjects": len(subjects)}


EXPERIMENTS = {
    "episodic-recall": _experiment_episodic_recall,
    "semantic-recall": _experiment_semantic_recall,
    "perception-unary": _experiment_perception_unary,
    "perception-binary": _experiment_perception_binary,
    "hidden-label-enrichment": _experiment_hidden_label,
    "zero-shot-binary": _experiment_zero_shot,
    "social-recall": _experiment_social_recall,
    "ssl-before-after": _experiment_ssl,
    "consolidation-fidelity": _experiment_consolidation,
}


def _fingerprint(ctx: EvalContext, name: str) -> str:
    h = hashlib.sha256()
    h.update(name.encode())
    h.update(ctx.vocab.digest().encode())
    h.update(json.dumps(ctx.world.config.to_dict(), sort_keys=True).encode())
    h.update(str(ctx.seed).encode())
    h.update(params_digest(ctx.params).encode())
    h.update(json.dumps(ctx.train_config.to_dict(), sort_keys=True).encode())
    if ctx.net_config is not None:
        h.update(json.dumps(ctx.net_config.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


# the scene kind an experiment cannot run without, and what the world lacks then
_NEEDS = {
    "ssl-before-after": ("unlabeled", "no unlabeled shard (set unlabeled_fraction > 0)"),
    "social-recall": ("social", "no social instances (set social to true)"),
    "zero-shot-binary": ("zero_shot", "no zero-shot views (set zero_shot_fraction > 0)"),
}


def check_experiments(names: list[str], world: GroundTruthWorld, vocab: Vocabulary) -> None:
    """Refuse a list of experiments before any of them runs: a name not in
    EXPERIMENTS, or one whose scenes the world lacks or, for SSL, `vocab` holds."""
    for name in names:
        if name not in EXPERIMENTS:
            raise EvalError(
                f"unknown experiment {name!r}; valid names: {', '.join(sorted(EXPERIMENTS))}"
            )
        if name in _NEEDS and not world.scenes_of_kind(_NEEDS[name][0]):
            raise EvalError(f"{name}: world has {_NEEDS[name][1]}")
        if name == "ssl-before-after":
            if all(s.name in vocab for s in world.scenes_of_kind("unlabeled")):
                raise EvalError(f"{name}: the vocabulary holds every unlabeled scene's instance")


def run_experiment(name: str, ctx: EvalContext) -> MetricReport:
    check_experiments([name], ctx.world, ctx.vocab)
    started = time.monotonic()
    metrics, counts = EXPERIMENTS[name](ctx)
    return MetricReport(
        experiment=name,
        metrics=metrics,
        counts=counts,
        fingerprint=_fingerprint(ctx, name),
        wall_clock_s=time.monotonic() - started,
    )
