"""Core network operations: activations, context recurrence, decoding.

The model has two coupled layers.  The index layer holds one unit per symbol
(entity, class, attribute, predicate, instance); the representation layer is a
dense vector of width rep_dim.  A shared embedding matrix maps both ways: a
firing index adds its column into the representation, and index pre-activations
are inner products of columns with the squashed representation.  A recurrent
context layer carries information across the steps of one decoding pass.

A decoding pass walks a fixed schedule: instance, subject, subject labels,
object, predicate.  Perception feeds encoded feature vectors into each step;
episodic recall clamps the instance index; semantic recall replaces the
instance embedding with the trained pooled vector and usually clamps the
subject.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .params import ColumnMap, NetParams
from .vocab import IDENTITY_FAMILY, Vocabulary


class NetworkError(ValueError):
    pass


class NumericsError(ArithmeticError):
    """A forward computation produced a non-finite value."""


# -- activations ---------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-free: with e = exp(-|x|) <= 1 it is
    1 / (1 + e) for x >= 0 and e / (1 + e) below.  `minimum(x, -x)` is -|x|
    that keeps the sign of a NaN input, so NaNs pass through bit for bit."""
    x = np.asarray(x)
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax(scores: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Tempered softmax. beta=0 is uniform; beta=inf is a one-hot argmax with
    ties broken toward the lowest index."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise NetworkError("softmax expects a nonempty vector")
    if beta < 0:
        raise NetworkError("beta must be nonnegative")
    if math.isinf(beta):
        out = np.zeros_like(scores)
        out[int(np.argmax(scores))] = 1.0
        return out
    z = beta * (scores - scores.max())
    e = np.exp(z)
    return e / e.sum()


def sample_index(scores: np.ndarray, beta: float, rng: np.random.Generator) -> int:
    """Draw a position from the tempered softmax over scores."""
    probs = softmax(scores, beta)
    if math.isinf(beta):
        return int(np.argmax(probs))
    return int(rng.choice(scores.shape[0], p=probs))


# -- context layer -------------------------------------------------------------


def context_step(params: NetParams, ctx: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """One recurrence: fold the squashed representation into the context."""
    m = sigmoid(ctx) + params.ctx_in @ sigmoid(rep)
    return params.ctx_rec @ sigmoid(m)


def context_out(params: NetParams, ctx: np.ndarray) -> np.ndarray:
    return params.ctx_out @ sigmoid(ctx)


def context_map(params: NetParams, rep: np.ndarray) -> np.ndarray:
    """The pure three-layer representation-to-representation map (no carried
    context): readout(ctx_rec . sig(ctx_in . sig(rep)))."""
    return params.ctx_out @ sigmoid(params.ctx_rec @ sigmoid(params.ctx_in @ sigmoid(rep)))


def encode_input(params: NetParams, feat: np.ndarray) -> np.ndarray:
    feat = np.asarray(feat, dtype=params.emb.dtype)
    if feat.shape != (params.config.feature_dim,):
        raise NetworkError(
            f"feature vector has shape {feat.shape}, expected ({params.config.feature_dim},)"
        )
    return params.enc_w @ feat + params.enc_b


def index_scores(params: NetParams, rep: np.ndarray, idx) -> np.ndarray:
    """Pre-activations of the index units `read[:, idx]` given a representation;
    `idx` is a readout index of the ColumnMap or any column array."""
    return params.readout[:, idx].T @ sigmoid(rep)


# -- attention approximations ---------------------------------------------------


def attention_update(params: NetParams, rep: np.ndarray, idx, beta: float = 1.0) -> np.ndarray:
    """Add the attention-weighted mixture of the columns `emb[:, idx]` instead
    of a single sampled column.  At beta=inf this equals the winner-take-all
    committed update."""
    weights = softmax(index_scores(params, rep, idx), beta)
    return rep + params.emb[:, idx] @ weights.astype(rep.dtype)


def concept_attention(params: NetParams, cmap: ColumnMap, rep: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Soft subject/object commitment over entity columns."""
    return attention_update(params, rep, cmap.entity_idx, beta)


def instance_attention(params: NetParams, cmap: ColumnMap, rep: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Soft episodic-instance commitment over instance columns.  With no scene
    evidence this tends toward the mean instance column, the same role the
    trained pooled vector plays."""
    return attention_update(params, rep, cmap.instance_idx, beta)


# -- boolean heads ---------------------------------------------------------------


def unary_truth(params: NetParams, cmap: ColumnMap, rep_subject: np.ndarray, label_id: int) -> float:
    """P(label holds | committed subject representation)."""
    col = cmap.col_of(label_id)
    return float(sigmoid(params.readout[:, col] @ sigmoid(rep_subject)))


def binary_truth(params: NetParams, cmap: ColumnMap, rep_predicate: np.ndarray, predicate_id: int) -> float:
    col = cmap.col_of(predicate_id)
    return float(sigmoid(params.readout[:, col] @ sigmoid(rep_predicate)))


# -- decoding --------------------------------------------------------------------


MODES = ("perception", "episodic", "semantic")


@dataclass
class SceneInput:
    """Feature inputs for one perception pass.  Leaving the object and
    predicate boxes out makes it a unary pass: decoding stops after the
    subject's labels."""

    scene: np.ndarray
    subject_box: np.ndarray
    object_box: np.ndarray | None = None
    predicate_box: np.ndarray | None = None


@dataclass
class DecodeRequest:
    mode: str
    features: SceneInput | None = None
    instance_id: int | None = None   # required for episodic
    subject_id: int | None = None    # optional clamp, semantic mode
    beta: float = 1.0
    winner_take_all: bool = False
    instance_attention: bool = False  # perception: soft instance commitment
    concept_attention: bool = False   # perception: soft subject/object commitment
    attention_beta: float | None = None  # temperature for the soft commitments only
    direct: bool = False              # perception: heads read only encoded boxes
    subject_support: str = "concepts"  # or "entities"
    object_support: str = "concepts"   # or "entities"
    init_ctx: np.ndarray | None = None


@dataclass
class DecodeTrace:
    mode: str
    direct: bool
    instance_id: int | None
    subject_id: int | None
    labels: dict[str, int]
    object_id: int | None
    predicate_id: int | None
    scores: dict[str, np.ndarray] = field(default_factory=dict)
    reps: dict[str, np.ndarray] = field(default_factory=dict)
    ctx_history: list[np.ndarray] = field(default_factory=list)

    def triples(self, vocab: Vocabulary) -> list[tuple[int, int, int]]:
        """Statements mirrored by the firing pattern of this pass."""
        out = []
        ha = vocab.has_attribute
        if self.subject_id is not None:
            for fam, label in self.labels.items():
                if fam == IDENTITY_FAMILY:
                    continue
                out.append((self.subject_id, ha, label))
            if self.object_id is not None and self.predicate_id is not None:
                out.append((self.subject_id, self.predicate_id, self.object_id))
        return out


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"non-finite values in {name}")
    return arr


def _commit_concept(params, cmap, rep, support: str, concept_scores, pick) -> int:
    """Column committed at a subject/object step: picked over the entity
    columns, or over all concepts, whose scores the caller already has."""
    if support == "entities":
        return int(cmap.entity_cols[pick(index_scores(params, rep, cmap.entity_idx))])
    return int(cmap.concept_cols[pick(concept_scores)])


def _pick_labels(params, cmap, rep, pick) -> dict[str, int]:
    """One label per nonempty family, picked from that family's scores."""
    return {
        fam: cmap.id_of_col(cols[pick(index_scores(params, rep, cmap.family_idx[fam]))])
        for fam, cols in sorted(cmap.family_cols.items())
        if cols.size
    }


def decode(
    params: NetParams,
    cmap: ColumnMap,
    vocab: Vocabulary,
    request: DecodeRequest,
    rng: np.random.Generator,
) -> DecodeTrace:
    if request.mode not in MODES:
        raise NetworkError(f"unknown mode {request.mode!r}")
    perceiving = request.mode == "perception"
    if perceiving and request.features is None:
        raise NetworkError("perception requires feature inputs")
    if perceiving and (request.features.object_box is None) != (
        request.features.predicate_box is None
    ):
        raise NetworkError("object and predicate boxes come together or not at all")
    if not perceiving and request.features is not None:
        raise NetworkError(f"{request.mode} mode forbids feature inputs")
    if request.mode == "episodic" and request.instance_id is None:
        raise NetworkError("episodic mode requires an instance id")
    if request.direct and not perceiving:
        raise NetworkError("direct decoding only applies to perception")

    beta = math.inf if request.winner_take_all else request.beta
    soft_beta = request.attention_beta if request.attention_beta is not None else beta
    dt = params.emb.dtype
    trace = DecodeTrace(
        mode=request.mode,
        direct=request.direct,
        instance_id=None,
        subject_id=None,
        labels={},
        object_id=None,
        predicate_id=None,
    )

    def pick(scores: np.ndarray) -> int:
        return sample_index(scores, beta, rng)

    if request.direct:
        return _decode_direct(params, cmap, request, trace, pick)

    ctx = (
        np.zeros(params.config.ctx_dim, dtype=dt)
        if request.init_ctx is None
        else np.asarray(request.init_ctx, dtype=dt)
    )

    # instance step
    if perceiving:
        rep_t_tilde = encode_input(params, request.features.scene)
        inst_scores = _check_finite(
            "instance scores", index_scores(params, rep_t_tilde, cmap.instance_idx)
        )
        trace.scores["instance"] = inst_scores
        if request.instance_attention:
            rep_t = attention_update(params, rep_t_tilde, cmap.instance_idx, soft_beta)
        else:
            pos = pick(inst_scores)
            trace.instance_id = cmap.id_of_col(cmap.instance_cols[pos])
            rep_t = rep_t_tilde + params.emb[:, cmap.instance_cols[pos]]
    elif request.mode == "episodic":
        trace.instance_id = request.instance_id
        rep_t = params.emb[:, cmap.col_of(request.instance_id)].copy()
    else:  # semantic: only the pooled stand-in embedding, never a real column
        rep_t = params.pooled.copy()
    trace.reps["instance"] = rep_t
    trace.scores["instance_label"] = index_scores(params, rep_t, cmap.concept_idx)

    ctx = context_step(params, ctx, rep_t)
    trace.ctx_history.append(ctx)

    # subject step
    rep_s_tilde = context_out(params, ctx)
    if perceiving:
        rep_s_tilde = rep_s_tilde + encode_input(params, request.features.subject_box)
    subj_scores = _check_finite(
        "subject scores", index_scores(params, rep_s_tilde, cmap.concept_idx)
    )
    trace.scores["subject"] = subj_scores
    if request.subject_id is not None:
        trace.subject_id = request.subject_id
        rep_s = rep_s_tilde + params.emb[:, cmap.col_of(request.subject_id)]
    elif perceiving and request.concept_attention:
        rep_s = concept_attention(params, cmap, rep_s_tilde, soft_beta)
    else:
        col = _commit_concept(
            params, cmap, rep_s_tilde, request.subject_support, subj_scores, pick
        )
        trace.subject_id = cmap.id_of_col(col)
        rep_s = rep_s_tilde + params.emb[:, col]
    trace.reps["subject"] = rep_s

    # subject labels, one per family
    trace.scores["label"] = index_scores(params, rep_s, cmap.concept_idx)
    trace.labels = _pick_labels(params, cmap, rep_s, pick)

    if perceiving and request.features.object_box is None:
        return trace  # unary pass: no relation boxes to decode

    ctx = context_step(params, ctx, rep_s)
    trace.ctx_history.append(ctx)

    # object step
    rep_o_tilde = context_out(params, ctx)
    if perceiving:
        rep_o_tilde = rep_o_tilde + encode_input(params, request.features.object_box)
    obj_scores = _check_finite(
        "object scores", index_scores(params, rep_o_tilde, cmap.concept_idx)
    )
    trace.scores["object"] = obj_scores
    if perceiving and request.concept_attention:
        rep_o = concept_attention(params, cmap, rep_o_tilde, soft_beta)
    else:
        col = _commit_concept(params, cmap, rep_o_tilde, request.object_support, obj_scores, pick)
        trace.object_id = cmap.id_of_col(col)
        rep_o = rep_o_tilde + params.emb[:, col]
    trace.reps["object"] = rep_o

    ctx = context_step(params, ctx, rep_o)
    trace.ctx_history.append(ctx)

    # predicate step: read out, no commitment
    rep_p = context_out(params, ctx)
    if perceiving:
        rep_p = rep_p + encode_input(params, request.features.predicate_box)
    pred_scores = _check_finite(
        "predicate scores", index_scores(params, rep_p, cmap.predicate_idx)
    )
    trace.scores["predicate"] = pred_scores
    if cmap.predicate_cols.size:
        pos = pick(pred_scores)
        trace.predicate_id = cmap.id_of_col(cmap.predicate_cols[pos])
    trace.reps["predicate"] = rep_p
    trace.ctx_history.append(ctx)
    return trace


def _decode_direct(params, cmap, request, trace, pick) -> DecodeTrace:
    """Feature-only readouts: no index feedback, no context propagation."""
    feats = request.features
    rep_t = encode_input(params, feats.scene)
    rep_s = encode_input(params, feats.subject_box)
    trace.reps = {"instance": rep_t, "subject": rep_s}
    inst_scores = index_scores(params, rep_t, cmap.instance_idx)
    trace.scores["instance"] = inst_scores
    if inst_scores.size:
        trace.instance_id = cmap.id_of_col(cmap.instance_cols[pick(inst_scores)])
    subj_scores = index_scores(params, rep_s, cmap.concept_idx)
    trace.scores["subject"] = subj_scores
    trace.subject_id = cmap.id_of_col(
        _commit_concept(params, cmap, rep_s, request.subject_support, subj_scores, pick)
    )
    # labels read the same representation, so their concept scores are the subject's
    trace.scores["label"] = subj_scores
    trace.labels = _pick_labels(params, cmap, rep_s, pick)
    if feats.object_box is None:
        return trace
    rep_o = encode_input(params, feats.object_box)
    rep_p = encode_input(params, feats.predicate_box)
    trace.reps.update(object=rep_o, predicate=rep_p)
    obj_scores = index_scores(params, rep_o, cmap.concept_idx)
    trace.scores["object"] = obj_scores
    trace.object_id = cmap.id_of_col(
        _commit_concept(params, cmap, rep_o, request.object_support, obj_scores, pick)
    )
    pred_scores = index_scores(params, rep_p, cmap.predicate_idx)
    trace.scores["predicate"] = pred_scores
    if pred_scores.size:
        trace.predicate_id = cmap.id_of_col(cmap.predicate_cols[pick(pred_scores)])
    return trace


# -- embedded label chaining -----------------------------------------------------


def chain_labels(
    params: NetParams,
    cmap: ColumnMap,
    rep: np.ndarray,
    rng: np.random.Generator,
    steps: int,
    beta: float = 1.0,
    winner_take_all: bool = False,
    exclude: set[int] | None = None,
) -> list[int]:
    """Symbolic chaining inside the representation: repeatedly sample a label,
    fold its column back in, and continue.  The carried context is left
    untouched.  Already-fired labels are excluded so the chain moves on."""
    if steps < 1:
        raise NetworkError("chain needs at least one step")
    if cmap.label_cols.size == 0:
        raise NetworkError("no class/attribute columns to chain over")
    fired: set[int] = set(exclude or ())
    rep = rep.astype(params.emb.dtype, copy=True)
    b = math.inf if winner_take_all else beta
    emitted: list[int] = []
    for _ in range(steps):
        cols = np.array(
            [c for c in cmap.label_cols if cmap.id_of_col(c) not in fired], dtype=np.int64
        )
        if cols.size == 0:
            break
        pos = sample_index(index_scores(params, rep, cols), b, rng)
        label = cmap.id_of_col(cols[pos])
        emitted.append(label)
        fired.add(label)
        rep = rep + params.emb[:, cols[pos]]
    return emitted


# -- post-observation fusion -----------------------------------------------------


def fused_stream(
    semantic_draw: Callable[[np.random.Generator], dict],
    episodic_draw: Callable[[np.random.Generator], dict],
    gamma: float,
    n_obs: float,
    rng: np.random.Generator,
    n: int,
) -> Iterator[dict]:
    """Sample from the fused post-observation model: each draw comes from the
    background (semantic) decoder with probability gamma/(gamma+n_obs), else
    from the instance (episodic) decoder.  Draws are tagged with their source.
    """
    if gamma < 0 or n_obs < 0:
        raise NetworkError("gamma and n_obs must be nonnegative")
    if gamma == 0 and n_obs == 0:
        raise NetworkError("gamma and n_obs cannot both be zero")
    p_semantic = gamma / (gamma + n_obs)
    for _ in range(n):
        if rng.random() < p_semantic:
            yield {"source": "semantic", **semantic_draw(rng)}
        else:
            yield {"source": "episodic", **episodic_draw(rng)}
