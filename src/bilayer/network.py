"""Core network operations: activations, context recurrence, decoding.

The model has two coupled layers.  The index layer holds one unit per symbol
(entity, class, attribute, predicate, instance); the representation layer is a
dense vector of width rep_dim.  A shared embedding matrix maps both ways: a
firing index adds its column into the representation, and index pre-activations
are inner products of columns with the squashed representation.  A recurrent
context layer carries information across the steps of one decoding pass.

A decoding pass walks the schedule: instance, subject, subject labels,
object, predicate.  `schedule(mode, binary, direct)` states it once, as a
table of frozen `StepSpec`s built at import: per step, the box it encodes,
the readout group it scores, what it commits, whether it folds in the
context and whether the labels are read from it.  Perception encodes a box
at every step.  The memory modes' instance is not scored: episodic recall
commits the clamped column, and semantic recall is episodic recall of the
instance not yet observed, the pooled column.  The predicate step only reads
out.  The direct variant has no context and commits nothing, so each head
reads only its own encoded box.  The step functions (`context_step`,
`context_out`, `encode_input`, `index_scores`) hold each step's math once, on
squashed states, and two walks call them, both reading the table:
`decode_many` here and the teacher-forced `graph.forward`.

`decode_many` walks the table once for a batch of requests that share the
mode, every flag and the arity; they differ only in features and clamps.  It
checks the first request in full, and of every other one only the fields
that may differ.  A scored step scores every row with one matrix product,
once, and every score block a step picks from or mixes over must be finite.
A commitment takes, per row, the clamped index if the request names one,
else the attention mixture the request's flag for the group asks for (over
the instances, or over the entities for a concept), else a pick: the argmax
under winner-take-all, otherwise a draw from the softmax at temperature 1, as
attention mixes.  A step that scores nothing and has no clamp (semantic
recall's instance) commits its block's first column and records no id.  A
mixture is weighted by the block the step scored: the instance mixture by all
of it, the entity mixture by its entity columns.  A concept step picks from
the entities only under `entities` support.  The column layout is the
ColumnMap's: a step scores `cmap.block[group]`, and a position picked from a
block is the column `block.start + pos`, so a picked row's column needs no
check; a clamp must name a symbol of the group its step commits.  The
concept block starts at column 0, so the entity block also indexes the
concept scores.  A step that only reads out records no id when it has no
columns.  Every family's label is read from the one concept-score block by
the ColumnMap's two `label_heads`, drawn by the plan built with them
(`label_plan`).  A pass returns a `DecodeTrace`: its mode, the ids it picked
and the score rows it picked them from.

A sampled pick is an inverse-CDF draw, not `Generator.choice`: one uniform per
row, and the row's pick is the first position whose float64 running sum of
exp(score - max) exceeds the uniform times the row's total.  The uniforms come
in schedule order, rows in order within a step, and the label step takes one
per family and row at once, family-major in name order; so a batch of one
request draws as a single pass always has.

The direct variant takes no clamps, and the attention flags apply only to
perception that is not direct; anywhere else they are refused, as an ignored
clamp is.  `decode_chunked` hands a long request list to `decode_many` in
runs of DECODE_CHUNK, so the score blocks alive at once do not grow with it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from operator import attrgetter
from typing import Callable, Iterator

import numpy as np

from .params import ColumnMap, NetParams
from .vocab import Vocabulary


class NetworkError(ValueError):
    pass


class NumericsError(ArithmeticError):
    """A forward computation produced a non-finite value."""


# -- activations ---------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, overflow-free: with e = exp(-|x|) <= 1 it is
    1 / (1 + e) for x >= 0 and e / (1 + e) below, one division for both; the
    numerator exp(min(x, 0)) is 1 above zero and e below.  `minimum(x, -x)`
    is -|x| that keeps the sign of a NaN input, so NaNs pass through bit for
    bit.  A 0-d input gives a 0-d array.  Both temporaries are worked in
    place; the input is never written."""
    x = np.asarray(x)
    if x.ndim == 0:  # a ufunc gives a 0-d input back as a scalar
        return sigmoid(x.reshape(1)).reshape(())
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    e += 1.0
    out = np.minimum(x, 0)
    np.exp(out, out=out)
    out /= e
    return out


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis in float64; each row comes out exactly as
    a one-row call would give it."""
    scores = np.asarray(scores, dtype=np.float64)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _draw(scores: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from the softmax over the last axis of `scores`: per
    row, the first position whose float64 running sum of exp(score - max)
    exceeds `u` (that row's uniform in [0, 1)) times the row's total; the
    total itself does, so every row has one.  A -inf or underflowed position
    adds nothing to the sum, so it is never drawn.  One float64 buffer holds
    the shifted scores, their exp and the sum."""
    cdf = np.subtract(scores, np.maximum.reduce(scores, axis=-1, keepdims=True), dtype=np.float64)
    np.exp(cdf, out=cdf)
    cdf.cumsum(axis=-1, out=cdf)
    return (cdf > u[..., None] * cdf[..., -1:]).argmax(axis=-1)


def _pick(scores: np.ndarray, winner_take_all: bool, rng: np.random.Generator) -> np.ndarray:
    """One position per row of `scores`: the argmax (ties low, no draw) under
    winner-take-all, else an inverse-CDF draw from the row's softmax on one
    uniform per row, rows in order."""
    if scores.shape[-1] == 0:
        raise NetworkError("no index units to pick from")
    if winner_take_all:
        return scores.argmax(axis=-1)
    return _draw(scores, rng.random(scores.shape[:-1]))


# -- context layer and scoring ---------------------------------------------------
#
# The step functions return what the graph's reverse pass reads.  Each takes
# one vector or a batch of them, one per row.


def initial_context(params: NetParams) -> np.ndarray:
    """The squashed context a pass starts from: the context is zero, so
    every unit reads sigmoid(0) = 0.5 exactly."""
    return np.full(params.config.ctx_dim, 0.5, dtype=params.emb.dtype)


def context_step(params: NetParams, sh: np.ndarray,
                 z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One recurrence: fold the squashed representation `z` into the
    squashed context `sh`.  Returns the squashed mix `zm` and the next
    squashed context."""
    zm = sigmoid(sh + z @ params.ctx_in.T)
    return zm, sigmoid(zm @ params.ctx_rec.T)


def context_out(params: NetParams, sh: np.ndarray) -> np.ndarray:
    """What the squashed context `sh` feeds into the representation."""
    return sh @ params.ctx_out.T


def encode_input(params: NetParams, feat: np.ndarray) -> np.ndarray:
    feat = np.asarray(feat, dtype=params.emb.dtype)
    if feat.ndim not in (1, 2) or feat.shape[-1] != params.config.feature_dim:
        raise NetworkError(
            f"feature vector has shape {feat.shape}, expected ({params.config.feature_dim},)"
        )
    return feat @ params.enc_w.T + params.enc_b


def index_scores(params: NetParams, z: np.ndarray, idx) -> np.ndarray:
    """Pre-activations of the index units `emb[:, idx]` given a squashed
    representation `z`; `idx` is a block of the ColumnMap or any column
    array."""
    return z @ params.emb[:, idx]


def attention_update(params: NetParams, rep: np.ndarray, scores: np.ndarray, idx) -> np.ndarray:
    """Add to `rep` the mixture of the columns `emb[:, idx]` weighted by the
    softmax of `scores`, their scores at the squashed `rep`
    (`index_scores(params, sigmoid(rep), idx)`), instead of a single picked
    column."""
    weights = _softmax_rows(_check_finite(scores, "attention scores")).astype(rep.dtype)
    return rep + weights @ params.emb[:, idx].T


# -- decoding --------------------------------------------------------------------


MODES = ("perception", "episodic", "semantic")
SUPPORTS = ("concepts", "entities")


@dataclass(frozen=True)
class StepSpec:
    name: str
    head: str           # its head in training and the metrics: NT, NS, NO or NP
    box: str | None     # the SceneInput box encoded into its input
    group: str | None   # the readout group it scores: instance, concept or predicate
    commit: str | None  # the block whose column it adds, or None: read out only
    context: bool       # it first folds the previous committed state into the context
    labels: bool        # the label heads read its committed state


_PERCEPTION = (
    StepSpec("instance", "NT", "scene", "instance", "instance", False, False),
    StepSpec("subject", "NS", "subject_box", "concept", "concept", True, True),
    StepSpec("object", "NO", "object_box", "concept", "concept", True, False),
    StepSpec("predicate", "NP", "predicate_box", "predicate", None, True, False),
)


def _steps(mode: str, binary: bool, direct: bool) -> tuple[StepSpec, ...]:
    """Perception's steps, cut after the subject in a unary pass, changed as
    the module docstring says for the memory modes and the direct variant."""
    specs = _PERCEPTION[:4 if binary else 2]
    if direct:
        specs = [replace(s, commit=None, context=False) for s in specs]
    if mode != "perception":
        first = replace(specs[0], group=None, commit="pooled" if mode == "semantic" else "instance")
        specs = [replace(s, box=None) for s in (first, *specs[1:])]
    return tuple(specs)


_SCHEDULES = {(mode, binary, direct): _steps(mode, binary, direct)
              for mode in MODES for binary in (False, True)
              for direct in ((False, True) if mode == "perception" else (False,))}


def schedule(mode: str, binary: bool, direct: bool) -> tuple[StepSpec, ...]:
    """The steps of a pass, in order; the direct variant is perception's."""
    return _SCHEDULES[mode, binary, direct]


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
    instance_id: int | None = None   # clamp: required for episodic, optional in perception
    subject_id: int | None = None    # optional clamp
    object_id: int | None = None     # optional clamp on a binary pass
    winner_take_all: bool = False
    instance_attention: bool = False  # perception: soft instance commitment
    concept_attention: bool = False   # perception: soft subject/object commitment
    direct: bool = False              # perception: heads read only encoded boxes
    subject_support: str = "concepts"  # or "entities"
    object_support: str = "concepts"   # or "entities"


# what every request of one decode_many batch has in common: all but these
_PER_REQUEST = ("features", "instance_id", "subject_id", "object_id")
_SHARED = [f.name for f in fields(DecodeRequest) if f.name not in _PER_REQUEST]
_shared_of = attrgetter(*_SHARED)


@dataclass
class DecodeTrace:
    """What one pass picked, per step (None where it picked nothing), and
    the score rows it picked from, keyed by step and `label`."""

    mode: str
    instance_id: int | None
    subject_id: int | None
    labels: dict[str, int]
    object_id: int | None
    predicate_id: int | None
    scores: dict[str, np.ndarray] = field(default_factory=dict)


# the steps whose ids a trace records, in the order of its `_id` fields
_TRACE_STEPS = [f.name[:-3] for f in fields(DecodeTrace) if f.name.endswith("_id")]


def _check_finite(arr: np.ndarray, *name: str) -> np.ndarray:
    """`arr`, refused if not all finite; `name`'s parts are joined only to raise."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values in {' '.join(name)}")
    return arr


def _binary(request: DecodeRequest) -> bool:
    return request.features is None or request.features.object_box is not None


def _check_request(request: DecodeRequest, shared: bool = True) -> None:
    """Refuse a request that is no valid pass.  With `shared` false the
    checks that read only the shared fields are left out: a batch makes them
    once, on its first request, and runs the rest on every other request whose
    shared fields equal the first's."""
    mode, feats = request.mode, request.features
    if shared and mode not in MODES:
        raise NetworkError(f"unknown mode {mode!r}")
    perceiving = mode == "perception"
    if perceiving and feats is None:
        raise NetworkError("perception requires feature inputs")
    if perceiving and (feats.object_box is None) != (feats.predicate_box is None):
        raise NetworkError("object and predicate boxes come together or not at all")
    if not perceiving and feats is not None:
        raise NetworkError(f"{mode} mode forbids feature inputs")
    if mode == "episodic" and request.instance_id is None:
        raise NetworkError("episodic mode requires an instance id")
    if mode == "semantic" and request.instance_id is not None:
        raise NetworkError("semantic mode takes no instance clamp")
    if shared and request.direct and not perceiving:
        raise NetworkError("direct decoding only applies to perception")
    clamps = (request.instance_id, request.subject_id, request.object_id)
    if request.direct and any(c is not None for c in clamps):
        raise NetworkError("direct decoding takes no clamps")
    if shared:
        for flag in ("instance_attention", "concept_attention"):
            if getattr(request, flag) and (request.direct or not perceiving):
                raise NetworkError(f"{flag} only applies to perception that is not direct")
    if request.object_id is not None and not _binary(request):
        raise NetworkError("an object clamp needs object and predicate boxes")
    if shared:
        for step in ("subject", "object"):
            support = getattr(request, f"{step}_support")
            if support not in SUPPORTS:
                raise NetworkError(f"unknown {step} support {support!r}; choose from {SUPPORTS}")


def _check_batch(requests: list[DecodeRequest]) -> None:
    """Check the first request in full and compare every other one's shared
    fields with it as one tuple.  A request that differs is checked in full
    before it is refused for differing, so each request is refused for the
    same fault as when it is checked on its own."""
    first = requests[0]
    _check_request(first)
    key, arity = _shared_of(first), _binary(first)
    for request in requests[1:]:
        same = _shared_of(request) == key
        _check_request(request, shared=not same)
        if not same or _binary(request) != arity:
            raise NetworkError("batched requests must share the mode, every flag and the arity")


def _encode(params: NetParams, requests: list[DecodeRequest], box: str) -> np.ndarray:
    return encode_input(params, np.stack([getattr(r.features, box) for r in requests]))


def _scores(params: NetParams, step: str, z: np.ndarray, idx) -> np.ndarray:
    return _check_finite(index_scores(params, z, idx), step, "scores")


# per step its clamp and its support
_CLAMP_OF = {f.name[:-3]: attrgetter(f.name) for f in fields(DecodeRequest)
             if f.name.endswith("_id")}
_SUPPORT_OF = {f.name[:-8]: attrgetter(f.name) for f in fields(DecodeRequest)
               if f.name.endswith("_support")}
_CLAMP_KINDS = {"instance": "an instance", "concept": "an entity, class or attribute"}


def _step_cols(cmap: ColumnMap, vocab: Vocabulary, spec: StepSpec, ids: list) -> np.ndarray:
    """The columns of the clamped ids a step commits, each of which must lie
    in the block of the group `spec.commit`.  The bounds are compared in
    Python: a call mostly checks one clamp, where that is the cheapest."""
    cols = cmap.cols_of(ids)
    span = cmap.block[spec.commit]
    for sid, col in zip(ids, cols.tolist()):
        if not span.start <= col < span.stop:
            raise NetworkError(f"the {spec.name} clamp {vocab.name_of(sid)!r} "
                               f"({vocab.kind_of(sid).value}) is not {_CLAMP_KINDS[spec.commit]}")
    return cols


def _commit(params, cmap, vocab, spec, rep, clamps, scores, span, pick, mix=None):
    """One commitment of a step for every row of `rep` (None when the step
    has no input but its clamps).  A clamped row adds its symbol's column,
    checked by `_step_cols`.  Each other row adds the column picked from
    `scores`, the scores of the block `span`, or, with `mix` a pair
    (score block, block of columns), the attention mixture over
    `emb[:, block]` weighted by that score block, which commits no id; with
    no scores, the first column of the block `spec.commit`, with no id.
    Returns the new representations and the per-row ids."""
    ids = list(clamps)
    free = [i for i, c in enumerate(ids) if c is None]
    fixed = [i for i, c in enumerate(ids) if c is not None]
    at = np.full(len(ids), cmap.block[spec.commit].start)  # per row, the column it adds
    if mix is None and free and scores is not None:
        at[free] = picked = span.start + pick(scores if len(free) == len(ids) else scores[free])
        for i, sid in zip(free, cmap.ids[picked].tolist()):
            ids[i] = sid
    if fixed:
        at[fixed] = _step_cols(cmap, vocab, spec, [ids[i] for i in fixed])
    if mix is None:
        added = params.emb.T[at]
        return (added if rep is None else rep + added), ids
    out = attention_update(params, rep, *mix)
    if fixed:
        out[fixed] = rep[fixed] + params.emb.T[at[fixed]]
    return out, ids


def _pick_labels(cmap: ColumnMap, label_scores: np.ndarray, winner_take_all: bool,
                 rng: np.random.Generator) -> list[dict[str, int]]:
    """Per row, one label per nonempty family, all read from the one
    concept-score block by the map's `label_heads`: each family picks from
    its head's block, with the scores its head's mask holds outside the
    family set to -inf, the layout of training's label heads.
    Winner-take-all takes each masked row's argmax (ties low, no draw).
    Sampling draws every family's uniforms at once, one per (family, row),
    family-major in name order, and each goes through the inverse-CDF draw
    `_pick` uses.  The map's `label_plan` holds all that does not depend on
    the scores."""
    names, heads = cmap.label_plan
    n = label_scores.shape[0]
    u = None if winner_take_all else rng.random((len(names), n))
    won = np.empty((len(names), n), dtype=np.int64)
    for m, span, outside in heads:
        block = (label_scores[None, :, span] if outside is None
                 else np.where(outside, -np.inf, label_scores[:, span]))
        pos = block.argmax(axis=-1) if u is None else _draw(block, u[m])
        won[m] = cmap.ids[span][pos]
    return [dict(zip(names, row)) for row in won.T.tolist()]


def _split(first: DecodeRequest, ids: dict, labels: list, scores: dict) -> list[DecodeTrace]:
    """One trace per row; its ids and scores are rows of the batch's, each
    block iterated once.  A step with no ids (absent, or read out of no
    columns) records None."""
    none = [None] * len(labels)
    id_rows = zip(*[ids.get(step, none) for step in _TRACE_STEPS])
    # positional, in DecodeTrace's field order: keywords cost more per trace.
    # Every pass scores its subject, so no row is lost to an empty zip
    return [
        DecodeTrace(first.mode, t, s, row_labels, o, p, dict(zip(scores, row_scores)))
        for row_labels, (t, s, o, p), row_scores in zip(labels, id_rows, zip(*scores.values()))
    ]


def decode(params: NetParams, cmap: ColumnMap, vocab: Vocabulary, request: DecodeRequest,
           rng: np.random.Generator) -> DecodeTrace:
    """One pass through the schedule."""
    return decode_many(params, cmap, vocab, [request], rng)[0]


def decode_many(params: NetParams, cmap: ColumnMap, vocab: Vocabulary,
                requests: list[DecodeRequest], rng: np.random.Generator) -> list[DecodeTrace]:
    """One batched pass through the schedule; one trace per request, in order."""
    requests = list(requests)
    if not requests:
        return []
    _check_batch(requests)
    first = requests[0]

    def pick(scores: np.ndarray) -> np.ndarray:
        return _pick(scores, first.winner_take_all, rng)

    # per group, the block of columns an attention mix runs over
    mixes = {"instance": cmap.block["instance"] if first.instance_attention else None,
             "concept": cmap.block["entity"] if first.concept_attention else None}
    ids: dict[str, list] = {}
    scores: dict[str, np.ndarray] = {}
    sh, z = initial_context(params), None
    for spec in schedule(first.mode, _binary(first), first.direct):
        step, rep, block, span, mix = spec.name, None, None, None, None
        if spec.context:
            _, sh = context_step(params, sh, z)
            rep = context_out(params, sh)
        if spec.box:
            enc = _encode(params, requests, spec.box)
            rep = enc if rep is None else rep + enc
        if spec.group:
            z = sigmoid(rep)
            span = cmap.block[spec.group]
            scores[step] = block = _scores(params, step, z, span)
            mix = mixes.get(spec.group)
            if mix is not None:  # a mix weights the block just scored, or its entity prefix
                mix = (block if mix is span else block[:, mix]), mix
            if spec.group == "concept" and _SUPPORT_OF[step](first) == "entities":
                span = cmap.block["entity"]
                block = block[:, span]
        if spec.commit:
            clamps = list(map(_CLAMP_OF[step], requests))
            rep, ids[step] = _commit(params, cmap, vocab, spec, rep, clamps, block, span, pick, mix)
            z = sigmoid(rep)
        elif block.shape[1]:  # read out, no commitment
            ids[step] = cmap.ids[span][pick(block)].tolist()
        if spec.labels:  # one label per family, from one concept-score block
            scores["label"] = _scores(params, "label", z, cmap.block["concept"])
            labels = _pick_labels(cmap, scores["label"], first.winner_take_all, rng)
    return _split(first, ids, labels, scores)


DECODE_CHUNK = 64  # requests per decode_many call in decode_chunked


def decode_chunked(params: NetParams, cmap: ColumnMap, vocab: Vocabulary, requests: list,
                   rng: np.random.Generator) -> Iterator[DecodeTrace]:
    """`decode_many` over runs of DECODE_CHUNK requests, traces yielded in order, so one
    run's score blocks are alive at a time.  Sampled picks draw run by run."""
    for start in range(0, len(requests), DECODE_CHUNK):
        yield from decode_many(params, cmap, vocab, requests[start:start + DECODE_CHUNK], rng)


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
