"""Teacher-forced pass through the decoding schedule, with exact gradients.

Training walks the steps `network.schedule` lists for the decoder, with the
same step functions (`context_step`, `context_out`, `encode_input`,
`index_scores`), but commits ground-truth (or deliberately substituted)
columns instead of picked ones.  Each batch element is one statement; heads
active per mode and arity:

    episodic   unary   subject CE + label CE
    episodic   binary  subject CE + object CE + predicate CE
    semantic   unary   label CE                       (subject given, pooled instance)
    semantic   binary  object CE + predicate CE
    perception unary   instance CE + subject CE + label CE
    perception binary  instance CE + subject CE + object CE + predicate CE

A unary batch lists its label targets as occurrences, each a (row, family
code, target column) entry of three arrays; a row may occur in several
families.  An occurrence's label CE is a softmax over its family's columns.
The two heads of `ColumnMap.label_heads` serve every family: each scores
its occurrences over its block with one gemm and masks them to their
family's columns where it has a mask.  Which family a head serves, and
every block a step reads, is the ColumnMap's; this module reads it there.
Loss and accuracy are still reported per family.

`forward` walks `network.schedule` itself, one loop over its steps, as
`decode_many` does: a step reads its feature box and its columns from the
batch, its head's block from the ColumnMap, and leaves its state in
`cache["states"]` under its name.  `backward` is derived by hand and walks
the same table in reverse, reading those states; tests check it against
64-bit central finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    MODES,
    POOLED,
    NumericsError,
    StepSpec,
    context_out,
    context_step,
    encode_input,
    index_scores,
    initial_context,
    schedule,
    sigmoid,
)
from .params import ColumnMap, NetParams

ARITIES = ("unary", "binary")


class GraphError(ValueError):
    pass


@dataclass
class Batch:
    """One homogeneous group of teacher-forced examples (same mode and arity).

    All index fields hold embedding column positions; targets are resolved to
    positions inside the relevant readout support during the forward pass.
    A unary batch lists its label targets as occurrences, one entry each in
    `label_rows` (the batch row), `label_fams` (the family's code, its index
    in `ColumnMap.families`) and `label_target_cols`; a row may occur in
    several families.
    """

    mode: str
    arity: str
    inst_cols: np.ndarray | None = None      # (B,) perception/episodic
    subj_inject_cols: np.ndarray | None = None  # (B,)
    label_rows: np.ndarray | None = None     # (n,) unary: one per label occurrence
    label_fams: np.ndarray | None = None
    label_target_cols: np.ndarray | None = None
    obj_inject_cols: np.ndarray | None = None
    pred_cols: np.ndarray | None = None
    feat_scene: np.ndarray | None = None     # (B, feature_dim)
    feat_subj: np.ndarray | None = None
    feat_obj: np.ndarray | None = None
    feat_pred: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise GraphError(f"unknown mode {self.mode!r}")
        if self.arity not in ARITIES:
            raise GraphError(f"unknown arity {self.arity!r}")
        specs = schedule(self.mode, self.arity == "binary", False)
        if any(spec.box and getattr(self, _FIELDS[spec.head][0]) is None for spec in specs):
            raise GraphError("perception batches need feature inputs")
        for spec in specs:
            key = _FIELDS[spec.head][1]
            if (_trains(self.mode, spec) or _commits_col(spec)) and getattr(self, key) is None:
                raise GraphError(f"{self.mode} {self.arity} batches need {key}")
        if self.arity == "unary" and self.label_fams is None:
            raise GraphError("unary batches need label occurrences")

    def __len__(self) -> int:
        if self.subj_inject_cols is not None:
            return int(self.subj_inject_cols.shape[0])
        return int(self.inst_cols.shape[0])


def _ce_head(scores: np.ndarray, target_pos: np.ndarray, inv_b: float) -> dict:
    """Row-wise softmax cross-entropy: probs, per-row negative log-likelihood
    and hit, summed loss and accuracy.  `_ce_grad` turns probs into the
    gradient later, in place.  The clamp is the dtype's smallest normal: a
    Python 1e-300 would round to 0 in float32 and clamp nothing."""
    probs = scores - scores.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(scores.shape[0])
    nll = -np.log(np.maximum(probs[rows, target_pos], np.finfo(probs.dtype).tiny))
    hits = scores.argmax(axis=1) == target_pos
    return {
        "scores": scores,
        "probs": probs,
        "targets": target_pos,
        "inv_b": inv_b,
        "nll": nll,
        "hits": hits,
        "loss": float(nll.sum() * inv_b),
        "accuracy": np.count_nonzero(hits) / hits.size,
    }


def _ce_grad(h: dict) -> np.ndarray:
    """dscores of a CE head, (probs - onehot(target)) / B.  Built once, in
    place on the head's probs, which it then replaces."""
    if "dscores" not in h:
        d = h.pop("probs")
        d[np.arange(d.shape[0]), h["targets"]] -= 1.0
        d *= h["inv_b"]
        h["dscores"] = d
    return h["dscores"]


def _label_heads(
    zs: np.ndarray, read: np.ndarray, cmap: ColumnMap, batch: Batch, inv_b: float
) -> dict:
    """The label heads of a unary batch at the subject state `zs`.

    The occurrences are taken grouped by family code (the families' name
    order), each family's in batch order.  Returns, keyed as in
    `cmap.label_heads`, each head that serves an occurrence (`identity`, the
    Identity family's, and `labels`, every other family's, whose scores
    outside an occurrence's family are -inf), with the `rows`, family `codes`
    and readout `idx` of its occurrences, and `fam_heads`: per family
    present, in name order, its loss, accuracy, hits and count.
    """
    order = np.argsort(batch.label_fams, kind="stable")
    rows, codes = batch.label_rows[order], batch.label_fams[order]
    targets = batch.label_target_cols[order]
    nll, hits = np.zeros(codes.size), np.zeros(codes.size)
    out: dict = {}
    for key, serves, span, outside in cmap.label_heads:
        m = serves[codes]
        if not m.any():
            continue
        scores = zs[rows[m]] @ read[:, span]
        if outside is not None:
            np.copyto(scores, -np.inf, where=outside[codes[m]])
        out[key] = head = _ce_head(scores, targets[m] - span.start, inv_b)
        head.update(rows=rows[m], codes=codes[m], idx=span)
        nll[m], hits[m] = head["nll"], head["hits"]
    n = len(cmap.families)
    counts = np.bincount(codes, minlength=n)
    fam_hits = np.bincount(codes, weights=hits, minlength=n)
    fam_loss = np.bincount(codes, weights=nll, minlength=n) * inv_b
    out["fam_heads"] = {
        cmap.families[k]: {"loss": float(fam_loss[k]), "accuracy": fam_hits[k] / counts[k],
                           "hits": int(fam_hits[k]), "n": int(counts[k])}
        for k in np.flatnonzero(counts)
    }
    return out


def _head_into(h: dict, z: np.ndarray, read: np.ndarray, d_read: np.ndarray, idx) -> np.ndarray:
    """Backprop one CE head reading `read[:, idx]` from the squashed input
    `z`: adds its readout gradient into `d_read` and returns dZ.  `idx` is a
    block, a slice, so the add is in place on a view."""
    dscores = _ce_grad(h)
    d_read[:, idx] += z.T @ dscores
    return dscores @ read[:, idx].T


def _label_grads(zs: np.ndarray, cache: dict, read: np.ndarray, d_read: np.ndarray) -> np.ndarray:
    """Backprop the label heads of `_label_heads`; returns dZ at `zs`."""
    d_zs = np.zeros_like(zs)
    for key in ("identity", "labels"):
        if key in cache:
            h = cache[key]
            rows = h["rows"]
            # a row may occur in several families
            _scatter_add(d_zs, rows, _head_into(h, zs[rows], read, d_read, h["idx"]))
    return d_zs


# a step's Batch fields, by its head: its features, and its targets and commits
_FIELDS = {"NT": ("feat_scene", "inst_cols"), "NS": ("feat_subj", "subj_inject_cols"),
           "NO": ("feat_obj", "obj_inject_cols"), "NP": ("feat_pred", "pred_cols")}
# semantic memory is queried with its subject: it is given, and not trained
_UNTRAINED = {("semantic", "NS")}


def _trains(mode: str, spec: StepSpec) -> bool:
    """Whether the step has a CE head: it reads out a group the mode trains."""
    return spec.group is not None and (mode, spec.head) not in _UNTRAINED


def _commits_col(spec: StepSpec) -> bool:
    """Whether the step commits its batch column (not the pooled vector)."""
    return spec.commit not in (None, POOLED)


def _arrays(batch: Batch, spec: StepSpec) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The step's feature box (None if it encodes none) and its batch
    columns: its CE targets and the columns it commits."""
    feat, key = _FIELDS[spec.head]
    return getattr(batch, feat) if spec.box else None, getattr(batch, key)


def forward(params: NetParams, cmap: ColumnMap, batch: Batch) -> tuple[float, dict]:
    """Run the teacher-forced graph over the batch's `network.schedule` and
    cache everything backward() needs.  `cache["states"]` holds each step's
    state by step name, in schedule order: the squashed context it was fed
    ("sh"), the context step's squashed mix "zm", the squashed input
    "z_tilde" and the squashed committed state "z"."""
    b = len(batch)
    if b == 0:
        raise GraphError("empty batch")
    inv_b = 1.0 / b
    dt = params.emb.dtype
    cache: dict = {"heads": {}, "fam_heads": {}, "states": {}}
    sh, z = initial_context(params), None
    for spec in schedule(batch.mode, batch.arity == "binary", False):
        box, cols = _arrays(batch, spec)
        st = cache["states"][spec.name] = {}
        q = None
        if spec.context:
            st["zm"], sh = context_step(params, sh, z)
            st["sh"] = sh
            q = context_out(params, sh)
        if box is not None:
            enc = encode_input(params, box)
            q = enc if q is None else q + enc
        if q is not None:
            z = st["z_tilde"] = sigmoid(q)
        if _trains(batch.mode, spec):
            span = cmap.block[spec.group]
            scores = index_scores(params, z, span)
            cache["heads"][spec.head] = _ce_head(scores, cols - span.start, inv_b)
        if _commits_col(spec):
            cols = params.emb.T[cols]
            z = sigmoid(cols if q is None else q + cols)
        elif spec.commit == POOLED:
            z = sigmoid(np.broadcast_to(params.pooled, (b, params.config.rep_dim)).astype(dt))
        st["z"] = z
        if spec.labels and batch.label_fams is not None:
            cache.update(_label_heads(z, params.emb, cmap, batch, inv_b))
    loss = _total_loss(cache)
    if not np.isfinite(loss):
        _name_nonfinite(cache)
    cache["loss"] = loss
    return loss, cache


def _total_loss(cache: dict) -> float:
    loss = sum(h["loss"] for h in cache["heads"].values())
    loss += sum(cache[k]["loss"] for k in ("labels", "identity") if k in cache)
    return float(loss)


def _name_nonfinite(cache: dict) -> None:
    """Name where a non-finite loss first shows: a step state, in schedule
    order, else a head's scores.  The segmented label head holds -inf
    outside each row's family by design, so only NaN and +inf count there."""
    for name, st in cache["states"].items():
        for key, arr in st.items():
            if not np.all(np.isfinite(arr)):
                raise NumericsError(f"non-finite values at graph node '{name}.{key}'")
    heads = {**cache["heads"], **{k: cache[k] for k in ("identity", "labels") if k in cache}}
    for key, h in heads.items():
        scores = h["scores"]
        bad = np.isnan(scores) | (scores == np.inf) if key == "labels" else ~np.isfinite(scores)
        if bad.any():
            raise NumericsError(f"non-finite scores at head '{key}'")
    raise NumericsError("non-finite loss")


def mean_head_accuracy(cache: dict) -> float:
    accs = [h["accuracy"] for h in cache["heads"].values()]
    accs += [h["accuracy"] for h in cache["fam_heads"].values()]
    return float(np.mean(accs)) if accs else float("nan")


def _scatter_add(target: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> None:
    """`np.add.at(target, idx, vals)` bit for bit, as one unbuffered add in
    row order into the buffer of a C-contiguous target or its transpose, never
    a copy.  numpy < 1.25 runs `ufunc.at` exact but slow (its generic path)."""
    base = target if target.flags.c_contiguous else target.T
    if not base.flags.c_contiguous:
        raise ValueError("scatter target is neither C-contiguous nor its transpose")
    step, across = (s // target.itemsize for s in target.strides)
    pos = idx[:, None] * step + np.arange(target.shape[1]) * across
    np.add.at(base.reshape(-1), pos.ravel(), vals.ravel())


def backward(params: NetParams, cmap: ColumnMap, batch: Batch, cache: dict) -> NetParams:
    """Hand-derived reverse pass over the batch's `network.schedule`, last
    step to first, from the states `forward` left in `cache["states"]`;
    returns the gradient, a `NetParams` of `params`' layout."""
    grads = NetParams(params.config, params.kind_counts)
    d_emb = grads.emb
    read = params.emb
    specs = schedule(batch.mode, batch.arity == "binary", False)
    states = cache["states"]
    # gradients at the committed state of the step being walked and at the
    # context it was fed, as far as the later steps have summed them
    d_z = d_sh = None
    for k in range(len(specs) - 1, -1, -1):
        spec, st = specs[k], states[specs[k].name]
        box, cols = _arrays(batch, spec)
        if spec.labels and batch.label_fams is not None:
            g = _label_grads(st["z"], cache, read, d_emb)
            d_z = g if d_z is None else d_z + g
        d_q = None
        if spec.commit:  # a teacher column or the pooled vector
            z = st["z"]
            d_q = d_z * z * (1.0 - z)
            if spec.commit == POOLED:
                grads.pooled += d_q.sum(axis=0)
            else:
                _scatter_add(d_emb.T, cols, d_q)
            d_z = None
        if _trains(batch.mode, spec):
            g = _head_into(cache["heads"][spec.head], st["z_tilde"], read, d_emb,
                           cmap.block[spec.group])
            d_z = g if d_z is None else g + d_z
        if d_z is not None:
            z = st["z_tilde"]
            d = d_z * z * (1.0 - z)
            d_q = d if d_q is None else d_q + d
        if box is not None:
            grads.enc_w += d_q.T @ box.astype(d_q.dtype)
            grads.enc_b += d_q.sum(axis=0)
        if not spec.context:  # the first step
            d_z = None
            continue
        # back through context_out and context_step
        sh = st["sh"]
        grads.ctx_out += d_q.T @ sh
        d = d_q @ params.ctx_out
        d_sh = d if d_sh is None else d_sh + d
        d_h = d_sh * sh * (1.0 - sh)
        zm = st["zm"]
        grads.ctx_rec += d_h.T @ zm
        d_sh = (d_h @ params.ctx_rec) * zm * (1.0 - zm)
        grads.ctx_in += d_sh.T @ states[specs[k - 1].name]["z"]
        d_z = d_sh @ params.ctx_in
    return grads


def loss_and_grads(params: NetParams, cmap: ColumnMap, batch: Batch) -> tuple[float, dict]:
    loss, cache = forward(params, cmap, batch)
    return loss, backward(params, cmap, batch, cache).blocks()
