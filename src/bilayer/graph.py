"""Teacher-forced pass through the decoding schedule, with exact gradients.

Training unrolls the same instance -> subject -> labels -> object -> predicate
schedule the decoder walks, but injects ground-truth (or deliberately
substituted) indices at every commitment instead of sampled ones.  Each batch
element is one statement; heads active per mode and arity:

    episodic   unary   subject CE + label CE
    episodic   binary  subject CE + object CE + predicate CE
    semantic   unary   label CE                       (subject given, pooled instance)
    semantic   binary  object CE + predicate CE
    perception unary   instance CE + subject CE + label CE
    perception binary  instance CE + subject CE + object CE + predicate CE

A unary row's label CE is a softmax over its family's columns.  Two heads
serve every family of a batch: the Identity family (the entity columns) has
its own, and all other families share one segmented head that scores each
(row, family) occurrence over the class and attribute block with one gemm
and masks it to its family's columns.  Loss and accuracy are still reported
per family.

The backward pass is derived by hand for this fixed graph; tests check it
against 64-bit central finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import NumericsError, sigmoid
from .params import ColumnMap, NetParams
from .vocab import IDENTITY_FAMILY

MODES = ("episodic", "semantic", "perception")
ARITIES = ("unary", "binary")


class GraphError(ValueError):
    pass


@dataclass
class Batch:
    """One homogeneous group of teacher-forced examples (same mode and arity).

    All index fields hold embedding column positions; targets are resolved to
    positions inside the relevant readout support during the forward pass.
    """

    mode: str
    arity: str
    inst_cols: np.ndarray | None = None      # (B,) perception/episodic
    subj_inject_cols: np.ndarray | None = None  # (B,)
    fam_rows: dict[str, np.ndarray] = field(default_factory=dict)
    fam_target_cols: dict[str, np.ndarray] = field(default_factory=dict)
    obj_inject_cols: np.ndarray | None = None
    pred_cols: np.ndarray | None = None
    feat_scene: np.ndarray | None = None     # (B, feature_dim)
    feat_subj: np.ndarray | None = None
    feat_obj: np.ndarray | None = None
    feat_pred: np.ndarray | None = None
    direct: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise GraphError(f"unknown mode {self.mode!r}")
        if self.arity not in ARITIES:
            raise GraphError(f"unknown arity {self.arity!r}")
        if self.direct and self.mode != "perception":
            raise GraphError("direct graphs are a perception variant")
        if self.mode == "perception":
            needed = [self.feat_scene, self.feat_subj]
            if self.arity == "binary":
                needed += [self.feat_obj, self.feat_pred]
            if any(f is None for f in needed):
                raise GraphError("perception batches need feature inputs")
        if self.mode != "semantic" and self.inst_cols is None:
            raise GraphError(f"{self.mode} batches need instance columns")

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

    Returns `identity` (the Identity family's head, with its `rows`),
    `labels` (the segmented head of every other family, with the `rows` and
    family `codes` of its occurrences; its positions index the class and
    attribute block `cmap.label_idx`, scores outside a row's family are
    -inf) and `fam_heads`: per family, in name order, its loss, accuracy,
    hits and row count.
    """
    out: dict = {"fam_heads": {}}
    fams = sorted(batch.fam_rows)
    if IDENTITY_FAMILY in batch.fam_rows:
        rows = batch.fam_rows[IDENTITY_FAMILY]
        pos = np.searchsorted(
            cmap.family_cols[IDENTITY_FAMILY], batch.fam_target_cols[IDENTITY_FAMILY]
        )
        out["identity"] = head = _ce_head(
            zs[rows] @ read[:, cmap.family_idx[IDENTITY_FAMILY]], pos, inv_b
        )
        head["rows"] = rows
    labels = [f for f in fams if f != IDENTITY_FAMILY]
    if labels:
        rows = np.concatenate([batch.fam_rows[f] for f in labels])
        codes = np.repeat(
            [cmap.label_family_code[f] for f in labels], [batch.fam_rows[f].size for f in labels]
        )
        targets = np.concatenate([batch.fam_target_cols[f] for f in labels])
        scores = zs[rows] @ read[:, cmap.label_idx]
        np.copyto(scores, -np.inf, where=cmap.label_outside[codes])
        out["labels"] = head = _ce_head(scores, targets - cmap.label_cols[0], inv_b)
        head.update(rows=rows, codes=codes)
        n = len(cmap.label_family_code)
        counts = np.bincount(codes, minlength=n)
        hits = np.bincount(codes, weights=head["hits"], minlength=n)
        losses = np.bincount(codes, weights=head["nll"], minlength=n) * inv_b
    for fam in fams:
        if fam == IDENTITY_FAMILY:
            h = out["identity"]
            out["fam_heads"][fam] = {"loss": h["loss"], "accuracy": h["accuracy"],
                                     "hits": int(h["hits"].sum()), "n": h["hits"].size}
        else:
            k = cmap.label_family_code[fam]
            out["fam_heads"][fam] = {"loss": float(losses[k]), "accuracy": hits[k] / counts[k],
                                     "hits": int(hits[k]), "n": int(counts[k])}
    return out


def _head_into(h: dict, z: np.ndarray, read: np.ndarray, d_read: np.ndarray, idx) -> np.ndarray:
    """Backprop one CE head reading `read[:, idx]` from the squashed input
    `z`: adds its readout gradient into `d_read` and returns dZ.  With a
    slice `idx` the add is in place on a view."""
    dscores = _ce_grad(h)
    d_read[:, idx] += z.T @ dscores
    return dscores @ read[:, idx].T


def _label_grads(
    zs: np.ndarray, cache: dict, cmap: ColumnMap, read: np.ndarray, d_read: np.ndarray
) -> np.ndarray:
    """Backprop the label heads of `_label_heads`; returns dZ at `zs`."""
    d_zs = np.zeros_like(zs)
    if "identity" in cache:
        h = cache["identity"]
        idx = cmap.family_idx[IDENTITY_FAMILY]
        d_zs[h["rows"]] += _head_into(h, zs[h["rows"]], read, d_read, idx)
    if "labels" in cache:
        h = cache["labels"]
        rows = h["rows"]
        d = _head_into(h, zs[rows], read, d_read, cmap.label_idx)
        if np.bincount(rows).max() == 1:
            d_zs[rows] += d
        else:  # a hand-built batch may list a row in two families
            np.add.at(d_zs, rows, d)
    return d_zs


def forward(
    params: NetParams,
    cmap: ColumnMap,
    batch: Batch,
    dropout: float = 0.0,
    drop_rng: np.random.Generator | None = None,
) -> tuple[float, dict]:
    """Run the teacher-forced graph; cache everything backward() needs.

    `dropout` masks context-state units (inverted scaling); it needs a
    generator and only applies to the recurrent path, so the direct variant
    ignores it.
    """
    b = len(batch)
    if b == 0:
        raise GraphError("empty batch")
    if not 0.0 <= dropout < 1.0:
        raise GraphError("dropout must be in [0, 1)")
    if dropout > 0.0 and drop_rng is None:
        raise GraphError("dropout needs a generator")
    inv_b = 1.0 / b
    dt = params.emb.dtype
    read = params.readout
    r_cpt = read[:, cmap.concept_idx]
    cache: dict = {"heads": {}, "fam_heads": {}, "batch": batch}
    heads = cache["heads"]

    def drop(state: np.ndarray, tag: str) -> np.ndarray:
        if dropout == 0.0:
            return state
        mask = (drop_rng.random(size=state.shape) >= dropout).astype(dt)
        mask /= np.asarray(1.0 - dropout, dtype=dt)
        cache["raw_" + tag] = state
        cache["mask_" + tag] = mask
        return state * mask

    def enc(feats: np.ndarray) -> np.ndarray:
        return feats.astype(dt) @ params.enc_w.T + params.enc_b

    if batch.direct:
        return _forward_direct(params, cmap, batch, cache, inv_b)

    perceiving = batch.mode == "perception"

    # instance step
    if perceiving:
        qt_tilde = enc(batch.feat_scene)
        zt_tilde = sigmoid(qt_tilde)
        heads["NT"] = _ce_head(
            zt_tilde @ read[:, cmap.instance_idx],
            cmap.instance_pos(batch.inst_cols),
            inv_b,
        )
        qt = qt_tilde + params.emb[:, batch.inst_cols].T
        cache["zt_tilde"] = zt_tilde
    elif batch.mode == "episodic":
        qt = params.emb[:, batch.inst_cols].T.copy()
    else:
        qt = np.broadcast_to(params.pooled, (b, params.config.rep_dim)).astype(dt)
    zt = sigmoid(qt)

    # context after the instance step; sig(0) of the initial context is 0.5
    m1 = 0.5 + zt @ params.ctx_in.T
    z1 = sigmoid(m1)
    h1 = z1 @ params.ctx_rec.T
    sh1 = drop(sigmoid(h1), "sh1")
    g1 = sh1 @ params.ctx_out.T

    # subject step
    qs_tilde = g1 + (enc(batch.feat_subj) if perceiving else 0.0)
    zs_tilde = sigmoid(qs_tilde)
    if batch.mode != "semantic":
        heads["NS"] = _ce_head(
            zs_tilde @ r_cpt, cmap.concept_pos(batch.subj_inject_cols), inv_b
        )
    qs = qs_tilde + params.emb[:, batch.subj_inject_cols].T
    zs = sigmoid(qs)

    if batch.arity == "unary":
        cache.update(_label_heads(zs, read, cmap, batch, inv_b))
    else:
        m2 = sh1 + zs @ params.ctx_in.T
        z2 = sigmoid(m2)
        h2 = z2 @ params.ctx_rec.T
        sh2 = drop(sigmoid(h2), "sh2")
        g2 = sh2 @ params.ctx_out.T
        qo_tilde = g2 + (enc(batch.feat_obj) if perceiving else 0.0)
        zo_tilde = sigmoid(qo_tilde)
        heads["NO"] = _ce_head(
            zo_tilde @ r_cpt, cmap.concept_pos(batch.obj_inject_cols), inv_b
        )
        qo = qo_tilde + params.emb[:, batch.obj_inject_cols].T
        zo = sigmoid(qo)
        m3 = sh2 + zo @ params.ctx_in.T
        z3 = sigmoid(m3)
        h3 = z3 @ params.ctx_rec.T
        sh3 = drop(sigmoid(h3), "sh3")
        g3 = sh3 @ params.ctx_out.T
        qp = g3 + (enc(batch.feat_pred) if perceiving else 0.0)
        zp = sigmoid(qp)
        heads["NP"] = _ce_head(
            zp @ read[:, cmap.predicate_idx],
            cmap.predicate_pos(batch.pred_cols),
            inv_b,
        )
        cache.update(
            m2=m2, z2=z2, h2=h2, sh2=sh2, zo_tilde=zo_tilde, zo=zo,
            m3=m3, z3=z3, h3=h3, sh3=sh3, zp=zp,
        )

    cache.update(zt=zt, m1=m1, z1=z1, h1=h1, sh1=sh1, zs_tilde=zs_tilde, zs=zs)
    loss = _total_loss(cache)
    if not np.isfinite(loss):
        _name_nonfinite(cache)
    cache["loss"] = loss
    return loss, cache


def _forward_direct(params, cmap, batch, cache, inv_b) -> tuple[float, dict]:
    dt = params.emb.dtype
    read = params.readout
    heads = cache["heads"]

    def enc(feats):
        return feats.astype(dt) @ params.enc_w.T + params.enc_b

    zt = sigmoid(enc(batch.feat_scene))
    zs = sigmoid(enc(batch.feat_subj))
    heads["NT"] = _ce_head(
        zt @ read[:, cmap.instance_idx], cmap.instance_pos(batch.inst_cols), inv_b
    )
    heads["NS"] = _ce_head(
        zs @ read[:, cmap.concept_idx], cmap.concept_pos(batch.subj_inject_cols), inv_b
    )
    if batch.arity == "unary":
        cache.update(_label_heads(zs, read, cmap, batch, inv_b))
    else:
        zo = sigmoid(enc(batch.feat_obj))
        zp = sigmoid(enc(batch.feat_pred))
        heads["NO"] = _ce_head(
            zo @ read[:, cmap.concept_idx], cmap.concept_pos(batch.obj_inject_cols), inv_b
        )
        heads["NP"] = _ce_head(
            zp @ read[:, cmap.predicate_idx], cmap.predicate_pos(batch.pred_cols), inv_b
        )
        cache.update(zo=zo, zp=zp)
    cache.update(zt=zt, zs=zs)
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
    for name, arr in cache.items():
        if isinstance(arr, np.ndarray) and not np.all(np.isfinite(arr)):
            raise NumericsError(f"non-finite values at graph node {name!r}")
    raise NumericsError("non-finite loss")


def mean_head_accuracy(cache: dict) -> float:
    accs = [h["accuracy"] for h in cache["heads"].values()]
    accs += [h["accuracy"] for h in cache["fam_heads"].values()]
    return float(np.mean(accs)) if accs else float("nan")


def zero_grads(params: NetParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.blocks().items()}


def backward(params: NetParams, cmap: ColumnMap, batch: Batch, cache: dict) -> dict[str, np.ndarray]:
    """Hand-derived reverse pass; returns gradients keyed like params.blocks()."""
    grads = zero_grads(params)
    d_emb = grads["emb"]
    d_read = grads["emb_up"] if not params.config.tied else d_emb
    read = params.readout
    heads = cache["heads"]
    perceiving = batch.mode == "perception"

    def head_into(h: dict, z: np.ndarray, idx) -> np.ndarray:
        return _head_into(h, z, read, d_read, idx)

    def enc_grads(dq: np.ndarray, feats: np.ndarray) -> None:
        grads["enc_w"] += dq.T @ feats.astype(dq.dtype)
        grads["enc_b"] += dq.sum(axis=0)

    def through_drop(d_sh: np.ndarray, tag: str, sh: np.ndarray) -> np.ndarray:
        """Gradient across a (possibly dropout-masked) sigmoid context state."""
        mask = cache.get("mask_" + tag)
        raw = cache.get("raw_" + tag, sh)
        if mask is not None:
            d_sh = d_sh * mask
        return d_sh * raw * (1.0 - raw)

    if batch.direct:
        _backward_direct(cmap, batch, cache, head_into, enc_grads, read, d_read)
        return grads

    zt, zs = cache["zt"], cache["zs"]
    zs_tilde = cache["zs_tilde"]
    sh1, z1, m1 = cache["sh1"], cache["z1"], cache["m1"]

    d_sh1 = np.zeros_like(sh1)

    if batch.arity == "unary":
        d_zs = _label_grads(zs, cache, cmap, read, d_read)
    else:
        zo, zo_tilde, zp = cache["zo"], cache["zo_tilde"], cache["zp"]
        sh2, z2 = cache["sh2"], cache["z2"]
        sh3, z3 = cache["sh3"], cache["z3"]

        d_zp = head_into(heads["NP"], zp, cmap.predicate_idx)
        d_qp = d_zp * zp * (1.0 - zp)
        if perceiving:
            enc_grads(d_qp, batch.feat_pred)
        grads["ctx_out"] += d_qp.T @ sh3
        d_sh3 = d_qp @ params.ctx_out
        d_h3 = through_drop(d_sh3, "sh3", sh3)
        grads["ctx_rec"] += d_h3.T @ z3
        d_m3 = (d_h3 @ params.ctx_rec) * z3 * (1.0 - z3)
        d_sh2 = d_m3.copy()
        grads["ctx_in"] += d_m3.T @ zo
        d_zo = d_m3 @ params.ctx_in
        d_qo = d_zo * zo * (1.0 - zo)
        np.add.at(d_emb.T, batch.obj_inject_cols, d_qo)
        d_qo_tilde = d_qo
        d_zo_tilde = head_into(heads["NO"], zo_tilde, cmap.concept_idx)
        d_qo_tilde = d_qo_tilde + d_zo_tilde * zo_tilde * (1.0 - zo_tilde)
        if perceiving:
            enc_grads(d_qo_tilde, batch.feat_obj)
        grads["ctx_out"] += d_qo_tilde.T @ sh2
        d_sh2 += d_qo_tilde @ params.ctx_out
        d_h2 = through_drop(d_sh2, "sh2", sh2)
        grads["ctx_rec"] += d_h2.T @ z2
        d_m2 = (d_h2 @ params.ctx_rec) * z2 * (1.0 - z2)
        d_sh1 += d_m2
        grads["ctx_in"] += d_m2.T @ zs
        d_zs = d_m2 @ params.ctx_in

    d_qs = d_zs * zs * (1.0 - zs)
    np.add.at(d_emb.T, batch.subj_inject_cols, d_qs)
    d_qs_tilde = d_qs
    if batch.mode != "semantic":
        d_zs_tilde = head_into(heads["NS"], zs_tilde, cmap.concept_idx)
        d_qs_tilde = d_qs_tilde + d_zs_tilde * zs_tilde * (1.0 - zs_tilde)
    if perceiving:
        enc_grads(d_qs_tilde, batch.feat_subj)
    grads["ctx_out"] += d_qs_tilde.T @ sh1
    d_sh1 += d_qs_tilde @ params.ctx_out
    d_h1 = through_drop(d_sh1, "sh1", sh1)
    grads["ctx_rec"] += d_h1.T @ z1
    d_m1 = (d_h1 @ params.ctx_rec) * z1 * (1.0 - z1)
    grads["ctx_in"] += d_m1.T @ zt
    d_zt = d_m1 @ params.ctx_in
    d_qt = d_zt * zt * (1.0 - zt)

    if batch.mode == "episodic":
        np.add.at(d_emb.T, batch.inst_cols, d_qt)
    elif batch.mode == "semantic":
        grads["pooled"] += d_qt.sum(axis=0)
    else:
        np.add.at(d_emb.T, batch.inst_cols, d_qt)
        zt_tilde = cache["zt_tilde"]
        d_zt_tilde = head_into(heads["NT"], zt_tilde, cmap.instance_idx)
        d_qt_tilde = d_qt + d_zt_tilde * zt_tilde * (1.0 - zt_tilde)
        enc_grads(d_qt_tilde, batch.feat_scene)
    return grads


def _backward_direct(cmap, batch, cache, head_into, enc_grads, read, d_read) -> None:
    zt, zs = cache["zt"], cache["zs"]
    heads = cache["heads"]

    d_zt = head_into(heads["NT"], zt, cmap.instance_idx)
    enc_grads(d_zt * zt * (1.0 - zt), batch.feat_scene)

    d_zs = head_into(heads["NS"], zs, cmap.concept_idx)
    if batch.arity == "unary":
        d_zs = d_zs + _label_grads(zs, cache, cmap, read, d_read)
    enc_grads(d_zs * zs * (1.0 - zs), batch.feat_subj)

    if batch.arity == "binary":
        zo, zp = cache["zo"], cache["zp"]
        d_zo = head_into(heads["NO"], zo, cmap.concept_idx)
        enc_grads(d_zo * zo * (1.0 - zo), batch.feat_obj)
        d_zp = head_into(heads["NP"], zp, cmap.predicate_idx)
        enc_grads(d_zp * zp * (1.0 - zp), batch.feat_pred)


def loss_and_grads(params: NetParams, cmap: ColumnMap, batch: Batch) -> tuple[float, dict]:
    loss, cache = forward(params, cmap, batch)
    return loss, backward(params, cmap, batch, cache)
