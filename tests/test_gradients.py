"""Analytic gradients checked coordinate-by-coordinate against 64-bit central
finite differences, across every graph shape: all three modes, both arities,
tied and untied readout, the direct perception variant, dropout, and batch
sizes from one to nine.  Every trainable coordinate is probed.
"""
from __future__ import annotations

import numpy as np
import pytest

from bilayer.graph import Batch, backward, forward, loss_and_grads, zero_grads
from bilayer.world import substream

from util import small_params, small_vocab

FD_STEP = 1e-5
REL_TOL = 1e-4
# Species skips Mammal's column (Dog, Cat, Mammal are registered in that
# order), so its readout index is a column array rather than a slice
INTERLEAVED = {"Species": ["Dog", "Mammal"], "Pet": ["Cat"], "Age": ["Young", "Old"]}


def _make_batch(cmap, mode: str, arity: str, direct: bool, rng, b: int = 5) -> Batch:
    ents = cmap.entity_cols
    kwargs: dict = {
        "mode": mode,
        "arity": arity,
        "direct": direct,
        "subj_inject_cols": ents[rng.integers(0, ents.size, size=b)],
    }
    if mode != "semantic":
        insts = cmap.instance_cols
        kwargs["inst_cols"] = insts[rng.integers(0, insts.size, size=b)]
    if arity == "unary":
        rows = np.arange(b)
        fam_rows = {
            "Species": rows[:: 2],
            "Age": rows[1:: 2],
            "Identity": rows,
        }
        kwargs["fam_rows"] = {f: r for f, r in fam_rows.items() if r.size}
        kwargs["fam_target_cols"] = {
            fam: cmap.family_cols[fam][
                rng.integers(0, cmap.family_cols[fam].size, size=r.size)
            ]
            for fam, r in kwargs["fam_rows"].items()
        }
    else:
        preds = cmap.predicate_cols
        kwargs["obj_inject_cols"] = ents[rng.integers(0, ents.size, size=b)]
        kwargs["pred_cols"] = preds[rng.integers(0, preds.size, size=b)]
    if mode == "perception":
        feat = lambda: rng.standard_normal((b, 6))
        kwargs["feat_scene"] = feat()
        kwargs["feat_subj"] = feat()
        if arity == "binary":
            kwargs["feat_obj"] = feat()
            kwargs["feat_pred"] = feat()
    return Batch(**kwargs)


CONFIGS = [
    {"mode": "episodic", "arity": "unary", "tied": True},
    {"mode": "episodic", "arity": "unary", "tied": False},
    {"mode": "episodic", "arity": "binary", "tied": True},
    {"mode": "episodic", "arity": "binary", "tied": False},
    {"mode": "semantic", "arity": "unary", "tied": True},
    {"mode": "semantic", "arity": "unary", "tied": False},
    {"mode": "semantic", "arity": "binary", "tied": True},
    {"mode": "semantic", "arity": "binary", "tied": False},
    {"mode": "perception", "arity": "unary", "tied": True},
    {"mode": "perception", "arity": "unary", "tied": False},
    {"mode": "perception", "arity": "binary", "tied": True},
    {"mode": "perception", "arity": "binary", "tied": False},
    {"mode": "perception", "arity": "unary", "tied": True, "direct": True},
    {"mode": "perception", "arity": "unary", "tied": False, "direct": True},
    {"mode": "perception", "arity": "binary", "tied": True, "direct": True},
    {"mode": "perception", "arity": "binary", "tied": False, "direct": True},
    {"mode": "episodic", "arity": "binary", "tied": True, "dropout": 0.3},
    {"mode": "semantic", "arity": "unary", "tied": True, "dropout": 0.25},
    {"mode": "perception", "arity": "binary", "tied": True, "dropout": 0.3},
    {"mode": "perception", "arity": "unary", "tied": False, "dropout": 0.2},
    {"mode": "episodic", "arity": "unary", "tied": True, "batch": 1},
    {"mode": "perception", "arity": "binary", "tied": True, "batch": 9},
    {"mode": "perception", "arity": "unary", "tied": False, "interleaved": True},
    {"mode": "perception", "arity": "unary", "tied": True, "direct": True, "interleaved": True},
]


def _config_id(cfg: dict) -> str:
    bits = [cfg["mode"], cfg["arity"], "tied" if cfg["tied"] else "untied"]
    if cfg.get("direct"):
        bits.append("direct")
    if cfg.get("dropout"):
        bits.append(f"drop{cfg['dropout']}")
    if cfg.get("batch"):
        bits.append(f"b{cfg['batch']}")
    if cfg.get("interleaved"):
        bits.append("interleaved")
    return "-".join(bits)


def _loss(params, cmap, batch, dropout: float, seed: int) -> float:
    # re-seeding the dropout stream repeats the exact masks, so finite
    # differences probe the same realized network
    if dropout:
        loss, _ = forward(params, cmap, batch, dropout, substream(seed, "drop"))
    else:
        loss, _ = forward(params, cmap, batch)
    return loss


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_gradients_match_finite_differences(cfg):
    seed = CONFIGS.index(cfg)
    v = small_vocab(families=INTERLEAVED if cfg.get("interleaved") else None)
    params, cmap = small_params(v, dtype="float64", tied=cfg["tied"], seed=seed)
    if cfg.get("interleaved"):
        assert isinstance(cmap.family_idx["Species"], np.ndarray)
    rng = substream(seed, "batch")
    batch = _make_batch(
        cmap, cfg["mode"], cfg["arity"], cfg.get("direct", False), rng, cfg.get("batch", 5)
    )
    dropout = cfg.get("dropout", 0.0)

    if dropout:
        loss, cache = forward(params, cmap, batch, dropout, substream(seed, "drop"))
        grads = backward(params, cmap, batch, cache)
    else:
        loss, grads = loss_and_grads(params, cmap, batch)
    assert np.isfinite(loss)
    assert set(grads) == set(params.blocks())

    worst = 0.0
    for name, arr in params.blocks().items():
        g = grads[name].reshape(-1)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = _loss(params, cmap, batch, dropout, seed)
            flat[i] = orig - FD_STEP
            down = _loss(params, cmap, batch, dropout, seed)
            flat[i] = orig
            fd = (up - down) / (2 * FD_STEP)
            scale = max(abs(g[i]), abs(fd), 1e-6)
            worst = max(worst, abs(g[i] - fd) / scale)
    assert worst < REL_TOL, f"max relative gradient error {worst:.3e}"


def test_semantic_mode_leaves_instance_columns_untouched():
    v = small_vocab()
    params, cmap = small_params(v, dtype="float64", seed=50)
    batch = _make_batch(cmap, "semantic", "binary", False, substream(50, "batch"))
    _, grads = loss_and_grads(params, cmap, batch)
    assert np.all(grads["emb"][:, cmap.instance_cols] == 0.0)
    assert np.any(grads["pooled"] != 0.0)


def test_zero_grads_mirror_blocks():
    v = small_vocab()
    params, _ = small_params(v, tied=False)
    grads = zero_grads(params)
    for name, arr in params.blocks().items():
        assert grads[name].shape == arr.shape
        assert not np.any(grads[name])
