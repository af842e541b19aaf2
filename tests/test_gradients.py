"""Analytic gradients checked coordinate-by-coordinate against 64-bit central
finite differences, across every graph shape: all three modes and both
arities, batch sizes from one to nine, with label families in contiguous and
in interleaved columns.  Every trainable coordinate is probed.  The segmented
label head is also checked against one softmax head per family.
"""
from __future__ import annotations

import numpy as np
import pytest

from bilayer import graph
from bilayer.graph import Batch, backward, forward, loss_and_grads
from bilayer.network import sigmoid
from bilayer.world import substream

from test_params import assert_one_buffer
from util import INTERLEAVED, group_cols, reference_family_heads, small_params, small_vocab

FD_STEP = 1e-5
REL_TOL = 1e-4


def _make_batch(cmap, mode: str, arity: str, rng, b: int = 5,
                labels: tuple = ("Species", "Age")) -> Batch:
    ents = group_cols(cmap, "entity")
    kwargs: dict = {
        "mode": mode,
        "arity": arity,
        "subj_inject_cols": ents[rng.integers(0, ents.size, size=b)],
    }
    if mode != "semantic":
        insts = group_cols(cmap, "instance")
        kwargs["inst_cols"] = insts[rng.integers(0, insts.size, size=b)]
    if arity == "unary":
        rows = np.arange(b)
        # the label families take turns over the rows; every row is also an identity row
        fam_rows = [(f, rows[i:: len(labels)]) for i, f in enumerate(labels)]
        fam_rows = [(f, r) for f, r in fam_rows + [("Identity", rows)] if r.size]
        kwargs["label_rows"] = np.concatenate([r for _, r in fam_rows])
        kwargs["label_fams"] = np.concatenate(
            [np.full(r.size, cmap.families.index(f)) for f, r in fam_rows]
        )
        kwargs["label_target_cols"] = np.concatenate([
            cmap.family_cols[f][rng.integers(0, cmap.family_cols[f].size, size=r.size)]
            for f, r in fam_rows
        ])
    else:
        preds = group_cols(cmap, "predicate")
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


# each config's seed is its own, so adding or deleting a config draws no
# other config's parameters and batch anew
CONFIGS = [
    {"mode": "episodic", "arity": "unary", "seed": 0},
    {"mode": "episodic", "arity": "binary", "seed": 1},
    {"mode": "semantic", "arity": "unary", "seed": 2},
    {"mode": "semantic", "arity": "binary", "seed": 3},
    {"mode": "perception", "arity": "unary", "seed": 4},
    {"mode": "perception", "arity": "binary", "seed": 5},
    {"mode": "episodic", "arity": "unary", "batch": 1, "seed": 12},
    {"mode": "perception", "arity": "binary", "batch": 9, "seed": 13},
    {"mode": "perception", "arity": "unary", "interleaved": True, "seed": 14},
    {"mode": "episodic", "arity": "unary", "batch": 7, "all_families": True, "seed": 16},
]


def _config_id(cfg: dict) -> str:
    bits = [cfg["mode"], cfg["arity"]]
    if cfg.get("batch"):
        bits.append(f"b{cfg['batch']}")
    if cfg.get("interleaved"):
        bits.append("interleaved")
    if cfg.get("all_families"):
        bits.append("allfam")
    return "-".join(bits)


def _loss(params, cmap, batch) -> float:
    loss, _ = forward(params, cmap, batch)
    return loss


@pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
def test_gradients_match_finite_differences(cfg):
    seed = cfg["seed"]
    v = small_vocab(families=INTERLEAVED if cfg.get("interleaved") else None)
    params, cmap = small_params(v, dtype="float64", seed=seed)
    if cfg.get("interleaved"):
        assert np.any(np.diff(cmap.family_cols["Species"]) > 1)
    rng = substream(seed, "batch")
    labels = ("Species", "Rank", "Age") if cfg.get("all_families") else ("Species", "Age")
    batch = _make_batch(cmap, cfg["mode"], cfg["arity"], rng, cfg.get("batch", 5), labels)
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
            up = _loss(params, cmap, batch)
            flat[i] = orig - FD_STEP
            down = _loss(params, cmap, batch)
            flat[i] = orig
            fd = (up - down) / (2 * FD_STEP)
            scale = max(abs(g[i]), abs(fd), 1e-6)
            worst = max(worst, abs(g[i] - fd) / scale)
    assert worst < REL_TOL, f"max relative gradient error {worst:.3e}"


def test_semantic_mode_leaves_instance_columns_untouched():
    v = small_vocab()
    params, cmap = small_params(v, dtype="float64", seed=50)
    batch = _make_batch(cmap, "semantic", "binary", substream(50, "batch"))
    _, grads = loss_and_grads(params, cmap, batch)
    assert np.all(grads["emb"][:, group_cols(cmap, "instance")] == 0.0)
    assert np.any(grads["pooled"] != 0.0)


@pytest.mark.parametrize("mode", ["perception", "episodic", "semantic"])
def test_backward_fills_one_buffer_of_the_params_layout(mode):
    """The gradient is a `NetParams` of the parameters' config and column
    counts, its blocks views into one fresh buffer."""
    v = small_vocab()
    params, cmap = small_params(v, seed=12)
    batch = _make_batch(cmap, mode, "binary", substream(12, "batch"))
    _, cache = forward(params, cmap, batch)
    grads = backward(params, cmap, batch, cache)
    assert grads.config == params.config and grads.kind_counts == params.kind_counts
    assert not np.shares_memory(grads.flat, params.flat)
    assert grads.flat.any()
    assert_one_buffer(grads)


@pytest.mark.parametrize("families", [None, INTERLEAVED], ids=["contiguous", "interleaved"])
def test_label_head_matches_one_head_per_family(families):
    v = small_vocab(families=families)
    params, cmap = small_params(v, dtype="float64", seed=61)
    rng = substream(61, "label-head")
    b = 9
    zs = sigmoid(rng.standard_normal((b, params.config.rep_dim)))
    labels = sorted(f for f in cmap.family_cols if f != "Identity")
    rows = np.arange(b)
    fam_rows = {f: rows[i:: len(labels)] for i, f in enumerate(labels)}
    fam_rows[labels[1]] = np.union1d(fam_rows[labels[1]], [0])  # row 0 sits in two families
    fam_rows["Identity"] = rows[::2]
    ents = group_cols(cmap, "entity")
    subj = ents[rng.integers(0, ents.size, size=b)]
    batch = Batch(
        mode="semantic", arity="unary", subj_inject_cols=subj,
        label_rows=np.concatenate(list(fam_rows.values())),
        label_fams=np.concatenate(
            [np.full(r.size, cmap.families.index(f)) for f, r in fam_rows.items()]
        ),
        label_target_cols=np.concatenate([
            cmap.family_cols[f][rng.integers(0, cmap.family_cols[f].size, size=r.size)]
            for f, r in fam_rows.items()
        ]),
    )
    read = params.emb
    want = reference_family_heads(zs, read, cmap, batch, 1.0 / b)
    heads = graph._label_heads(zs, read, cmap, batch, 1.0 / b)
    d_read = np.zeros_like(read)
    d_zs = graph._label_grads(zs, heads, read, d_read)
    assert list(heads["fam_heads"]) == sorted(fam_rows)
    for fam, h in heads["fam_heads"].items():
        np.testing.assert_allclose(h["loss"], want["loss"][fam], rtol=1e-6)
        assert h["accuracy"] == want["accuracy"][fam]
        assert h["n"] == fam_rows[fam].size
    total = sum(h["loss"] for k, h in heads.items() if k != "fam_heads")
    np.testing.assert_allclose(total, sum(want["loss"].values()), rtol=1e-6)
    np.testing.assert_allclose(d_zs, want["d_zs"], rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(d_read, want["d_read"], rtol=1e-6, atol=1e-12)


def test_ce_head_clamps_an_underflowed_target_at_tiny():
    # exp(-200) is 0 in float32; a 1e-300 clamp would round to 0 and give inf
    head = graph._ce_head(np.array([[0.0, -200.0]], dtype=np.float32), np.array([1]), 1.0)
    tiny = np.finfo(np.float32).tiny
    assert head["probs"][0, 1] == 0.0
    assert np.isfinite(head["loss"])
    assert head["loss"] == float(-np.log(tiny))


def test_a_unary_batch_makes_three_softmax_heads(monkeypatch):
    # NS, the segmented label head and Identity, however many families the batch holds
    v = small_vocab()
    params, cmap = small_params(v)
    batch = _make_batch(cmap, "episodic", "unary", substream(0, "heads"), 7,
                        ("Species", "Rank", "Age"))
    calls = []
    real = graph._ce_head

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph, "_ce_head", counted)
    forward(params, cmap, batch)
    assert len(calls) == 3
