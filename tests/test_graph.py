"""The teacher-forced graph's step loop: how a non-finite forward names the
node it first appears at, and the scatter that adds committed columns'
gradients, which must equal `np.add.at` bit for bit."""
from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from bilayer.graph import Batch, GraphError, _scatter_add, forward, mean_head_accuracy
from bilayer.network import NumericsError
from bilayer.world import substream

from util import group_cols, small_params, small_vocab


def _batch(cmap, mode: str, arity: str, b: int = 3) -> Batch:
    rng = substream(0, "nan", mode, arity)

    def draw(cols):
        return cols[rng.integers(0, cols.size, size=b)]

    fields: dict = {"subj_inject_cols": draw(group_cols(cmap, "entity"))}
    if mode != "semantic":
        fields["inst_cols"] = draw(group_cols(cmap, "instance"))
    if arity == "unary":
        fields["label_rows"] = np.arange(b)
        fields["label_fams"] = np.full(b, cmap.families.index("Species"))
        fields["label_target_cols"] = draw(cmap.family_cols["Species"])
    else:
        fields["obj_inject_cols"] = draw(group_cols(cmap, "entity"))
        fields["pred_cols"] = draw(group_cols(cmap, "predicate"))
    if mode == "perception":
        boxes = ["feat_scene", "feat_subj"]
        if arity == "binary":
            boxes += ["feat_obj", "feat_pred"]
        fields.update({box: rng.standard_normal((b, 6)) for box in boxes})
    return Batch(mode=mode, arity=arity, **fields)


@pytest.mark.parametrize("block, mode, arity, node", [
    ("ctx_rec", "episodic", "binary", "subject.sh"),
    ("ctx_in", "semantic", "unary", "subject.zm"),
    ("ctx_out", "semantic", "binary", "subject.z_tilde"),
    ("enc_w", "perception", "unary", "instance.z_tilde"),
])
def test_non_finite_forward_names_the_first_bad_node(block, mode, arity, node):
    v = small_vocab()
    params, cmap = small_params(v, seed=3)
    getattr(params, block)[0, 0] = np.nan
    with pytest.raises(NumericsError, match=re.escape(f"graph node '{node}'")):
        forward(params, cmap, _batch(cmap, mode, arity))


def test_non_finite_scores_alone_name_the_loss():
    # the class and attribute columns are scored by the subject head but
    # never committed, so their NaN reaches only the heads' scores
    v = small_vocab()
    params, cmap = small_params(v, seed=3)
    params.emb[:, group_cols(cmap, "label")] = np.nan
    with pytest.raises(NumericsError, match=re.escape("non-finite scores at head 'NS'")):
        forward(params, cmap, _batch(cmap, "episodic", "unary"))


@pytest.mark.parametrize("family, head", [("Species", "labels"), ("Identity", "identity")])
def test_non_finite_label_scores_name_their_head(family, head):
    # the segmented label head's -inf outside each family is no fault;
    # a NaN column inside the batch's family is.  Every subject is clamped
    # to one entity whose column stays finite, so no committed state is NaN.
    v = small_vocab()
    params, cmap = small_params(v, seed=3)
    subject = group_cols(cmap, "entity")[0]
    params.emb[:, np.setdiff1d(cmap.family_cols[family], [subject])] = np.nan
    batch = _batch(cmap, "semantic", "unary")
    batch.subj_inject_cols = np.full(len(batch), subject)
    batch.label_fams = np.full(len(batch), cmap.families.index(family))
    batch.label_target_cols = cmap.family_cols[family][:1].repeat(len(batch))
    with pytest.raises(NumericsError, match=re.escape(f"non-finite scores at head '{head}'")):
        forward(params, cmap, batch)


@pytest.mark.parametrize("arity", ["unary", "binary"])
def test_mean_head_accuracy_averages_every_head(arity):
    v = small_vocab()
    params, cmap = small_params(v, seed=4)
    _, cache = forward(params, cmap, _batch(cmap, "episodic", arity))
    accs = [h["accuracy"] for h in (*cache["heads"].values(), *cache["fam_heads"].values())]
    assert len(accs) == (3 if arity == "binary" else 2)  # NS with NO, NP or one family
    assert mean_head_accuracy(cache) == pytest.approx(sum(accs) / len(accs))


def test_mean_head_accuracy_of_no_heads_is_nan():
    assert np.isnan(mean_head_accuracy({"heads": {}, "fam_heads": {}}))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows, n_cols, width", [
    (0, 7, 16), (5, 50, 16), (128, 40, 16), (128, 3, 16), (40, 1, 16), (128, 1, 16),
    (128, 40, 1), (64, 9, 1),
])
@pytest.mark.parametrize("transposed", [True, False])
@pytest.mark.parametrize("zeros", [False, True])
def test_scatter_add_equals_add_at_bitwise(dtype, n_rows, n_cols, width, transposed, zeros):
    """On the strided transpose of a gradient block, as `backward` calls it,
    and on a C-contiguous target, as `_label_grads` calls it: repeated
    columns (up to every row on one) add in row order, as `np.add.at` adds
    them, so every last bit agrees, -0.0 included."""
    rng = substream(1, "scatter", n_rows, n_cols, width)
    base = rng.standard_normal((width, 60)).astype(dtype)
    cols = rng.integers(0, n_cols, size=n_rows) * (60 // n_cols)
    scale = 10.0 ** rng.integers(-6, 6, (n_rows, 1))  # so the order of the adds shows
    vals = (rng.standard_normal((n_rows, width)) * scale).astype(dtype)
    if zeros:  # -0.0 + -0.0 stays -0.0; a +0.0 anywhere in the sum makes +0.0
        base[:, ::2] = -0.0
        vals[rng.random(vals.shape) < 0.7] = -0.0
    if not transposed:
        base = np.ascontiguousarray(base.T)
    want, got = base.copy(), base.copy()
    np.add.at(want.T if transposed else want, cols, vals)
    _scatter_add(got.T if transposed else got, cols, vals)
    assert got.tobytes() == want.tobytes()


def test_scatter_add_refuses_a_target_it_cannot_flatten():
    """A target that is neither C-contiguous nor the transpose of a
    C-contiguous array would be added into a copy, so it is refused."""
    base = np.zeros((10, 8))
    with pytest.raises(ValueError, match="C-contiguous"):
        _scatter_add(base[::2], np.array([0, 1]), np.ones((2, 8)))
    assert not base.any()


@pytest.mark.parametrize("mode, arity, missing", [
    ("episodic", "binary", "obj_inject_cols"),
    ("episodic", "binary", "pred_cols"),
    ("episodic", "unary", "subj_inject_cols"),
    ("semantic", "binary", "subj_inject_cols"),
    ("semantic", "binary", "pred_cols"),
    ("perception", "binary", "obj_inject_cols"),
    ("perception", "unary", "inst_cols"),
    ("episodic", "unary", "inst_cols"),
])
def test_a_batch_without_the_columns_its_schedule_reads_is_refused(mode, arity, missing):
    """Each step that commits its batch column or trains a head reads that
    column field; a batch without it is refused, naming the field, before
    `forward` runs."""
    v = small_vocab()
    _, cmap = small_params(v)
    batch = _batch(cmap, mode, arity)
    with pytest.raises(GraphError, match=f"{mode} {arity} batches need {missing}"):
        dataclasses.replace(batch, **{missing: None})


def test_a_semantic_batch_needs_no_instance_columns():
    v = small_vocab()
    params, cmap = small_params(v)
    forward(params, cmap, dataclasses.replace(_batch(cmap, "semantic", "binary"), inst_cols=None))
