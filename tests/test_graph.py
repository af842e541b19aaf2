"""The teacher-forced graph's step loop: how a non-finite forward names the
node it first appears at."""
from __future__ import annotations

import re

import numpy as np
import pytest

from bilayer.graph import Batch, forward
from bilayer.network import NumericsError
from bilayer.world import substream

from util import small_params, small_vocab


def _batch(cmap, mode: str, arity: str, b: int = 3) -> Batch:
    rng = substream(0, "nan", mode, arity)

    def draw(cols):
        return cols[rng.integers(0, cols.size, size=b)]

    fields: dict = {"subj_inject_cols": draw(cmap.entity_cols)}
    if mode != "semantic":
        fields["inst_cols"] = draw(cmap.instance_cols)
    if arity == "unary":
        fields["fam_rows"] = {"Species": np.arange(b)}
        fields["fam_target_cols"] = {"Species": draw(cmap.family_cols["Species"])}
    else:
        fields["obj_inject_cols"] = draw(cmap.entity_cols)
        fields["pred_cols"] = draw(cmap.predicate_cols)
    if mode == "perception":
        boxes = ["feat_scene", "feat_subj"]
        if arity == "binary":
            boxes += ["feat_obj", "feat_pred"]
        fields.update({box: rng.standard_normal((b, 6)) for box in boxes})
    return Batch(mode=mode, arity=arity, **fields)


@pytest.mark.parametrize("block, mode, arity, dropout, node", [
    ("ctx_rec", "episodic", "binary", 0.0, "subject.sh"),
    ("ctx_rec", "episodic", "unary", 0.3, "subject.sh_raw"),
    ("ctx_in", "semantic", "unary", 0.0, "subject.zm"),
    ("ctx_out", "semantic", "binary", 0.0, "subject.z_tilde"),
    ("enc_w", "perception", "unary", 0.0, "instance.z_tilde"),
])
def test_non_finite_forward_names_the_first_bad_node(block, mode, arity, dropout, node):
    v = small_vocab()
    params, cmap = small_params(v, seed=3)
    getattr(params, block)[0, 0] = np.nan
    drop_rng = substream(0, "drop") if dropout else None
    with pytest.raises(NumericsError, match=re.escape(f"graph node '{node}'")):
        forward(params, cmap, _batch(cmap, mode, arity), dropout, drop_rng)


def test_non_finite_scores_alone_name_the_loss():
    # an untied readout reaches only the heads' scores, no cached state
    v = small_vocab()
    params, cmap = small_params(v, seed=3, tied=False)
    params.emb_up[:, cmap.concept_cols] = np.nan
    with pytest.raises(NumericsError, match="non-finite loss"):
        forward(params, cmap, _batch(cmap, "episodic", "unary"))
