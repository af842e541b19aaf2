"""Activations, context recurrence, attention, decoding schedules, fusion sampling.

The decode invariants under test: every distribution head normalizes, the
softmax keeps the argmax, winner-take-all is the argmax with ties low and no
draw, a sampled pick is an inverse-CDF draw on one uniform per row that
follows the softmax and agrees with `Generator.choice` on the same uniforms,
semantic recall never touches real instance columns, sampled ids stay inside
their declared index sets, a batched walk agrees with single passes and with
the float64 reference walk in `util`, and the committed ids and labels of
every run-path request kind stay pinned.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilayer import network
from bilayer.network import (
    DecodeRequest,
    NetworkError,
    NumericsError,
    SceneInput,
    attention_update,
    context_out,
    context_step,
    decode,
    decode_chunked,
    decode_many,
    encode_input,
    fused_stream,
    index_scores,
    initial_context,
    sigmoid,
    _draw,
    _pick,
    _pick_labels,
    _softmax_rows,
)
from bilayer.params import ParamError
from bilayer.training import consolidate
from bilayer.vocab import IDENTITY_FAMILY
from bilayer.world import substream

from util import (
    INTERLEAVED,
    group_cols,
    reference_decode,
    reference_draw,
    reference_pick_labels,
    small_params,
    small_vocab,
    two_division_sigmoid,
)


def _sig(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def _two_exp_sigmoid(x):
    """Reference logistic: 1/(1+exp(-x)) on x >= 0 and exp(x)/(1+exp(x))
    below, each branch computed over the whole array."""
    x = np.asarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        pos = 1.0 / (1.0 + np.exp(-x))
        ex = np.exp(x)
        neg = ex / (1.0 + ex)
    return np.where(x >= 0, pos, neg)


class TestActivations:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_two_exp_reference_bitwise(self, dtype):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 100.0, -100.0,
                   104.0, -104.0, 745.0, -745.0, 1e30, -1e30, 88.7, -88.7]
        x = np.concatenate([
            np.array(special),
            np.random.default_rng(0).standard_normal(4000) * 40.0,
        ]).astype(dtype)
        for arr in (x, x.reshape(16, -1)[:, ::2], x[5]):
            got, want = sigmoid(arr), _two_exp_sigmoid(arr)
            assert got.dtype == want.dtype == dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_two_division_oracle_bitwise(self, dtype):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 100.5, -100.5, 150.0, -150.0,
                   1e4, -1e4, 745.5, -745.5]
        grid = np.concatenate([np.array(special), np.linspace(-120.0, 120.0, 4801)]).astype(dtype)
        for arr in (grid, grid.reshape(5, -1)[:, ::3], grid[1], grid[4]):
            got, want = sigmoid(arr), two_division_sigmoid(arr)
            assert isinstance(got, np.ndarray)
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_sigmoid_needs_no_errstate_guard(self):
        # underflow to 0 is the intended saturation; nothing may overflow
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e30, -1e30], dtype=np.float32)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            sigmoid(x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_leaves_its_input_and_keeps_0d(self, dtype):
        """The temporaries are worked in place, never the input; a 0-d input
        gives a 0-d array of the oracle's bytes."""
        x = np.linspace(-50.0, 50.0, 42).astype(dtype)
        x[[3, 7]] = np.nan, -np.inf
        before = x.tobytes()
        for arr in (x, x[::3], x.reshape(6, 7)[:, 1:5], x[9]):
            sigmoid(arr)
        assert x.tobytes() == before
        for value in (0.0, -3.5, 80.0, np.nan):
            arr = np.array(value, dtype=dtype)
            out = sigmoid(arr)
            assert isinstance(out, np.ndarray) and out.shape == () and out.dtype == dtype
            assert out.tobytes() == two_division_sigmoid(arr).tobytes()
            assert arr.tobytes() == np.array(value, dtype=dtype).tobytes()

    def test_sigmoid_hand_values(self):
        assert sigmoid(np.array(0.0)) == 0.5
        np.testing.assert_allclose(sigmoid(np.array([1.0, -1.0])), _sig([1.0, -1.0]), rtol=1e-12)

    def test_sigmoid_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-15)

    def test_softmax_hand_values(self):
        scores = np.array([0.0, 1.0, 2.0])
        e = [math.exp(v) for v in (0.0, 1.0, 2.0)]
        want = np.array([v / sum(e) for v in e])
        np.testing.assert_allclose(_softmax_rows(scores), want, rtol=1e-12)

    def test_pick_needs_index_units(self):
        for winner_take_all in (False, True):
            with pytest.raises(NetworkError, match="no index units"):
                _pick(np.zeros((2, 0)), winner_take_all, substream(0, "m"))

    @given(
        scores=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=8
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_softmax_keeps_the_argmax(self, scores):
        arr = np.array(scores)
        order = np.sort(arr)
        if arr.size > 1 and order[-1] - order[-2] < 1e-6:
            return  # tie: argmax not well defined
        assert int(np.argmax(_softmax_rows(arr))) == int(np.argmax(arr))

    @given(
        scores=st.lists(
            st.floats(min_value=-200, max_value=200, allow_nan=False), min_size=1, max_size=16
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_softmax_normalizes(self, scores):
        out = _softmax_rows(np.array(scores))
        assert abs(out.sum() - 1.0) < 1e-9
        assert np.all(out >= 0)

    def test_pick_winner_take_all_is_argmax_without_a_draw(self):
        scores = np.array([[0.0, 4.0, 1.0], [3.0, 3.0, 0.0]])  # the second row ties low
        for seed in range(5):
            rng = substream(seed, "s")
            state = rng.bit_generator.state
            assert _pick(scores, True, rng).tolist() == [1, 0]
            assert rng.bit_generator.state == state

    def test_pick_frequencies(self):
        scores = np.tile([0.0, math.log(3.0)], (4000, 1))  # probs 0.25 / 0.75
        hits = int(_pick(scores, False, substream(11, "freq")).sum())
        n = len(scores)
        sd = math.sqrt(n * 0.75 * 0.25)
        assert abs(hits - 0.75 * n) <= 3 * sd

    def test_softmax_rows_match_one_row_calls(self):
        scores = substream(2, "rows").standard_normal((5, 7)) * 4.0
        out = _softmax_rows(scores)
        for row, want in zip(scores, out):
            np.testing.assert_array_equal(_softmax_rows(row), want)

    def test_softmax_is_shift_invariant_and_overflow_free(self):
        scores = np.array([[0.0, 1.0, 2.0], [1000.0, 1001.0, 1002.0], [-1e4, -1e4 + 1, -1e4 + 2]])
        out = _softmax_rows(scores)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], out[0], rtol=1e-12)
        np.testing.assert_allclose(out[2], out[0], rtol=1e-12)

    def test_pick_draws_rows_in_order(self):
        scores = substream(4, "order").standard_normal((6, 5))
        batch = _pick(scores, False, substream(8, "p"))
        rng = substream(8, "p")
        assert batch.tolist() == [int(_pick(row[None], False, rng)[0]) for row in scores]

    def test_pick_from_one_column_is_always_it(self):
        scores = substream(5, "one").standard_normal((20, 1))
        for winner_take_all in (False, True):
            assert _pick(scores, winner_take_all, substream(0, "c")).tolist() == [0] * 20


def _choice_draws(scores: np.ndarray, rng: np.random.Generator) -> list[int]:
    """The reference sampler: one `Generator.choice(n, p=softmax)` per row,
    rows in order, one uniform each."""
    return [int(rng.choice(p.size, p=p)) for p in _softmax_rows(scores)]


class TestSampler:
    """The inverse-CDF draw behind every sampled pick: one uniform per row
    (per family and row for labels), the row's softmax as its law, and
    `choice`'s draws on the same uniforms."""

    @pytest.mark.parametrize("kind, draws_per_row", [
        ("semantic-sampled", 3), ("episodic-sampled-clamped", 2), ("perceive-binary", 3),
        ("perceive-unary", 1), ("semantic-wta", 0),
    ])
    def test_a_pass_takes_one_uniform_per_row_and_pick(self, kind, draws_per_row):
        """Each free pick (subject, object, predicate; an attention mixture
        and a clamp draw nothing) and each label family takes exactly one
        `random()` per row; winner-take-all takes none."""
        v = small_vocab()
        params, cmap = small_params(v, seed=64, dtype="float64")
        requests = _run_path_requests(v)[kind]
        n_families = 0 if requests[0].winner_take_all else len(cmap.families)
        rng = substream(0, "advance", kind)
        decode_many(params, cmap, v, requests, rng)
        fresh = substream(0, "advance", kind)
        fresh.random(len(requests) * (draws_per_row + n_families))
        assert rng.bit_generator.state == fresh.bit_generator.state

    def test_draws_follow_the_softmax(self):
        row = np.array([0.0, 1.5, -2.0, 0.3, 2.2, -0.7, 1.0, -4.0])
        n = 20_000
        counts = np.bincount(_pick(np.tile(row, (n, 1)), False, substream(3, "chi2")),
                             minlength=row.size)
        expected = n * _softmax_rows(row)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 24.32  # the 0.999 quantile of chi-square with 7 degrees of freedom

    def test_masked_and_underflowed_positions_are_never_drawn(self):
        ninf = -np.inf
        row = np.array([ninf, -800.0, 0.0, ninf, -1e4, 1.0, -900.0, ninf])
        drawable = {2, 5}
        picks = _pick(np.tile(row, (20_000, 1)), False, substream(4, "mask"))
        assert set(picks.tolist()) == drawable
        # the extreme uniforms: 0 and the largest double below 1
        edges = np.array([0.0, np.nextafter(1.0, 0.0)])
        assert _draw(np.tile(row, (2, 1)), edges).tolist() == [2, 5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(60, 9), (3, 40, 9)], ids=["rows", "families-rows"])
    def test_draw_equals_the_float64_reference(self, dtype, shape):
        """2-D (row, column) and 3-D (family, row, column) blocks holding -inf
        entries draw what a plain float64 inverse-CDF walk of each row draws,
        and the block is not written."""
        rng = substream(12, "draw", len(shape))
        scores = (rng.standard_normal(shape) * 4.0).astype(dtype)
        scores[rng.random(shape) < 0.3] = -np.inf
        scores[..., 4] = rng.standard_normal(shape[:-1])  # every row keeps a finite score
        u = rng.random(shape[:-1])
        u.flat[:2] = 0.0, np.nextafter(1.0, 0.0)
        before = scores.tobytes()
        got = _draw(scores, u)
        assert got.shape == shape[:-1]
        np.testing.assert_array_equal(got, reference_draw(scores, u))
        assert scores.tobytes() == before

    @pytest.mark.parametrize("families", [None, INTERLEAVED], ids=["contiguous", "interleaved"])
    @pytest.mark.parametrize("growth", ["entity", "consolidated-instance"])
    def test_the_label_plan_follows_growth(self, growth, families):
        """The map that growth returns carries its own label plan: its picks
        equal the per-call derivation's, and winner-take-all picks a grown
        Identity column where it scores highest."""
        v = small_vocab(families=families)
        params, cmap = small_params(v, seed=13)
        if growth == "entity":
            v.add_entity("e_new")
            cmap = params.grow(v, substream(13, "grow"))
        else:
            params, cmap, _ = consolidate(params, cmap, v, v.id_of("t1"))
        scores = substream(13, "scores").standard_normal((30, group_cols(cmap, "concept").size))
        scores = scores.astype(np.float32)
        for winner_take_all in (True, False):
            got = _pick_labels(cmap, scores, winner_take_all, substream(13, "u"))
            assert got == reference_pick_labels(cmap, scores, winner_take_all, substream(13, "u"))
        newest = cmap.family_cols[IDENTITY_FAMILY][-1]
        scores[:, newest] = scores.max() + 1.0
        picked = {labels[IDENTITY_FAMILY] for labels in _pick_labels(cmap, scores, True, None)}
        assert picked == {int(cmap.ids[newest])}
        if growth == "entity":
            assert picked == {v.id_of("e_new")}

    def test_draws_equal_choice_away_from_cdf_boundaries(self):
        rng = substream(6, "scores")
        scores = rng.standard_normal((4000, 9)) * 3.0
        got = _pick(scores, False, substream(6, "u")).tolist()
        want = _choice_draws(scores, substream(6, "u"))
        u = substream(6, "u").random(len(scores))
        cdf = np.cumsum(_softmax_rows(scores), axis=1)
        cdf /= cdf[:, -1:]
        clear = np.abs(cdf - u[:, None]).min(axis=1) > 1e-9
        assert clear.sum() > 0.99 * len(scores)
        assert [g for g, c in zip(got, clear) if c] == [w for w, c in zip(want, clear) if c]

    @pytest.mark.parametrize("families", [None, INTERLEAVED], ids=["contiguous", "interleaved"])
    def test_labels_are_per_family_picks(self, families):
        """One masked block per head gives what a pick from each family's own
        block gives: the argmax with ties low under winner-take-all, and the
        same inverse-CDF draw on that family's row of the uniforms, drawn
        family-major in name order, when sampling."""
        v = small_vocab(families=families)
        _, cmap = small_params(v)
        rng = substream(7, "labels")
        n = 50
        # integer scores, so every row has ties
        scores = rng.integers(-2, 3, size=(n, group_cols(cmap, "concept").size)).astype(np.float32)
        before = rng.bit_generator.state
        wta = _pick_labels(cmap, scores, True, rng)
        assert rng.bit_generator.state == before
        u = substream(7, "u").random((len(cmap.families), n))
        sampled = _pick_labels(cmap, scores, False, substream(7, "u"))
        for k, fam in enumerate(cmap.families):
            cols = cmap.family_cols[fam]
            block = scores[:, cols]
            assert [labels[fam] for labels in wta] == cmap.ids[cols[block.argmax(axis=1)]].tolist()
            want = cmap.ids[cols[_draw(block, u[k])]].tolist()
            assert [labels[fam] for labels in sampled] == want


class TestContextAndEncoding:
    def test_context_step_formula(self):
        # squashed context and representation in; the squashed mix and the
        # next squashed context out
        v = small_vocab()
        params, _ = small_params(v, seed=2)
        sh = _sig(np.linspace(-1, 1, 4)).astype(np.float32)
        z = _sig(np.linspace(-2, 2, 8)).astype(np.float32)
        zm, sh_next = context_step(params, sh, z)
        want_zm = _sig(sh + params.ctx_in @ z)
        np.testing.assert_allclose(zm, want_zm, rtol=1e-5)
        np.testing.assert_allclose(sh_next, _sig(params.ctx_rec @ want_zm), rtol=1e-5)

    def test_context_out_formula(self):
        v = small_vocab()
        params, _ = small_params(v, seed=2)
        sh = _sig(np.linspace(-1, 1, 4)).astype(np.float32)
        np.testing.assert_allclose(context_out(params, sh), params.ctx_out @ sh, rtol=1e-5)

    def test_initial_context_is_the_squashed_zero_context(self):
        v = small_vocab()
        params, _ = small_params(v)
        sh = initial_context(params)
        assert sh.dtype == params.emb.dtype
        np.testing.assert_array_equal(sh, np.full(params.config.ctx_dim, 0.5))

    def test_encode_input_affine(self):
        v = small_vocab()
        params, _ = small_params(v, seed=4)
        feat = np.linspace(0, 1, 6).astype(np.float32)
        np.testing.assert_allclose(
            encode_input(params, feat), params.enc_w @ feat + params.enc_b, rtol=1e-6
        )

    def test_encode_input_rejects_bad_shape(self):
        v = small_vocab()
        params, _ = small_params(v)
        with pytest.raises(NetworkError, match="shape"):
            encode_input(params, np.zeros(7))


class TestAttention:
    def test_singleton_support_is_plain_commit(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=5)
        rep = np.linspace(-1, 1, 8).astype(np.float32)
        cols = group_cols(cmap, "instance")[:1]
        got = attention_update(params, rep, index_scores(params, sigmoid(rep), cols), cols)
        np.testing.assert_allclose(got, rep + params.emb[:, cols[0]], atol=1e-7)

def _scene_features(seed: int, with_relation: bool = True) -> SceneInput:
    rng = substream(seed, "feat")
    boxes = rng.standard_normal((4, 6)).astype(np.float32)
    return SceneInput(
        scene=boxes[0],
        subject_box=boxes[1],
        object_box=boxes[2] if with_relation else None,
        predicate_box=boxes[3] if with_relation else None,
    )


class TestDecodeValidation:
    def test_unknown_mode(self):
        v = small_vocab()
        params, cmap = small_params(v)
        with pytest.raises(NetworkError, match="mode"):
            decode(params, cmap, v, DecodeRequest(mode="dreaming"), substream(0, "d"))

    def test_perception_needs_features(self):
        v = small_vocab()
        params, cmap = small_params(v)
        with pytest.raises(NetworkError, match="feature"):
            decode(params, cmap, v, DecodeRequest(mode="perception"), substream(0, "d"))

    def test_relation_boxes_come_together(self):
        v = small_vocab()
        params, cmap = small_params(v)
        feats = _scene_features(0)
        feats.predicate_box = None
        req = DecodeRequest(mode="perception", features=feats)
        with pytest.raises(NetworkError, match="together"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_memory_modes_forbid_features(self):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(mode="semantic", features=_scene_features(0))
        with pytest.raises(NetworkError, match="forbids"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_episodic_requires_instance(self):
        v = small_vocab()
        params, cmap = small_params(v)
        with pytest.raises(NetworkError, match="instance"):
            decode(params, cmap, v, DecodeRequest(mode="episodic"), substream(0, "d"))

    def test_direct_only_for_perception(self):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(mode="episodic", instance_id=v.id_of("t0"), direct=True)
        with pytest.raises(NetworkError, match="direct"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_instance_attention_only_in_perception(self):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(mode="episodic", instance_id=v.id_of("t0"), instance_attention=True)
        with pytest.raises(NetworkError, match="instance_attention"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_concept_attention_only_in_perception(self):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(mode="semantic", concept_attention=True)
        with pytest.raises(NetworkError, match="concept_attention"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_direct_decoding_takes_no_attention(self):
        v = small_vocab()
        params, cmap = small_params(v)
        for flag in ("instance_attention", "concept_attention"):
            req = DecodeRequest(mode="perception", features=_scene_features(0), direct=True,
                                **{flag: True})
            with pytest.raises(NetworkError, match=flag):
                decode(params, cmap, v, req, substream(0, "d"))

    def test_non_finite_inputs_raise(self):
        v = small_vocab()
        params, cmap = small_params(v)
        params.enc_w[0, 0] = np.nan
        req = DecodeRequest(mode="perception", features=_scene_features(1))
        with pytest.raises(NumericsError):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_non_finite_label_scores_raise(self):
        # the context holds the first two representation units at 0 before
        # the subject commits, so Dog's two largest-float entries add nothing
        # to the subject scores; committing the clamped Dog column saturates
        # both units, and only the label scores overflow
        v = small_vocab()
        params, cmap = small_params(v, dtype="float64")
        params.ctx_out[:2] = -1e3
        dog = v.id_of("Dog")
        params.emb[:2, cmap.col_of(dog)] = np.finfo(np.float64).max
        req = DecodeRequest(mode="semantic", subject_id=dog, winner_take_all=True)
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="label scores"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_non_finite_attention_scores_raise(self):
        v = small_vocab()
        params, cmap = small_params(v)
        params.emb[:, group_cols(cmap, "instance")[0]] = np.nan
        with pytest.raises(NumericsError, match="attention"):
            rep = np.zeros(8, dtype=np.float32)
            span = cmap.block["instance"]
            attention_update(params, rep, index_scores(params, sigmoid(rep), span), span)

    def test_semantic_rejects_instance_clamp(self):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(mode="semantic", instance_id=v.id_of("t0"))
        with pytest.raises(NetworkError, match="instance clamp"):
            decode(params, cmap, v, req, substream(0, "d"))

    @pytest.mark.parametrize("clamp, name", [
        ("instance_id", "t0"), ("subject_id", "e1"), ("object_id", "e2"),
    ])
    def test_direct_rejects_clamps(self, clamp, name):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(
            mode="perception", features=_scene_features(0), direct=True, **{clamp: v.id_of(name)}
        )
        with pytest.raises(NetworkError, match="clamps"):
            decode(params, cmap, v, req, substream(0, "d"))

    @pytest.mark.parametrize("field", ["subject_support", "object_support"])
    def test_unknown_support(self, field):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(mode="semantic", **{field: "entity"})
        with pytest.raises(NetworkError, match="support"):
            decode(params, cmap, v, req, substream(0, "d"))

    def test_object_clamp_needs_a_binary_pass(self):
        v = small_vocab()
        params, cmap = small_params(v)
        req = DecodeRequest(
            mode="perception", features=_scene_features(0, with_relation=False),
            object_id=v.id_of("e1"),
        )
        with pytest.raises(NetworkError, match="object clamp"):
            decode(params, cmap, v, req, substream(0, "d"))

    @pytest.mark.parametrize("mode, clamp, name, kind", [
        ("episodic", "instance_id", "e0", "entity"),
        ("episodic", "instance_id", "Dog", "class"),
        ("perception", "instance_id", "near", "predicate"),
        ("semantic", "subject_id", "t1", "instance"),
        ("semantic", "subject_id", "near", "predicate"),
        ("perception", "object_id", "t2", "instance"),
    ])
    def test_a_clamp_of_the_wrong_kind_is_refused(self, mode, clamp, name, kind):
        """An instance clamp names an instance, a subject or object clamp an
        entity, class or attribute: one of another kind is refused, whether it
        clamps the only request or the second of a batch."""
        v = small_vocab()
        params, cmap = small_params(v)
        feats = (lambda i: _scene_features(i)) if mode == "perception" else (lambda i: None)
        base = {"instance_id": v.id_of("t0")} if mode == "episodic" else {}
        good = DecodeRequest(mode=mode, features=feats(0), **base)
        bad = DecodeRequest(mode=mode, features=feats(1), **{**base, clamp: v.id_of(name)})
        want = "an instance" if clamp == "instance_id" else "an entity, class or attribute"
        message = f"the {clamp[:-3]} clamp '{name}' \\({kind}\\) is not {want}"
        for requests in ([bad], [good, bad]):
            with pytest.raises(NetworkError, match=message):
                decode_many(params, cmap, v, requests, substream(0, "d"))

    @pytest.mark.parametrize("mode, clamp", [
        ("episodic", "instance_id"), ("semantic", "subject_id"), ("perception", "object_id"),
    ])
    def test_a_clamp_outside_the_vocabulary_is_refused(self, mode, clamp):
        """A negative id does not wrap around to the last symbols' columns:
        an instance clamp of -1 would otherwise commit the last instance."""
        v = small_vocab()
        params, cmap = small_params(v)
        features = _scene_features(0) if mode == "perception" else None
        base = {"instance_id": v.id_of("t0")} if mode == "episodic" else {}
        for sid in (-1, -len(v), len(v)):
            req = DecodeRequest(mode=mode, features=features, **{**base, clamp: sid})
            with pytest.raises(ParamError, match="no embedding column"):
                decode(params, cmap, v, req, substream(0, "d"))

    @pytest.mark.parametrize("mode, clamp, name", [
        ("episodic", "instance_id", "t1"),
        ("semantic", "subject_id", "e2"),
        ("semantic", "subject_id", "Dog"),
        ("semantic", "subject_id", "Young"),
        ("perception", "object_id", "Cat"),
    ])
    def test_a_clamp_of_the_right_kind_is_committed(self, mode, clamp, name):
        v = small_vocab()
        params, cmap = small_params(v)
        features = _scene_features(0) if mode == "perception" else None
        base = {"instance_id": v.id_of("t0")} if mode == "episodic" else {}
        req = DecodeRequest(mode=mode, features=features, **{**base, clamp: v.id_of(name)})
        trace = decode(params, cmap, v, req, substream(0, "d"))
        assert getattr(trace, clamp) == v.id_of(name)

    def test_batch_shares_flags_and_arity(self):
        v = small_vocab()
        params, cmap = small_params(v)
        base = DecodeRequest(mode="perception", features=_scene_features(0))
        for other in (
            DecodeRequest(mode="perception", features=_scene_features(1), winner_take_all=True),
            DecodeRequest(mode="perception", features=_scene_features(1, with_relation=False)),
        ):
            with pytest.raises(NetworkError, match="share"):
                decode_many(params, cmap, v, [base, other], substream(0, "d"))

    # per shared field, a value that differs from the batch's first request,
    # and the refusal: a request that is sound on its own is refused for
    # differing, one that is not for its own fault, as a lone request is
    SHARED_CHANGES = {
        "mode": ("episodic", "episodic mode forbids feature inputs"),
        "winner_take_all": (True, "must share"),
        "instance_attention": (True, "must share"),
        "concept_attention": (True, "must share"),
        "direct": (True, "must share"),
        "subject_support": ("entities", "must share"),
        "object_support": ("bogus", "unknown object support 'bogus'"),
    }

    def test_the_shared_changes_cover_every_shared_field(self):
        assert sorted(self.SHARED_CHANGES) == sorted(network._SHARED)

    @pytest.mark.parametrize("field", sorted(SHARED_CHANGES))
    @pytest.mark.parametrize("at", [1, 2])
    def test_a_request_differing_in_one_shared_field_is_refused(self, field, at):
        v = small_vocab()
        params, cmap = small_params(v)
        value, message = self.SHARED_CHANGES[field]
        requests = [DecodeRequest(mode="perception", features=_scene_features(i)) for i in range(3)]
        requests[at] = dataclasses.replace(requests[at], **{field: value})
        with pytest.raises(NetworkError, match=message):
            decode_many(params, cmap, v, requests, substream(0, "d"))

    @pytest.mark.parametrize("shared, own, message", [
        (dict(mode="perception"), dict(features=None), "perception requires feature inputs"),
        (dict(mode="perception"), dict(features="half"), "come together"),
        (dict(mode="perception", direct=True), dict(features="scene", subject_id="e1"),
         "direct decoding takes no clamps"),
        (dict(mode="perception"), dict(features="unary", object_id="e1"), "an object clamp"),
        (dict(mode="episodic"), dict(features="scene"), "episodic mode forbids feature inputs"),
        (dict(mode="episodic"), dict(instance_id=None), "episodic mode requires an instance id"),
        (dict(mode="semantic"), dict(instance_id="t1"), "semantic mode takes no instance clamp"),
    ])
    def test_a_later_request_is_checked_in_its_own_fields(self, shared, own, message):
        """A batch checks its shared fields once, but every request's own
        fields: features, clamps and arity."""
        v = small_vocab()
        params, cmap = small_params(v)
        perceiving = shared["mode"] == "perception"
        good = DecodeRequest(**shared, features=_scene_features(0) if perceiving else None,
                             instance_id=v.id_of("t0") if shared["mode"] == "episodic" else None)
        feats = _scene_features(1)
        features = {None: None, "scene": feats,
                    "half": SceneInput(feats.scene, feats.subject_box, feats.object_box),
                    "unary": _scene_features(1, with_relation=False)}
        bad = {k: features[x] if k == "features" else (None if x is None else v.id_of(x))
               for k, x in own.items()}
        requests = [good, good, dataclasses.replace(good, **bad)]
        with pytest.raises(NetworkError, match=message):
            decode_many(params, cmap, v, requests, substream(0, "d"))


def _traces_equal(a, b) -> bool:
    if (a.instance_id, a.subject_id, a.object_id, a.predicate_id, a.labels) != (
        b.instance_id,
        b.subject_id,
        b.object_id,
        b.predicate_id,
        b.labels,
    ):
        return False
    if set(a.scores) != set(b.scores):
        return False
    return all(np.array_equal(a.scores[k], b.scores[k]) for k in a.scores)


class TestDecodeBehavior:
    def test_deterministic_given_seed(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=10)
        for mode, kwargs in [
            ("perception", {"features": _scene_features(3)}),
            ("episodic", {"instance_id": v.id_of("t1")}),
            ("semantic", {}),
        ]:
            req = DecodeRequest(mode=mode, **kwargs)
            t1 = decode(params, cmap, v, req, substream(42, "same"))
            t2 = decode(params, cmap, v, req, substream(42, "same"))
            assert _traces_equal(t1, t2)

    def test_winner_take_all_needs_no_rng(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=11)
        req = DecodeRequest(mode="episodic", instance_id=v.id_of("t0"), winner_take_all=True)
        traces = [decode(params, cmap, v, req, substream(s, "x")) for s in range(4)]
        assert all(_traces_equal(traces[0], t) for t in traces[1:])

    def test_semantic_never_reads_instance_columns(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=13)
        clean = decode(
            params, cmap, v, DecodeRequest(mode="semantic"), substream(5, "sem")
        )
        poisoned = params.copy()
        poisoned.emb[:, group_cols(cmap, "instance")] = np.nan  # any read would propagate
        dirty = decode(
            poisoned, cmap, v, DecodeRequest(mode="semantic"), substream(5, "sem")
        )
        assert _traces_equal(clean, dirty)

    def test_episodic_starts_from_clamped_instance(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=14)
        tid = v.id_of("t1")
        trace = decode(
            params,
            cmap,
            v,
            DecodeRequest(mode="episodic", instance_id=tid, winner_take_all=True),
            substream(0, "e"),
        )
        assert trace.instance_id == tid

    def test_subject_clamp_is_honored(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=15)
        sid = v.id_of("e2")
        trace = decode(
            params,
            cmap,
            v,
            DecodeRequest(mode="semantic", subject_id=sid, winner_take_all=True),
            substream(0, "s"),
        )
        assert trace.subject_id == sid

    def test_unary_perception_stops_after_labels(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=16)
        req = DecodeRequest(mode="perception", features=_scene_features(4, with_relation=False))
        trace = decode(params, cmap, v, req, substream(0, "u"))
        assert trace.object_id is None and trace.predicate_id is None
        assert "object" not in trace.scores and "predicate" not in trace.scores
        assert set(trace.labels) == set(v.families)

    def test_sampled_ids_respect_index_sets(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=17)
        entities = set(v.entities)
        concepts = set(v.entities) | set(v.classes) | set(v.attributes)
        instances = set(v.instances)
        predicates = set(v.binary_predicates)
        families = v.families
        for seed in range(30):
            mode = ("perception", "episodic", "semantic")[seed % 3]
            kwargs = {}
            if mode == "perception":
                kwargs["features"] = _scene_features(seed)
            if mode == "episodic":
                kwargs["instance_id"] = v.id_of(f"t{seed % 3}")
            support = "entities" if seed % 2 else "concepts"
            req = DecodeRequest(
                mode=mode, subject_support=support, object_support=support, **kwargs
            )
            trace = decode(params, cmap, v, req, substream(seed, "fuzz"))
            pool = entities if support == "entities" else concepts
            assert trace.subject_id in pool
            if trace.object_id is not None:
                assert trace.object_id in pool
            if trace.instance_id is not None:
                assert trace.instance_id in instances
            if trace.predicate_id is not None:
                assert trace.predicate_id in predicates
            for fam, label in trace.labels.items():
                assert label in families[fam]

    @pytest.mark.parametrize("mode", ["perception", "episodic", "semantic"])
    def test_one_label_per_family(self, mode):
        v = small_vocab()
        params, cmap = small_params(v, seed=18)
        kwargs = {"features": _scene_features(5)} if mode == "perception" else {}
        if mode == "episodic":
            kwargs["instance_id"] = v.id_of("t0")
        for seed in range(10):
            trace = decode(params, cmap, v, DecodeRequest(mode=mode, **kwargs),
                           substream(seed, "fams"))
            assert set(trace.labels) == set(v.families)
            assert all(trace.labels[f] in v.families[f] for f in v.families)

    def test_label_free_vocabulary_decodes_only_identity(self):
        v = small_vocab(classes=(), attributes=(), families={})
        params, cmap = small_params(v, seed=19)
        for seed in range(5):
            trace = decode(params, cmap, v, DecodeRequest(mode="semantic"), substream(seed, "id"))
            assert list(trace.labels) == ["Identity"]
            assert trace.labels["Identity"] in set(v.entities)

    def test_winner_take_all_labels_are_the_family_argmax(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=20)
        req = DecodeRequest(mode="episodic", instance_id=v.id_of("t2"), winner_take_all=True)
        trace = decode(params, cmap, v, req, substream(0, "wta"))
        for fam, cols in cmap.family_cols.items():
            best = cols[int(np.argmax(trace.scores["label"][cmap.family_cols[fam]]))]
            assert trace.labels[fam] == int(cmap.ids[best])

    def test_unary_and_binary_passes_share_subject_and_labels(self):
        """Labels are read before the object step, so the relation boxes
        cannot change them."""
        v = small_vocab()
        params, cmap = small_params(v, seed=21)
        feats = _scene_features(6)
        unary = SceneInput(scene=feats.scene, subject_box=feats.subject_box)
        a, b = (
            decode(params, cmap, v,
                   DecodeRequest(mode="perception", features=f, winner_take_all=True),
                   substream(0, "share"))
            for f in (unary, feats)
        )
        assert (a.instance_id, a.subject_id, a.labels) == (b.instance_id, b.subject_id, b.labels)
        np.testing.assert_array_equal(a.scores["label"], b.scores["label"])

    def test_direct_reads_only_encoded_boxes(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=18)
        feats = _scene_features(9)
        req = DecodeRequest(mode="perception", features=feats, direct=True, winner_take_all=True)
        trace = decode(params, cmap, v, req, substream(0, "d"))
        z = sigmoid(encode_input(params, feats.subject_box))
        want = index_scores(params, z, cmap.block["concept"])
        np.testing.assert_array_equal(trace.scores["subject"], want)
        # changing the scene box must not move the subject scores in direct mode
        feats2 = _scene_features(9)
        feats2.scene = feats2.scene + 5.0
        req2 = DecodeRequest(mode="perception", features=feats2, direct=True, winner_take_all=True)
        trace2 = decode(params, cmap, v, req2, substream(0, "d"))
        np.testing.assert_array_equal(trace2.scores["subject"], trace.scores["subject"])

    def test_without_instance_columns_only_a_direct_pass_decodes(self):
        """A direct pass only picks the instance, so with no instance columns
        it records none; a recurrent perception pass must commit one."""
        v = small_vocab(n_instances=0)
        params, cmap = small_params(v, seed=22)
        feats = _scene_features(7)
        direct = DecodeRequest(mode="perception", features=feats, direct=True)
        trace = decode(params, cmap, v, direct, substream(0, "d"))
        assert trace.instance_id is None and trace.subject_id is not None
        with pytest.raises(NetworkError, match="no index units"):
            decode(params, cmap, v, DecodeRequest(mode="perception", features=feats),
                   substream(0, "d"))

    def test_attention_flags_skip_hard_commits(self):
        v = small_vocab()
        params, cmap = small_params(v, seed=19)
        req = DecodeRequest(
            mode="perception",
            features=_scene_features(2),
            instance_attention=True,
            concept_attention=True,
            winner_take_all=True,
        )
        trace = decode(params, cmap, v, req, substream(0, "a"))
        assert trace.instance_id is None  # soft mixture, no committed id
        assert trace.subject_id is None and trace.object_id is None
        assert trace.predicate_id is not None


_VARIANT_FLAGS = {
    "samp": dict(instance_attention=True, subject_support="entities", object_support="entities"),
    "sa": dict(instance_attention=True, concept_attention=True),
    "direct": dict(direct=True, subject_support="entities", object_support="entities"),
}


def _batch(v, mode: str, variant: str | None, binary: bool) -> list[DecodeRequest]:
    """Four winner-take-all requests of one kind; the clamps vary by row, so
    clamped and free rows share a batch."""
    ids = lambda *names: [None if n is None else v.id_of(n) for n in names]  # noqa: E731
    flags = dict(_VARIANT_FLAGS[variant]) if variant else {}
    if mode == "episodic":  # semantic keeps the default concept support
        flags.update(subject_support="entities", object_support="entities")
    rows = []
    for k in range(4):
        clamps = {}
        if mode == "perception" and variant != "direct":
            clamps["instance_id"] = ids(None, "t1", None, "t2")[k]
            clamps["subject_id"] = ids(None, None, "e2", None)[k]
            if binary:
                clamps["object_id"] = ids(None, "e3", None, "Dog")[k]
        elif mode == "episodic":
            clamps["instance_id"] = ids("t0", "t1", "t2", "t0")[k]
            clamps["subject_id"] = ids(None, "e1", None, None)[k]
            clamps["object_id"] = ids(None, None, "e0", None)[k]
        elif mode == "semantic":
            clamps["subject_id"] = ids(None, "e1", None, "Cat")[k]
            clamps["object_id"] = ids(None, None, "e3", None)[k]
        rows.append(DecodeRequest(
            mode=mode, winner_take_all=True,
            features=_scene_features(40 + k, with_relation=binary) if mode == "perception" else None,
            **clamps, **flags,
        ))
    return rows


_CASES = [
    ("perception", variant, binary)
    for variant in ("samp", "sa", "direct") for binary in (False, True)
] + [("episodic", None, True), ("semantic", None, True)]


def _trace_ids(trace):
    return (trace.instance_id, trace.subject_id, trace.object_id, trace.predicate_id)


class TestReferenceWalk:
    @pytest.mark.parametrize("dtype, rtol", [("float64", 1e-10), ("float32", 1e-4)])
    @pytest.mark.parametrize("mode, variant, binary", _CASES)
    def test_decode_and_decode_many_match_the_reference(self, mode, variant, binary, dtype, rtol):
        v = small_vocab()
        params, cmap = small_params(v, seed=50, dtype=dtype)
        requests = _batch(v, mode, variant, binary)
        batch = decode_many(params, cmap, v, requests, substream(0, "ref"))
        for request, trace in zip(requests, batch):
            single = decode(params, cmap, v, request, substream(0, "ref"))
            ref = reference_decode(params, v, request)
            want = tuple(ref["ids"].get(k) for k in ("instance", "subject", "object", "predicate"))
            for got in (trace, single):
                assert _trace_ids(got) == want
                assert got.labels == ref["labels"]
                assert set(got.scores) == set(ref["scores"])
                for key, scores in ref["scores"].items():
                    np.testing.assert_allclose(got.scores[key], scores, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("mode, variant, binary", _CASES)
    def test_batch_equals_single_passes(self, mode, variant, binary):
        v = small_vocab()
        params, cmap = small_params(v, seed=51)
        requests = _batch(v, mode, variant, binary)
        batch = decode_many(params, cmap, v, requests, substream(0, "b"))
        assert len(batch) == len(requests)
        for request, got in zip(requests, batch):
            want = decode(params, cmap, v, request, substream(0, "b"))
            assert _trace_ids(got) == _trace_ids(want)
            assert got.labels == want.labels
            assert set(got.scores) == set(want.scores)
            for key in want.scores:
                np.testing.assert_allclose(got.scores[key], want.scores[key], rtol=1e-5, atol=1e-6)

    def test_trained_perception_batch_matches_the_reference(self, tiny_model, tiny_world):
        params, cmap, _ = tiny_model
        v = tiny_world.vocab
        requests = [
            DecodeRequest(
                mode="perception", winner_take_all=True,
                features=SceneInput(*tiny_world.features_of([scene.scene_key, scene.bb_key(m)])),
                **_VARIANT_FLAGS["samp"],
            )
            for scene in tiny_world.scenes_of_kind("ex_test") for m in scene.members
        ]
        traces = decode_many(params, cmap, v, requests, substream(0, "t"))
        for request, trace in zip(requests, traces):
            ref = reference_decode(params, v, request)
            assert trace.subject_id == ref["ids"]["subject"]
            assert trace.labels == ref["labels"]
            np.testing.assert_allclose(
                trace.scores["label"], ref["scores"]["label"], rtol=1e-4, atol=1e-4
            )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("kind", ["perception", "attention", "episodic", "semantic"])
    def test_a_mixed_batch_equals_one_by_one(self, kind, dtype):
        """Clamped and free rows in one winner-take-all batch: each row gets
        the ids and labels of its own pass, and the score bytes of its row in
        a batch of copies of its request.  (A one-row pass's matrix products
        may round differently from a batch's in the last bit, so its scores
        are only close.)"""
        v = small_vocab(n_entities=6)
        params, cmap = small_params(v, seed=52, dtype=dtype)
        requests = _mixed_batch(v, kind)
        batch = decode_many(params, cmap, v, requests, substream(0, "m"))
        for i, (request, got) in enumerate(zip(requests, batch)):
            want = decode(params, cmap, v, request, substream(0, "m"))
            copies = decode_many(params, cmap, v, [request] * len(requests), substream(0, "m"))
            assert _trace_ids(got) == _trace_ids(want) == _trace_ids(copies[i])
            assert got.labels == want.labels and got.scores.keys() == want.scores.keys()
            for key in want.scores:
                assert got.scores[key].tobytes() == copies[i].scores[key].tobytes(), key
                np.testing.assert_allclose(got.scores[key], want.scores[key], rtol=1e-5, atol=1e-6)
        free = {t.subject_id for r, t in zip(requests, batch) if r.subject_id is None}
        # a free subject commits its pick, or under attention the mixture, no
        # id; perception's free rows pick apart, so a row mix-up shows
        assert (free == {None}) == (kind == "attention")
        assert len(free) > 2 or kind != "perception"

    @pytest.mark.parametrize("kind, clamp, name", [
        ("perception", "instance_id", "Dog"), ("perception", "object_id", "t0"),
        ("semantic", "subject_id", "near"), ("episodic", "object_id", "t2"),
    ])
    def test_a_wrong_clamp_in_a_mixed_batch_is_refused(self, kind, clamp, name):
        """A clamp of the wrong kind among clamped and free rows is refused
        with the message it gets as a lone request."""
        v = small_vocab(n_entities=6)
        params, cmap = small_params(v)
        requests = _mixed_batch(v, kind)
        bad = dataclasses.replace(requests[0], **{clamp: v.id_of(name)})
        with pytest.raises(NetworkError) as lone:
            decode(params, cmap, v, bad, substream(0, "m"))
        assert "is not" in str(lone.value)
        requests.insert(2, bad)
        with pytest.raises(NetworkError) as batched:
            decode_many(params, cmap, v, requests, substream(0, "m"))
        assert str(batched.value) == str(lone.value)

    def test_empty_batch(self):
        v = small_vocab()
        params, cmap = small_params(v)
        assert decode_many(params, cmap, v, [], substream(0, "e")) == []


def _mixed_batch(v, kind: str) -> list[DecodeRequest]:
    """Winner-take-all binary requests of one kind, free rows between
    clamped ones: perception (`attention`: with both attention flags),
    episodic or semantic recall."""
    ids = v.id_of
    clamps = [{"subject_id": ids("e0"), "object_id": ids("Young")}, {},
              {"subject_id": ids("e2"), "object_id": ids("e1")}, {"subject_id": ids("Dog")},
              {"object_id": ids("e3")}, {}, {}, {"subject_id": ids("e5")}, {}]
    if kind == "episodic":
        return [DecodeRequest(mode=kind, winner_take_all=True, instance_id=ids(f"t{k % 3}"), **c)
                for k, c in enumerate(clamps)]
    if kind == "semantic":
        return [DecodeRequest(mode=kind, winner_take_all=True, **c) for c in clamps]
    clamps[6] = {"instance_id": ids("t1")}
    flags = dict(instance_attention=True, concept_attention=True) if kind == "attention" else {}
    return [DecodeRequest(mode="perception", winner_take_all=True, features=_scene_features(60 + k),
                          **flags, **c) for k, c in enumerate(clamps)]


def _run_path_requests(v) -> dict[str, list[DecodeRequest]]:
    """Three requests of every kind a run path makes: the eval variants
    (winner-take-all), `bilayer decode` perceive (sampled, instance
    attention), episodic and semantic recall (sampled and winner-take-all,
    free or with a subject clamp) and SSL's clamped recognition, labeling
    and relation passes."""
    ids = v.id_of
    ent = dict(subject_support="entities", object_support="entities")
    out = {}
    for variant, flags in _VARIANT_FLAGS.items():
        for arity in ("unary", "binary"):
            out[f"eval-{variant}-{arity}"] = [
                DecodeRequest(mode="perception", winner_take_all=True,
                              features=_scene_features(10 + k, arity == "binary"), **flags)
                for k in range(3)]
    for arity in ("unary", "binary"):
        out[f"perceive-{arity}"] = [
            DecodeRequest(mode="perception", instance_attention=True,
                          features=_scene_features(20 + k, arity == "binary"), **ent)
            for k in range(3)]
    for tag, wta in (("sampled", False), ("wta", True)):
        out[f"episodic-{tag}"] = [
            DecodeRequest(mode="episodic", instance_id=ids(f"t{k}"), winner_take_all=wta, **ent)
            for k in range(3)]
        out[f"episodic-{tag}-clamped"] = [
            DecodeRequest(mode="episodic", instance_id=ids(f"t{k}"), subject_id=ids("e1"),
                          winner_take_all=wta, **ent) for k in range(3)]
        out[f"semantic-{tag}"] = [
            DecodeRequest(mode="semantic", winner_take_all=wta, **ent) for _ in range(3)]
        out[f"semantic-{tag}-clamped"] = [
            DecodeRequest(mode="semantic", subject_id=ids(s), winner_take_all=wta, **ent)
            for s in ("e0", "e2", "e3")]
    ssl = dict(mode="perception", winner_take_all=True, subject_support="entities")
    out["ssl-recognize"] = [
        DecodeRequest(features=_scene_features(30 + k, False), instance_id=ids(f"t{k}"), **ssl)
        for k in range(3)]
    out["ssl-label"] = [
        DecodeRequest(features=_scene_features(30 + k, False), instance_id=ids(f"t{k}"),
                      subject_id=ids(f"e{k}"), **ssl) for k in range(3)]
    out["ssl-relate"] = [
        DecodeRequest(features=_scene_features(40 + k, True), instance_id=ids(f"t{k}"),
                      subject_id=ids(f"e{k}"), object_id=ids(f"e{k + 1}"), **ssl)
        for k in range(3)]
    return out


# per request kind, the ids and labels each of its three requests commits:
# t, s, o, p (when recorded), then every family's label
PINNED = {
    "eval-samp-unary": [
        "s=e1 Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "s=e0 Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "s=e0 Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
    "eval-samp-binary": [
        "s=e1 o=e0 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "s=e0 o=e1 p=near Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "s=e0 o=e0 p=near Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
    "eval-sa-unary": [
        "Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
    "eval-sa-binary": [
        "p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "p=near Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "p=near Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
    "eval-direct-unary": [
        "t=t0 s=e0 Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "t=t0 s=e0 Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "t=t0 s=e0 Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
    "eval-direct-binary": [
        "t=t0 s=e0 o=e0 p=near Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "t=t0 s=e0 o=e1 p=near Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "t=t0 s=e0 o=e0 p=near Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
    "perceive-unary": [
        "s=e1 Age=Young Identity=e1 Rank=Mammal Species=Dog",
        "s=e1 Age=Old Identity=e0 Rank=Mammal Species=Dog",
        "s=e0 Age=Old Identity=e3 Rank=Mammal Species=Dog",
    ],
    "perceive-binary": [
        "s=e1 o=e0 p=near Age=Young Identity=e0 Rank=Mammal Species=Dog",
        "s=e3 o=e2 p=near Age=Young Identity=e1 Rank=Mammal Species=Dog",
        "s=e3 o=e1 p=near Age=Young Identity=e1 Rank=Mammal Species=Cat",
    ],
    "episodic-sampled": [
        "t=t0 s=e3 o=e3 p=chases Age=Old Identity=e0 Rank=Mammal Species=Dog",
        "t=t1 s=e3 o=e0 p=chases Age=Old Identity=e1 Rank=Mammal Species=Cat",
        "t=t2 s=e0 o=e2 p=near Age=Old Identity=e3 Rank=Mammal Species=Dog",
    ],
    "episodic-sampled-clamped": [
        "t=t0 s=e1 o=e2 p=near Age=Young Identity=e0 Rank=Mammal Species=Dog",
        "t=t1 s=e1 o=e1 p=near Age=Young Identity=e1 Rank=Mammal Species=Dog",
        "t=t2 s=e1 o=e0 p=near Age=Young Identity=e1 Rank=Mammal Species=Cat",
    ],
    "semantic-sampled": [
        "s=e1 o=e0 p=near Age=Old Identity=e2 Rank=Mammal Species=Cat",
        "s=e3 o=e1 p=near Age=Young Identity=e0 Rank=Mammal Species=Cat",
        "s=e1 o=e1 p=near Age=Old Identity=e0 Rank=Mammal Species=Dog",
    ],
    "semantic-sampled-clamped": [
        "s=e0 o=e0 p=near Age=Young Identity=e0 Rank=Mammal Species=Dog",
        "s=e2 o=e1 p=near Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "s=e3 o=e1 p=near Age=Old Identity=e3 Rank=Mammal Species=Dog",
    ],
    "episodic-wta": [
        "t=t0 s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t1 s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t2 s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
    ],
    "episodic-wta-clamped": [
        "t=t0 s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t1 s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t2 s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
    ],
    "semantic-wta": [
        "s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "s=e1 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
    ],
    "semantic-wta-clamped": [
        "s=e0 o=e1 p=near Age=Old Identity=e0 Rank=Mammal Species=Dog",
        "s=e2 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "s=e3 o=e1 p=near Age=Old Identity=e0 Rank=Mammal Species=Dog",
    ],
    "ssl-recognize": [
        "t=t0 s=e1 Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t1 s=e0 Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "t=t2 s=e1 Age=Young Identity=e1 Rank=Mammal Species=Dog",
    ],
    "ssl-label": [
        "t=t0 s=e0 Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t1 s=e1 Age=Old Identity=e0 Rank=Mammal Species=Cat",
        "t=t2 s=e2 Age=Old Identity=e1 Rank=Mammal Species=Dog",
    ],
    "ssl-relate": [
        "t=t0 s=e0 o=e1 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t1 s=e1 o=e2 p=near Age=Old Identity=e1 Rank=Mammal Species=Dog",
        "t=t2 s=e2 o=e3 p=near Age=Young Identity=e0 Rank=Mammal Species=Cat",
    ],
}


class TestPinnedDraws:
    def test_run_path_requests_commit_the_pinned_ids(self):
        """A change in the walk or in the order picks draw from the
        generator changes these values.  A deliberate one re-pins them and
        is declared."""
        v = small_vocab()
        params, cmap = small_params(v, seed=64, dtype="float64")
        name = v.name_of
        got = {}
        for kind, requests in _run_path_requests(v).items():
            got[kind] = []
            for trace in decode_many(params, cmap, v, requests, substream(0, "pin", kind)):
                ids = zip("tsop", _trace_ids(trace))
                parts = [f"{k}={name(i)}" for k, i in ids if i is not None]
                parts += [f"{fam}={name(i)}" for fam, i in sorted(trace.labels.items())]
                got[kind].append(" ".join(parts))
        assert got == PINNED


class TestDecodeChunked:
    @staticmethod
    def _requests(v, winner_take_all: bool) -> list[DecodeRequest]:
        subjects = [None, "e1", None, "Cat", None, None, "e2"]
        return [
            DecodeRequest(mode="semantic", winner_take_all=winner_take_all,
                          subject_id=None if s is None else v.id_of(s))
            for s in subjects
        ]

    @staticmethod
    def _calls(monkeypatch) -> list[int]:
        """Shrink the run length to 3 and record how many requests each
        decode_many call gets."""
        sizes: list[int] = []
        inner = network.decode_many

        def recording(params, cmap, vocab, requests, rng):
            sizes.append(len(requests))
            return inner(params, cmap, vocab, requests, rng)

        monkeypatch.setattr(network, "DECODE_CHUNK", 3)
        monkeypatch.setattr(network, "decode_many", recording)
        return sizes

    def test_sampled_runs_draw_run_by_run(self, monkeypatch):
        v = small_vocab()
        params, cmap = small_params(v, seed=52)
        requests = self._requests(v, winner_take_all=False)
        rng = substream(0, "runs")
        want = [t for k in (0, 3, 6) for t in decode_many(params, cmap, v, requests[k:k + 3], rng)]
        sizes = self._calls(monkeypatch)
        got = list(decode_chunked(params, cmap, v, requests, substream(0, "runs")))
        assert sizes == [3, 3, 1]
        assert [_trace_ids(t) for t in got] == [_trace_ids(t) for t in want]
        assert [t.labels for t in got] == [t.labels for t in want]

    def test_runs_are_decoded_as_the_traces_are_read(self, monkeypatch):
        v = small_vocab()
        params, cmap = small_params(v, seed=52)
        sizes = self._calls(monkeypatch)
        traces = decode_chunked(params, cmap, v, self._requests(v, True), substream(0, "lazy"))
        assert sizes == []
        next(traces)
        assert sizes == [3]

    def test_winner_take_all_matches_one_call(self, monkeypatch):
        v = small_vocab()
        params, cmap = small_params(v, seed=53, dtype="float64")
        requests = self._requests(v, winner_take_all=True)
        want = decode_many(params, cmap, v, requests, substream(0, "w"))
        self._calls(monkeypatch)
        got = list(decode_chunked(params, cmap, v, requests, substream(0, "w")))
        assert [_trace_ids(t) for t in got] == [_trace_ids(t) for t in want]
        assert [t.labels for t in got] == [t.labels for t in want]
        for a, b in zip(got, want):
            np.testing.assert_allclose(a.scores["label"], b.scores["label"], rtol=1e-12)

    def test_no_requests_make_no_calls(self, monkeypatch):
        v = small_vocab()
        params, cmap = small_params(v)
        sizes = self._calls(monkeypatch)
        assert list(decode_chunked(params, cmap, v, [], substream(0, "e"))) == []
        assert sizes == []


class TestFusedStream:
    def test_degenerate_weights_pin_the_source(self):
        sem = lambda rng: {"k": "s"}
        epi = lambda rng: {"k": "e"}
        only_epi = list(fused_stream(sem, epi, 0.0, 4.0, substream(0, "f"), 50))
        assert all(d["source"] == "episodic" and d["k"] == "e" for d in only_epi)
        only_sem = list(fused_stream(sem, epi, 4.0, 0.0, substream(0, "f"), 50))
        assert all(d["source"] == "semantic" and d["k"] == "s" for d in only_sem)

    def test_rejects_degenerate_pair(self):
        with pytest.raises(NetworkError):
            list(fused_stream(lambda r: {}, lambda r: {}, 0.0, 0.0, substream(0, "f"), 1))
        with pytest.raises(NetworkError):
            list(fused_stream(lambda r: {}, lambda r: {}, -1.0, 2.0, substream(0, "f"), 1))

    def test_source_frequency_matches_mixture_weight(self):
        n = 4000
        draws = list(
            fused_stream(lambda r: {}, lambda r: {}, 1.0, 3.0, substream(7, "f"), n)
        )
        assert len(draws) == n
        k = sum(1 for d in draws if d["source"] == "semantic")
        sd = math.sqrt(n * 0.25 * 0.75)
        assert abs(k - 0.25 * n) <= 3 * sd

    def test_semantic_share_falls_as_observations_grow(self):
        """The background weight is gamma / (gamma + n_obs): each observation
        of the instance moves draws toward the episodic decoder."""
        n = 3000
        shares = []
        for n_obs in (0.5, 2.0, 8.0):
            draws = fused_stream(lambda r: {}, lambda r: {}, 2.0, n_obs, substream(9, "f"), n)
            shares.append(sum(d["source"] == "semantic" for d in draws) / n)
            want = 2.0 / (2.0 + n_obs)
            assert abs(shares[-1] - want) <= 3 * math.sqrt(want * (1 - want) / n)
        assert shares[0] > shares[1] > shares[2]

    def test_decoders_draw_from_the_stream_generator(self):
        rng = substream(3, "f")
        seen = []

        def draw(r):
            seen.append(r)
            return {"x": float(r.random())}

        draws = list(fused_stream(draw, draw, 1.0, 1.0, rng, 20))
        assert len(draws) == len(seen) == 20
        assert all(r is rng for r in seen)
        assert len({d["x"] for d in draws}) == 20

    def test_zero_draws_is_empty(self):
        calls = []
        out = list(fused_stream(calls.append, calls.append, 1.0, 1.0, substream(0, "f"), 0))
        assert out == [] and calls == []
