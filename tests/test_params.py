"""Column bookkeeping, parameter init, checkpoint round trips, vocabulary growth."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from bilayer.params import (
    ColumnMap,
    NetConfig,
    NetParams,
    ParamError,
    block_shapes,
    load_checkpoint,
    params_digest,
    save_checkpoint,
)
from bilayer.vocab import Kind
from bilayer.world import substream

from util import INTERLEAVED, group_cols, small_params, small_vocab

# the symbol kinds each readout group's block holds
GROUP_KINDS = {"entity": {Kind.ENTITY}, "concept": {Kind.ENTITY, Kind.CLASS, Kind.ATTRIBUTE},
               "label": {Kind.CLASS, Kind.ATTRIBUTE}, "predicate": {Kind.PREDICATE},
               "instance": {Kind.INSTANCE}, "pooled": set()}


def assert_one_buffer(params: NetParams) -> None:
    """Every block of `params` is a C-contiguous view into its `flat`
    buffer, of its `block_shapes` shape, at ascending offsets in that order,
    and together the blocks tile the buffer."""
    shapes = block_shapes(params.config, params.kind_counts)
    blocks = params.blocks()
    assert list(blocks) == list(shapes)
    assert params.flat.ndim == 1 and params.flat.dtype == params.config.np_dtype()
    base = params.flat.__array_interface__["data"][0]
    offset = 0
    for name, block in blocks.items():
        assert block.shape == shapes[name], name
        assert block.flags.c_contiguous and np.shares_memory(block, params.flat), name
        assert block.__array_interface__["data"][0] - base == offset * params.flat.itemsize, name
        offset += block.size
    assert offset == params.flat.size


class TestColumnMap:
    def test_canonical_column_order(self):
        v = small_vocab()
        cmap = ColumnMap(v)
        expected = (
            [v.id_of(f"e{i}") for i in range(4)]
            + [v.id_of(c) for c in ("Dog", "Cat", "Mammal")]
            + [v.id_of(a) for a in ("Young", "Old")]
            + [v.id_of(p) for p in ("near", "chases")]
            + [v.id_of(f"t{i}") for i in range(3)]
        )
        assert cmap.ids.tolist() == expected
        assert cmap.n_columns == len(expected) + 1  # the pooled column, last
        assert cmap.kind_counts == (4, 3, 2, 2, 3)
        for col, sid in enumerate(expected):
            assert cmap.col_of(sid) == col
            assert int(cmap.ids[col]) == sid

    def test_columns_of_a_grown_vocabulary_follow_the_kind_properties(self):
        """Symbols registered out of kind order, as self-labeled growth and
        consolidation add them, still get the canonical layout."""
        v = small_vocab()
        v.add_instance("t0.dup")
        v.add_entity("e.novel")
        v.add_instance("t1.dup")
        assert v.by_kind() == {kind: list(v._of_kind(kind)) for kind in Kind}
        cmap = ColumnMap(v)
        want = v.entities + v.classes + v.attributes + v.binary_predicates + v.instances
        assert cmap.ids.tolist() == list(want)
        assert cmap.kind_counts == tuple(map(len, (
            v.entities, v.classes, v.attributes, v.binary_predicates, v.instances)))

    def test_has_attribute_gets_no_column(self):
        v = small_vocab()
        cmap = ColumnMap(v)
        with pytest.raises(ParamError):
            cmap.col_of(v.has_attribute)
        with pytest.raises(ParamError):
            cmap.cols_of([v.id_of("Dog"), v.has_attribute])

    def test_out_of_range_ids_are_refused(self):
        """An id outside the vocabulary is refused like one with no column:
        a negative id does not wrap around to the last symbols' columns."""
        v = small_vocab()
        cmap = ColumnMap(v)
        for sid in (-1, -len(v), len(v), len(v) + 5):
            with pytest.raises(ParamError, match=f"symbol id {sid} has no embedding column"):
                cmap.col_of(sid)
            with pytest.raises(ParamError, match="some symbol ids have no embedding column"):
                cmap.cols_of([v.id_of("Dog"), sid])
        assert cmap.cols_of(np.empty(0, dtype=np.int64)).size == 0
        ids = np.array([[v.id_of("t2"), v.id_of("e0")], [v.id_of("near"), v.id_of("Old")]])
        assert cmap.cols_of(ids).tolist() == [[13, 0], [9, 8]]

    def test_index_set_spans(self):
        cmap = ColumnMap(small_vocab())
        assert cmap.kind_counts == (4, 3, 2, 2, 3)  # entities, classes, attributes, ...
        assert cmap.block == {"entity": slice(0, 4), "concept": slice(0, 9),
                              "label": slice(4, 9), "predicate": slice(9, 11),
                              "instance": slice(11, 14), "pooled": slice(14, 15)}

    def test_family_cols_sorted(self):
        v = small_vocab()
        cmap = ColumnMap(v)
        for cols in cmap.family_cols.values():
            assert np.all(np.diff(cols) > 0)
        species = {int(cmap.ids[c]) for c in cmap.family_cols["Species"]}
        assert species == {v.id_of("Dog"), v.id_of("Cat")}
        identity = {int(cmap.ids[c]) for c in cmap.family_cols["Identity"]}
        assert identity == set(v.entities)

    def test_each_block_holds_its_kinds_as_a_view(self, tiny_world):
        """On a hand-written and on a generated vocabulary, each group's block
        holds exactly the symbols of its kinds, and reading it from the
        embedding copies nothing."""
        for v in (small_vocab(families=INTERLEAVED), tiny_world.vocab):
            params, cmap = small_params(v)
            assert cmap.block.keys() == GROUP_KINDS.keys()
            for group, kinds in GROUP_KINDS.items():
                want = [sid for sid in range(len(v))
                        if v.kind_of(sid) in kinds and sid != v.has_attribute]
                assert sorted(cmap.ids[cmap.block[group]].tolist()) == want
                assert np.shares_memory(params.emb[:, cmap.block[group]], params.emb)

    def test_pos_inverts_each_block(self):
        cmap = ColumnMap(small_vocab())
        every = np.arange(cmap.n_columns)
        for group, span in cmap.block.items():
            cols = every[span]
            assert cmap.pos(group, cols).tolist() == list(range(cols.size))
            # every other column, and one past the last, is outside
            outside = np.r_[-1, np.setdiff1d(every, cols), cmap.n_columns]
            assert cmap.pos(group, outside).tolist() == [-1] * outside.size

    @pytest.mark.parametrize("families", [None, INTERLEAVED], ids=["contiguous", "interleaved"])
    def test_every_family_is_served_by_one_head(self, families):
        cmap = ColumnMap(small_vocab(families=families))
        served = np.sum([serves for _, serves, _, _ in cmap.label_heads], axis=0)
        assert served.tolist() == [1] * len(cmap.families)
        for _, serves, span, _ in cmap.label_heads:
            for k in np.flatnonzero(serves):
                cols = cmap.family_cols[cmap.families[k]]
                assert np.all((span.start <= cols) & (cols < span.stop))

    def test_an_interleaved_family_is_masked_to_its_columns(self):
        cmap = ColumnMap(small_vocab(families=INTERLEAVED))
        assert cmap.family_cols["Species"].tolist() == [4, 6]  # Cat's column between
        masked = [h for h in cmap.label_heads if h[3] is not None]
        assert len(masked) == 1
        _, serves, span, outside = masked[0]
        for k in np.flatnonzero(serves):
            inside = np.arange(cmap.n_columns)[span][~outside[k]]
            assert inside.tolist() == cmap.family_cols[cmap.families[k]].tolist()


class TestNetConfig:
    def test_round_trip(self):
        config = NetConfig(rep_dim=24, ctx_dim=12, feature_dim=10, dtype="float64")
        assert NetConfig.from_dict(config.to_dict()) == config

    def test_defaults_round_trip(self):
        assert NetConfig.from_dict(NetConfig().to_dict()) == NetConfig()

    def test_settings_are_three_widths_and_a_dtype(self):
        names = ["rep_dim", "ctx_dim", "feature_dim", "dtype"]
        assert [f.name for f in dataclasses.fields(NetConfig)] == names
        assert list(NetConfig().to_dict()) == names

    @pytest.mark.parametrize("key", ["rep_dim", "ctx_dim", "feature_dim", "dtype"])
    def test_refuses_a_config_missing_a_setting(self, key):
        """A checkpoint's config states every setting: a default would not
        be the width its tensors were saved with."""
        doc = NetConfig(rep_dim=4, ctx_dim=3, feature_dim=5).to_dict()
        del doc[key]
        with pytest.raises(ParamError, match=f"^bad network config: missing keys {key}$"):
            NetConfig.from_dict(doc)

    @pytest.mark.parametrize("tied", [True, False])
    def test_refuses_a_tied_setting(self, tied):
        """Every index unit has one embedding column, so there is no readout
        to tie or untie; either value of the old key is an unknown setting."""
        with pytest.raises(ParamError, match="bad network config: unknown keys tied;"):
            NetConfig.from_dict({**NetConfig().to_dict(), "tied": tied})

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_np_dtype_sets_every_block(self, dtype):
        config = NetConfig(rep_dim=4, ctx_dim=3, feature_dim=5, dtype=dtype)
        assert config.np_dtype() == np.dtype(dtype)
        params = NetParams.init(small_vocab(), config, substream(0, "init"))
        assert {arr.dtype for arr in params.blocks().values()} == {config.np_dtype()}


class TestNetParams:
    def test_init_shapes(self):
        v = small_vocab()
        params, cmap = small_params(v, rep_dim=8, ctx_dim=4, feature_dim=6)
        assert params.emb.shape == (8, cmap.n_columns)
        assert params.ctx_in.shape == (4, 8)
        assert params.ctx_rec.shape == (4, 4)
        assert params.ctx_out.shape == (8, 4)
        assert params.pooled.shape == (8,)
        assert params.enc_w.shape == (8, 6)
        assert params.enc_b.shape == (8,)
        assert params.kind_counts == cmap.kind_counts
        assert params.emb.dtype == np.float32

    def test_pooled_is_instance_mean(self):
        v = small_vocab()
        params, cmap = small_params(v)
        want = params.emb[:, group_cols(cmap, "instance")].mean(axis=1)
        np.testing.assert_array_equal(params.pooled, want)

    def test_init_deterministic(self):
        v = small_vocab()
        a = NetParams.init(v, NetConfig(rep_dim=8, ctx_dim=4, feature_dim=6), substream(7, "x"))
        b = NetParams.init(v, NetConfig(rep_dim=8, ctx_dim=4, feature_dim=6), substream(7, "x"))
        for name, arr in a.blocks().items():
            np.testing.assert_array_equal(arr, b.blocks()[name])

    def test_tied_readout_is_embedding(self):
        v = small_vocab()
        params, _ = small_params(v)
        assert params.readout is params.emb

    def test_copy_is_deep_for_arrays(self):
        v = small_vocab()
        params, _ = small_params(v)
        dup = params.copy()
        dup.emb[0, 0] += 1.0
        assert params.emb[0, 0] != dup.emb[0, 0]

    def test_copy_owns_its_own_buffer(self):
        params, _ = small_params(small_vocab())
        dup = params.copy()
        assert not np.shares_memory(dup.flat, params.flat)
        np.testing.assert_array_equal(dup.flat, params.flat)
        assert_one_buffer(dup)

    @pytest.mark.parametrize("dtype, digest", [
        ("float32", "f9c2fb4239d210c2161c4c96285ac0f3971078bc1c7bdf409c91ca39a5d944d4"),
        ("float64", "863e7075f6b30cfac54b047b891abd814df169bb7674d780b7d4b19d99de8251"),
    ])
    def test_digest_of_a_fresh_model_is_pinned(self, dtype, digest):
        """The init stream and the digest's tensor order are fixed: a fresh
        model of the small vocabulary hashes to the same hex in each dtype."""
        params, _ = small_params(small_vocab(), dtype=dtype, seed=5)
        assert params_digest(params) == digest


class TestOneBuffer:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("make", ["init", "copy", "grow", "load_checkpoint"])
    def test_every_block_is_a_view_of_flat_in_layout_order(self, tmp_path, make, dtype):
        v = small_vocab()
        params, _ = small_params(v, dtype=dtype, seed=4)
        if make == "copy":
            params = params.copy()
        elif make == "grow":
            v.add_entity("e_new")
            v.add_instance("t_new")
            params.grow(v, substream(4, "grow"))
        elif make == "load_checkpoint":
            save_checkpoint(params, v, str(tmp_path / "ck"))
            params = load_checkpoint(str(tmp_path / "ck"), v)
        assert_one_buffer(params)

    def test_a_fresh_instance_is_zeros(self):
        config = NetConfig(rep_dim=4, ctx_dim=3, feature_dim=5)
        params = NetParams(config, (2, 1, 1, 1, 3))
        assert not params.flat.any()
        assert params.emb.shape == (4, 9)
        assert_one_buffer(params)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_checkpoint_blob_is_flat_little_endian(self, tmp_path, dtype):
        v = small_vocab()
        params, _ = small_params(v, dtype=dtype, seed=5)
        _, blob_path = save_checkpoint(params, v, str(tmp_path / "ck"))
        with open(blob_path, "rb") as fp:
            blob = fp.read()
        assert blob == params.flat.astype(params.flat.dtype.newbyteorder("<")).tobytes()


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_round_trip_bit_identical(self, tmp_path, dtype):
        v = small_vocab()
        params, _ = small_params(v, dtype=dtype, seed=5)
        base = str(tmp_path / "ck")
        manifest_path, blob_path = save_checkpoint(params, v, base)
        assert manifest_path.endswith(".json") and blob_path.endswith(".bin")
        loaded = load_checkpoint(base, v)
        assert loaded.config == params.config
        assert loaded.kind_counts == params.kind_counts
        for name, arr in params.blocks().items():
            got = loaded.blocks()[name]
            assert got.dtype == arr.dtype
            np.testing.assert_array_equal(got, arr)

    def test_manifest_lists_one_embedding_at_version_3(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        assert manifest["version"] == 3
        assert [t["name"] for t in manifest["tensors"]] == [
            "emb", "ctx_in", "ctx_rec", "ctx_out", "enc_w", "enc_b"]

    def test_missing_files(self, tmp_path):
        v = small_vocab()
        with pytest.raises(ParamError, match="not found"):
            load_checkpoint(str(tmp_path / "absent"), v)

    def test_rejects_other_vocabulary(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        other = small_vocab(n_entities=5)
        with pytest.raises(ParamError, match="vocabulary"):
            load_checkpoint(base, other)

    def test_rejects_foreign_manifest(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        manifest["format"] = "something-else"
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError, match="manifest"):
            load_checkpoint(base, v)

    @pytest.mark.parametrize("cut", [-4, 1], ids=["truncated", "padded"])
    def test_rejects_blob_of_wrong_length(self, tmp_path, cut):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        _, blob_path = save_checkpoint(params, v, base)
        with open(blob_path, "rb") as fp:
            blob = fp.read()
        with open(blob_path, "wb") as fp:
            fp.write(blob[:cut] if cut < 0 else blob + b"\0" * cut)
        with pytest.raises(ParamError, match="checkpoint blob has"):
            load_checkpoint(base, v)

    def test_manifest_records_blob_length_and_sha256(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        manifest_path, blob_path = save_checkpoint(params, v, str(tmp_path / "ck"))
        with open(manifest_path) as fp:
            manifest = json.load(fp)
        with open(blob_path, "rb") as fp:
            blob = fp.read()
        assert manifest["blob_nbytes"] == len(blob)
        assert manifest["blob_sha256"] == hashlib.sha256(blob).hexdigest()

    def test_rejects_a_flipped_bit(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        _, blob_path = save_checkpoint(params, v, base)
        with open(blob_path, "rb") as fp:
            blob = bytearray(fp.read())
        blob[len(blob) // 2] ^= 0x10  # inside the embedding tensor
        with open(blob_path, "wb") as fp:
            fp.write(blob)
        with pytest.raises(ParamError, match="sha256"):
            load_checkpoint(base, v)

    @pytest.mark.parametrize("missing", [
        ("blob_nbytes",), ("blob_sha256",), ("blob_nbytes", "blob_sha256"),
    ], ids=["no-nbytes", "no-sha256", "neither"])
    def test_refuses_a_manifest_without_blob_fields(self, tmp_path, missing):
        """Every checkpoint records its blob's length and sha256, so a
        manifest that lacks either is refused, not loaded with the blob
        unchecked."""
        v = small_vocab()
        params, _ = small_params(v, seed=4)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        for key in missing:
            del manifest[key]
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError) as err:
            load_checkpoint(base, v)
        assert str(err.value) == f"{base}.json: missing keys {', '.join(missing)}"

    def test_rejects_tensor_bytes_that_miss_its_shape(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        manifest["tensors"][0]["shape"][1] -= 1
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError, match="cannot hold"):
            load_checkpoint(base, v)

    @pytest.mark.parametrize("tensors", [None, {"emb": {}}, ["emb"], 7])
    def test_rejects_a_tensor_list_that_is_no_list_of_objects(self, tmp_path, tensors):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        if tensors is None:
            del manifest["tensors"]
        else:
            manifest["tensors"] = tensors
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError, match="tensors are not a list of objects"):
            load_checkpoint(base, v)

    @pytest.mark.parametrize("kind_counts", [
        7, "abcde", ["a"] * 5, [1, 2, 3, 4], "shifted",
    ], ids=["int", "string", "strings", "four", "shifted"])
    def test_rejects_kind_counts_that_are_not_the_vocabulary_s(self, tmp_path, kind_counts):
        v = small_vocab()
        params, cmap = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        want = list(cmap.kind_counts)
        if kind_counts == "shifted":  # one entity column counted as an instance
            kind_counts = [want[0] - 1, *want[1:4], want[4] + 1]
        manifest["kind_counts"] = kind_counts
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError, match=re.escape(
                f"checkpoint kind_counts {kind_counts!r} are not the vocabulary's {want}")):
            load_checkpoint(base, v)

    def test_rejects_unknown_version(self, tmp_path):
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        manifest["version"] = 99
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError, match="version"):
            load_checkpoint(base, v)

    def test_rejects_a_version_1_checkpoint(self, tmp_path):
        """Version 1 could hold a second readout matrix; it is refused by
        its version, before any tensor is read."""
        v = small_vocab()
        params, _ = small_params(v)
        base = str(tmp_path / "ck")
        save_checkpoint(params, v, base)
        with open(base + ".json") as fp:
            manifest = json.load(fp)
        manifest["version"] = 1
        with open(base + ".json", "w") as fp:
            json.dump(manifest, fp)
        with pytest.raises(ParamError, match="version 1 is not readable; this reader reads "
                                             "version 3"):
            load_checkpoint(base, v)


class TestGrow:
    def test_existing_columns_survive_bitwise(self):
        v = small_vocab()
        params, old_cmap = small_params(v, seed=9)
        snapshot = {int(sid): params.emb[:, old_cmap.col_of(sid)].copy() for sid in old_cmap.ids}
        ctx_in_before = params.ctx_in.copy()
        pooled_before = params.pooled.copy()

        v.add_entity("e_new")
        v.add_instance("t_new")
        new_cmap = params.grow(v, substream(9, "grow"))

        assert isinstance(new_cmap, ColumnMap)
        assert params.kind_counts == new_cmap.kind_counts
        assert params.emb.shape[1] == old_cmap.n_columns + 2
        for sid, col_vals in snapshot.items():
            np.testing.assert_array_equal(params.emb[:, new_cmap.col_of(sid)], col_vals)
        # only embedding columns change; the rest of the network is untouched
        np.testing.assert_array_equal(params.ctx_in, ctx_in_before)
        np.testing.assert_array_equal(params.pooled, pooled_before)
        # the fresh columns are live, not zero padding
        assert np.any(params.emb[:, new_cmap.col_of(v.id_of("e_new"))] != 0)

    def test_grow_without_new_symbols_is_identity(self):
        v = small_vocab()
        params, _ = small_params(v)
        before = params.emb.copy()
        params.grow(v, substream(0, "grow"))
        np.testing.assert_array_equal(params.emb, before)

    def test_grown_embedding_has_the_grown_width(self):
        v = small_vocab()
        params, _ = small_params(v)
        v.add_entity("e_new")
        new_cmap = params.grow(v, substream(1, "grow"))
        assert params.emb.shape == (params.config.rep_dim, new_cmap.n_columns)
        assert params.readout is params.emb
        assert_one_buffer(params)

    def test_rejects_shrunk_vocabulary(self):
        v = small_vocab()
        params, _ = small_params(v)
        smaller = small_vocab(n_entities=2)
        with pytest.raises(ParamError, match="shrank"):
            params.grow(smaller, substream(0, "grow"))
