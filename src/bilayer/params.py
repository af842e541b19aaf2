"""Trainable parameter blocks, column bookkeeping, checkpoint serialization.

The embedding matrix holds one column per symbol that can fire in the index
layer: entities, classes, attributes, binary predicates, and instances.
Columns are kept in canonical order (entities, classes, attributes, binary
predicates, instances, each group in registration order), which is exactly the
order the vocabulary JSON preserves, so checkpoints align by name across
export/import even though integer ids are session local.  The last column,
the pooled one, has no symbol: it is the instance semantic recall commits.

`ColumnMap` is the one statement of the column layout: each readout group's
block of columns, a column's position in its block, and the two label heads,
the only place that tells the Identity family from the others.

`block_shapes` is the one statement of the parameter layout: each block's
name and shape, in the checkpoint blob's order.  A `NetParams` is one buffer,
`flat`, cut by it into views; gradients and Adam's moments share the layout,
and a checkpoint's blob is `flat`'s little-endian bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .vocab import IDENTITY_FAMILY, Kind, Vocabulary

CHECKPOINT_FORMAT = "bilayer-checkpoint"
CHECKPOINT_VERSION = 3


class ParamError(ValueError):
    pass


class ColumnMap:
    """Symbol id <-> embedding column position, and the readout layout.

    The layout is stated here and nowhere else.  Every readout group a head
    scores (entity, concept, label, predicate, instance) is one contiguous
    run of the canonical order, so `block[group]` is a slice: `read[:,
    block[g]]` is a view, and `pos(group, cols)` gives each column's position
    in it.  The concept block starts at column 0, so the entity block and the
    label block also index a concept score block.  `label_heads` holds the
    two label heads every family is scored by.  `block["pooled"]` is the
    one column after the instances, which no symbol names.
    """

    def __init__(self, vocab: Vocabulary):
        groups = vocab.by_kind()
        entities, classes, attributes, instances = (
            groups[kind] for kind in (Kind.ENTITY, Kind.CLASS, Kind.ATTRIBUTE, Kind.INSTANCE))
        predicates = [p for p in groups[Kind.PREDICATE] if p != vocab.has_attribute]
        ids = entities + classes + attributes + predicates + instances
        self.ids = np.array(ids, dtype=np.int64)
        self.n_columns = len(ids) + 1  # and the pooled column
        self.kind_counts = tuple(map(len, (entities, classes, attributes, predicates, instances)))
        # `_pos[id]` is symbol `id`'s column, or -1; an id past the last
        # clips onto the -1 after it, and a negative one is refused by its sign
        self._pos = np.full(len(vocab) + 1, -1, dtype=np.int64)
        self._pos[self.ids] = np.arange(len(ids))

        e, _, a, p, t = np.cumsum(self.kind_counts).tolist()
        self.block = {"entity": slice(0, e), "concept": slice(0, a), "label": slice(e, a),
                      "predicate": slice(a, p), "instance": slice(p, t), "pooled": slice(t, t + 1)}
        self.family_cols = {fam: np.sort(self.cols_of(members))
                            for fam, members in vocab.families.items()}
        # a family's code is its index in `families` (every family, sorted by
        # name).  Each label head is (cache key, the codes it serves as a bool
        # per code, its block, its -inf mask or None): Identity scores the
        # entity block, its family; every other family the label block, with
        # the columns True in its row of the mask set to -inf
        self.families = tuple(sorted(self.family_cols))
        self.identity_code = self.families.index(IDENTITY_FAMILY)
        ident = np.arange(len(self.families)) == self.identity_code
        label = self.block["label"]
        outside = np.ones((len(self.families), label.stop - label.start), dtype=bool)
        for k in np.flatnonzero(~ident):
            outside[k, self.family_cols[self.families[k]] - label.start] = False
        self.label_heads = (("identity", ident, self.block["entity"], None),
                            ("labels", ~ident, label, outside))
        # the label draw's plan: the nonempty families' names, and per head
        # serving any of them its rows among them, its block and its mask rows
        codes = np.flatnonzero([self.family_cols[fam].size for fam in self.families])
        self.label_plan = ([self.families[k] for k in codes], [
            (serves[codes], span, None if mask is None else mask[codes[serves[codes]], None, :])
            for _, serves, span, mask in self.label_heads if serves[codes].any()])

    def col_of(self, symbol_id: int) -> int:
        pos = int(self._pos.take(symbol_id, mode="clip"))
        if pos < 0 or symbol_id < 0:
            raise ParamError(f"symbol id {symbol_id} has no embedding column")
        return pos

    def cols_of(self, symbol_ids) -> np.ndarray:
        ids = np.asarray(symbol_ids, dtype=np.int64)
        pos = self._pos.take(ids, mode="clip")
        if pos.min(initial=0) < 0 or ids.min(initial=0) < 0:
            raise ParamError("some symbol ids have no embedding column")
        return pos

    def pos(self, group: str, cols) -> np.ndarray:
        """Each column's position in the block of `group`, -1 outside it."""
        span = self.block[group]
        at = np.subtract(cols, span.start, dtype=np.int64)
        at[(at < 0) | (at >= span.stop - span.start)] = -1
        return at


@dataclass
class NetConfig:
    rep_dim: int = 64       # width of the representation layer
    ctx_dim: int = 32       # width of the recurrent context layer
    feature_dim: int = 48   # width of incoming perceptual feature vectors
    dtype: str = "float32"

    def __post_init__(self) -> None:
        for name in ("rep_dim", "ctx_dim", "feature_dim"):
            width = getattr(self, name)
            if isinstance(width, bool) or not isinstance(width, int) or width < 1:
                raise ParamError(f"network {name} must be a positive int, not {width!r}")
        if self.dtype not in ("float32", "float64"):
            raise ParamError(f"network dtype must be float32 or float64, not {self.dtype!r}")

    def np_dtype(self):
        return np.dtype(self.dtype)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetConfig":
        """A checkpoint's config, which states every setting."""
        names = [f.name for f in fields(cls)]
        check_keys("bad network config", data, names, names)
        return cls(**data)


def _kaiming(rng: np.random.Generator, out: np.ndarray, fan_in: int) -> None:
    bound = np.sqrt(6.0 / fan_in)
    out[...] = rng.uniform(-bound, bound, size=out.shape)


def block_shapes(config: NetConfig, kind_counts) -> dict[str, tuple[int, ...]]:
    """Every parameter block's name and shape, in the checkpoint blob's order."""
    r, h, f = config.rep_dim, config.ctx_dim, config.feature_dim
    return {"emb": (r, sum(kind_counts) + 1),  # one column per index unit, and the pooled one
            "ctx_in": (h, r),              # representation -> context
            "ctx_rec": (h, h),             # recurrent context weights
            "ctx_out": (r, h),             # context -> representation
            "enc_w": (r, f),               # feature adapter
            "enc_b": (r,)}


class NetParams:
    """The network's weights: one buffer, `flat`, cut by `block_shapes` into
    blocks, each an attribute that is a view into it, so a block is written
    in place and never rebound.  `pooled` is the view of the embedding's last
    column, `ColumnMap.block["pooled"]`.  A fresh instance is zeros; a
    gradient is a `NetParams` of its parameters' layout."""

    def __init__(self, config: NetConfig, kind_counts: tuple[int, ...], flat=None):
        shapes = block_shapes(config, kind_counts)
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()]).tolist()
        self.config, self.kind_counts = config, kind_counts
        self.flat = np.zeros(ends[-1], dtype=config.np_dtype()) if flat is None else flat
        for (name, shape), start, end in zip(shapes.items(), [0] + ends, ends):
            setattr(self, name, self.flat[start:end].reshape(shape))
        self.pooled = self.emb[:, -1]
        self.readout = self.emb  # the name perfbench's tracer reads the embedding by

    @classmethod
    def init(cls, vocab: Vocabulary, config: NetConfig, rng: np.random.Generator) -> "NetParams":
        """Kaiming-uniform matrices drawn in block order, fan-in their input width."""
        cmap = ColumnMap(vocab)
        params = cls(config, cmap.kind_counts)
        for name, block in params.blocks().items():
            if block.ndim == 2:
                _kaiming(rng, block[:, :-1] if name == "emb" else block,
                         config.rep_dim if name == "emb" else block.shape[1])
        # the pooled column is the instances' mean, gathered with an index array:
        # a mean over the strided slice view differs in the last bits
        instances = np.r_[cmap.block["instance"]]
        if instances.size:
            params.pooled[:] = params.emb[:, instances].mean(axis=1)
        return params

    def blocks(self) -> dict[str, np.ndarray]:
        """The blocks by name, in `block_shapes` order."""
        return {name: getattr(self, name) for name in block_shapes(self.config, self.kind_counts)}

    def copy(self) -> "NetParams":
        return NetParams(self.config, self.kind_counts, self.flat.copy())

    def grow(self, vocab: Vocabulary, rng: np.random.Generator) -> ColumnMap:
        """Add freshly initialized columns for symbols registered after init.

        Registration is append-only per kind, so every existing column keeps
        its values bit for bit; only new columns are inserted at their
        canonical positions, in a new buffer.  Returns the new column map.
        """
        cmap = ColumnMap(vocab)
        old = self.kind_counts
        new = cmap.kind_counts
        if any(n < o for n, o in zip(new, old)):
            raise ParamError("vocabulary shrank; cannot grow parameters")
        grown = NetParams(self.config, new)
        grown.flat[grown.emb.size:] = self.flat[self.emb.size:]  # the blocks after `emb`, the first
        grown.pooled[:] = self.pooled
        start = at = 0
        for n_old, n_new in zip(old, new):
            grown.emb[:, at:at + n_old] = self.emb[:, start:start + n_old]
            _kaiming(rng, grown.emb[:, at + n_old:at + n_new], self.config.rep_dim)
            start, at = start + n_old, at + n_new
        vars(self).update(vars(grown))
        return cmap


# the codec's own manifest fields; an archive's kind adds the rest
_BLOB_FIELDS = ("blob_nbytes", "blob_sha256")
_ARCHIVE_FIELDS = ("format", "version", "tensors") + _BLOB_FIELDS


def check_keys(where: str, doc, valid, required=(), error=ParamError) -> None:
    """Refuse, with one line that names `where`, a document that is no JSON
    object, has a key outside `valid` or lacks one of `required`."""
    if not isinstance(doc, dict):
        raise error(f"{where}: not a JSON object")
    unknown = sorted(set(doc) - set(valid))
    if unknown:
        raise error(f"{where}: unknown keys {', '.join(unknown)}; "
                    f"valid keys: {', '.join(sorted(set(valid)))}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise error(f"{where}: missing keys {', '.join(missing)}")


def read_json(path: str, keys=None, error=ParamError):
    """The JSON document in the file `path`, refused with one line that names
    the file if it does not parse, or, given `keys`, if it is not an object
    with exactly those keys."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except ValueError as exc:  # the JSON decoder's, or a byte that is no UTF-8
        raise error(f"{path}: not a JSON file: {exc}") from exc
    if keys is not None:
        check_keys(path, doc, keys, keys, error)
    return doc


def check_types(what: str, settings, error) -> None:
    """Refuse, with one line, a setting of the dataclass `settings` whose
    type is not its default's: an int passes for a float, and a bool passes
    for nothing but a bool.  Settings whose default is not a scalar (a tuple
    of names) are left to their class."""
    for f in fields(settings):
        kind = type(f.default)
        if kind not in (bool, int, float, str):
            continue
        value = getattr(settings, f.name)
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise error(f"{what} {f.name} must be of type {kind.__name__}, not {value!r}")


def _offset(spec: dict) -> int:
    """A tensor spec's sort key: its offset, or -1 when that is no int, so
    that such a spec is the first one refused."""
    offset = spec.get("offset")
    return offset if type(offset) is int else -1


def check_tensor_specs(blob_path: str, blob_len: int, specs: list[dict], itemsize: int) -> None:
    """The tensors of an archive, listed in `specs`, must fit its blob.  Each
    spec has a string `name`, a `shape` list of non-negative ints and int
    `offset` and `nbytes`; each tensor's bytes must hold its shape, and the
    tensors must tile the blob from byte 0 to its end, so a truncated or
    padded blob is refused."""
    if type(specs) is not list or not all(type(s) is dict for s in specs):
        raise ParamError(f"{blob_path}: its manifest's tensors are not a list of objects")
    end = 0
    for spec in sorted(specs, key=_offset):
        key, shape = spec.get("name"), spec.get("shape")
        offset, nbytes = spec.get("offset"), spec.get("nbytes")
        if type(key) is not str:
            raise ParamError(f"{blob_path}: a tensor has name {key!r}, not a string")
        if type(shape) is not list or not all(type(d) is int and d >= 0 for d in shape):
            raise ParamError(f"{blob_path}: tensor {key!r} has shape {shape!r}, "
                             "not a list of non-negative ints")
        if type(offset) is not int or type(nbytes) is not int:
            raise ParamError(f"{blob_path}: tensor {key!r} has offset {offset!r} and nbytes "
                             f"{nbytes!r}; both must be ints")
        if nbytes != math.prod(shape) * itemsize:
            raise ParamError(f"{blob_path}: tensor {key!r}: {nbytes} bytes cannot hold {shape}")
        if offset != end:
            raise ParamError(f"{blob_path}: tensor {key!r} starts at byte {offset}")
        end += nbytes
        if end > blob_len:
            raise ParamError(f"{blob_path} has {blob_len} bytes; tensor {key!r} ends at {end}")
    if end != blob_len:
        raise ParamError(f"{blob_path} has {blob_len} bytes; its tensors cover {end}")


def write_archive(base_path: str, fmt: str, version: int, meta: dict,
                  tensors: list[tuple[str, np.ndarray]], dtype) -> tuple[str, str]:
    """Write a tensor archive: `<base>.bin`, the tensors' values as `dtype`,
    little-endian, one after another, and `<base>.json`, its manifest: `fmt`,
    `version`, the fields of `meta`, one spec per tensor and the blob's length
    and sha256."""
    wire = np.dtype(dtype).newbyteorder("<")
    specs, chunks, offset = [], [], 0
    for name, arr in tensors:
        raw = np.ascontiguousarray(arr, dtype=wire)
        specs.append({"name": name, "shape": list(arr.shape), "offset": offset,
                      "nbytes": raw.nbytes})
        offset += raw.nbytes
        chunks.append(raw.tobytes())
    blob = b"".join(chunks)
    manifest = {**meta, "format": fmt, "version": version, "tensors": specs,
                "blob_nbytes": len(blob), "blob_sha256": hashlib.sha256(blob).hexdigest()}
    with open(base_path + ".json", "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    with open(base_path + ".bin", "wb") as fp:
        fp.write(blob)
    return base_path + ".json", base_path + ".bin"


def read_manifest(base_path: str, fmt: str, version: int, fields: tuple[str, ...]) -> dict:
    """The manifest of the archive at `base_path`: a JSON object of format
    `fmt` and version `version` that records its blob's length and sha256,
    has every one of `fields` and has no key outside them and the codec's
    own."""
    path = base_path + ".json"
    if not (os.path.exists(path) and os.path.exists(base_path + ".bin")):
        raise ParamError(f"{fmt} archive {base_path!r} not found")
    manifest = read_json(path)
    if type(manifest) is not dict or manifest.get("format") != fmt:
        raise ParamError(f"{path}: not a {fmt} manifest")
    if manifest.get("version") != version:
        raise ParamError(f"{path}: {fmt} version {manifest.get('version')!r} is not readable; "
                         f"this reader reads version {version}")
    check_keys(path, manifest, _ARCHIVE_FIELDS + fields, fields + _BLOB_FIELDS)
    return manifest


def read_tensors(base_path: str, manifest: dict, dtype) -> dict[str, np.ndarray]:
    """The tensors of the archive at `base_path` as `dtype` arrays, by name,
    once its blob matches the length and digest its manifest records and its
    specs tile the blob."""
    blob_path = base_path + ".bin"
    with open(blob_path, "rb") as fp:
        blob = fp.read()
    what = f"{blob_path}: the {manifest['format']} blob"
    if len(blob) != manifest["blob_nbytes"]:
        raise ParamError(f"{what} has {len(blob)} bytes; its manifest records "
                         f"{manifest['blob_nbytes']}")
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise ParamError(f"{what} does not match the sha256 in its manifest")
    wire = np.dtype(dtype).newbyteorder("<")
    specs = manifest.get("tensors")
    check_tensor_specs(blob_path, len(blob), specs, wire.itemsize)
    return {
        s["name"]: np.frombuffer(blob, wire, math.prod(s["shape"]), s["offset"])
        .reshape(s["shape"]).astype(dtype)
        for s in specs
    }


def save_checkpoint(params: NetParams, vocab: Vocabulary, base_path: str) -> tuple[str, str]:
    """Write `<base>.json` (manifest) and `<base>.bin` (little-endian blob)."""
    meta = {"config": params.config.to_dict(), "kind_counts": list(params.kind_counts),
            "vocab_sha256": vocab.digest()}
    return write_archive(base_path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION, meta,
                         list(params.blocks().items()), params.config.np_dtype())


def read_checkpoint_manifest(base_path: str) -> dict:
    """The manifest of the checkpoint at `base_path`; its `vocab_sha256` is
    the digest of the vocabulary the checkpoint was saved against."""
    return read_manifest(base_path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION,
                         ("config", "kind_counts", "vocab_sha256"))


def load_checkpoint(base_path: str, vocab: Vocabulary) -> NetParams:
    manifest = read_checkpoint_manifest(base_path)
    path = base_path + ".json"
    if manifest["vocab_sha256"] != vocab.digest():
        raise ParamError(f"{path}: checkpoint was saved against a different vocabulary")
    try:
        config = NetConfig.from_dict(manifest["config"])
    except ParamError as exc:
        raise ParamError(f"{path}: {exc}") from exc
    arrays = read_tensors(base_path, manifest, config.np_dtype())
    cmap = ColumnMap(vocab)
    params = NetParams(config, cmap.kind_counts)
    blocks = params.blocks()
    if sorted(arrays) != sorted(blocks):
        raise ParamError(f"{path}: checkpoint holds tensors {sorted(arrays)}, not {sorted(blocks)}")
    if manifest["kind_counts"] != list(cmap.kind_counts):
        raise ParamError(f"{path}: checkpoint kind_counts {manifest['kind_counts']!r} are not "
                         f"the vocabulary's {list(cmap.kind_counts)}")
    for name, block in blocks.items():
        if arrays[name].shape != block.shape:
            raise ParamError(f"{path}: checkpoint tensor {name!r} has shape "
                             f"{list(arrays[name].shape)}, not {list(block.shape)}")
        block[...] = arrays[name]
    return params


def params_digest(params: NetParams) -> str:
    h = hashlib.sha256()
    for name, arr in params.blocks().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
