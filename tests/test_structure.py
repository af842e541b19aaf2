"""Structural checks on the package source.

The schedule's step math is written once, in the step functions of
`network`.  Two walks call them: `network.decode_many`, which every decode
goes through (via `decode`, `decode_many` or `decode_chunked`), and the
teacher-forced `graph.forward`, whose hand-derived `backward` is the only
other reader of the context and encoder weights.  Each walk is one loop: in
`network` only `decode_many` encodes a box, scores a step or steps the
context, so the direct variant is that loop too, not a second walk.  Any
other module that imports the step functions is on its way to a third
hand-written walk.  The walks' control flow is one table, `network.schedule`:
no other statement spells out the steps, and neither walk compares a step
name.  Training batches its example tables in one pass: a
`Batch` carries its label occurrences as arrays, `build_batches` makes every
batch with one constructor call, and `train` batches every mode through one
call.  `training.py` gathers the world's feature rows at one site, the box
layout the perception tables and SSL share.  Sampled picks draw no
`Generator.choice`: `_pick` and `_pick_labels` turn their uniforms into
positions through one inverse-CDF helper.  The split of the label families
between their two heads is stated in `params.py` alone.
Checkpoints and the feature archive share one tensor-archive codec in
`params.py`.  A decode scores each step once: an attention mixture weights
the block its step scored.  Symbols are numbered in one place: only
`Vocabulary.from_dict` builds a vocabulary in bulk, and outside `vocab.py`
only self-labeled growth and consolidation append a symbol.  No module
copies state with `copy.deepcopy`, and none but `params.py` rebinds a
parameter block, a view into its `NetParams`' one buffer.  The triple
store's internals are read only inside `triple_store.py`.  Every public
name the package defines has a caller inside it, but for a short allowlist
of names that the benchmark or the gradient tests call, every field of the
three settings classes is read outside its class, every field of a world
is read outside the functions that make, write and load it, and every
field of a decode trace is read outside `network.py`.
The ontology is one constant, constructed once.  Every module but
`__init__.py`, which re-exports, reads each name it imports.
"""
from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import bilayer
from bilayer import network
from bilayer.graph import Batch
from bilayer.params import NetConfig, block_shapes

from util import small_params, small_vocab

STEP_FUNCTIONS = {"context_step", "context_out", "encode_input", "index_scores"}
STEP_WEIGHTS = {"ctx_in", "ctx_rec", "ctx_out", "enc_w", "enc_b"}


def _names(module: str) -> set[str]:
    """Every name a module imports from elsewhere or reads as an attribute."""
    tree = ast.parse((Path(bilayer.__file__).parent / module).read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


@pytest.mark.parametrize("module", ["training.py", "evaluation.py", "cli.py"])
def test_no_second_decode_walk(module):
    used = _names(module)
    assert not used & STEP_FUNCTIONS, f"{module} uses {sorted(used & STEP_FUNCTIONS)}"


@pytest.mark.parametrize("module", ["training.py", "evaluation.py"])
def test_split_decodes_go_in_runs(module):
    """These modules decode whole splits, so they call `decode_chunked`: one
    `decode_many` call over a split would hold a score block per step for
    every box of it at once."""
    assert "decode_many" not in _names(module)


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((Path(bilayer.__file__).parent / module).read_text(encoding="utf-8"))
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def _reachable(funcs: dict[str, ast.FunctionDef], root: str) -> set[str]:
    """`root` and every module-level function it names, transitively."""
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            named = {n.id for n in ast.walk(funcs[name]) if isinstance(n, ast.Name)}
            todo += sorted(named & funcs.keys())
    return seen


# what a decode step does with the step functions: encode its box, score its
# block, fold the previous state into the context and read the context out
DECODE_STEP = {"_encode", "_scores", "context_step", "context_out"}


def test_decode_many_is_the_only_decode_walk():
    """Among `network`'s top-level functions only `decode_many` calls the
    helpers that make up a decode step."""
    callers = {
        name for name, fn in _functions("network.py").items()
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in DECODE_STEP
               for n in ast.walk(fn))
    }
    assert callers == {"decode_many"}, f"decode steps are also walked in {sorted(callers)}"


def test_graph_forward_walks_the_step_functions():
    """`graph.forward`, with the helpers it calls, reads none of the step
    weights: it computes each step with the step functions.  Only `backward`
    reads them, for the transposed products."""
    funcs = _functions("graph.py")
    readers = {
        name for name, fn in funcs.items()
        if any(isinstance(n, ast.Attribute) and n.attr in STEP_WEIGHTS for n in ast.walk(fn))
    }
    forward = _reachable(funcs, "forward")
    assert not readers & forward, f"forward reads step weights in {sorted(readers & forward)}"
    assert readers == {"backward"}
    called = {n.id for n in ast.walk(funcs["forward"]) if isinstance(n, ast.Name)}
    assert STEP_FUNCTIONS <= called


STEPS = ("instance", "subject", "object", "predicate")


def _step_constants(node: ast.AST) -> set[str]:
    """The step names `node` holds as string constants, docstrings aside."""
    docs = {id(n.body[0].value) for n in ast.walk(node)
            if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef)) and n.body
            and isinstance(n.body[0], ast.Expr) and isinstance(n.body[0].value, ast.Constant)}
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and n.value in STEPS and id(n) not in docs}


def test_only_the_schedule_table_spells_out_the_steps():
    """The schedule is written once: `network`'s `_PERCEPTION` rows, the
    table `schedule` is built from, name the steps in order, and no other
    top-level statement of the package names three or more of them.  (Two
    may meet elsewhere: instance and predicate are also symbol kinds and
    readout groups.)  `graph.py` and `decode_many` read the step specs: they
    compare no step name with a string literal."""
    package = Path(bilayer.__file__).parent
    tables, spelled = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
            if targets == ["_PERCEPTION"]:
                tables.append((path.name, [row.args[0].value for row in node.value.elts]))
            elif len(_step_constants(node)) > 2:
                spelled.append(f"{path.name} line {node.lineno}")
    assert tables == [("network.py", list(STEPS))]
    assert not spelled, f"the steps are spelled out at {spelled}"
    walks = {"graph.py": ast.parse((package / "graph.py").read_text(encoding="utf-8")),
             "decode_many": _functions("network.py")["decode_many"]}
    for where, tree in walks.items():
        compared = sorted(f"line {n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Compare)
                          and any(_step_constants(c) for c in (n.left, *n.comparators)))
        assert not compared, f"{where} compares step names at {compared}"


def _calls(node: ast.AST, name: str) -> int:
    """How many calls inside `node` call the bare name `name`."""
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name
               for n in ast.walk(node))


def test_one_batching_pass():
    """A batch holds arrays, not per-family dicts, so the example table's
    columns go into it as they are; `training.py` builds a `Batch` at one
    site, and `train` calls `build_batches` at one site for every mode."""
    dict_fields = [f.name for f in dataclasses.fields(Batch) if "dict" in str(f.type)]
    assert not dict_fields, f"Batch has dict fields {dict_fields}"
    source = (Path(bilayer.__file__).parent / "training.py").read_text(encoding="utf-8")
    assert _calls(ast.parse(source), "Batch") == 1
    assert _calls(_functions("training.py")["train"], "build_batches") == 1


def _method_calls(node: ast.AST, attr: str) -> int:
    """How many calls inside `node` call a method named `attr`."""
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == attr for n in ast.walk(node))


def _accumulates(node: ast.AST) -> bool:
    """Whether `node` takes a running sum: calls `cumsum`, as a method or a
    function, or `add.accumulate`."""
    called = [ast.unparse(n.func).split(".") for n in ast.walk(node) if isinstance(n, ast.Call)]
    return any(name[-1] == "cumsum" or name[-2:] == ["add", "accumulate"] for name in called)


def test_sampled_picks_share_one_inverse_cdf_draw():
    """`network` calls no `.choice(`.  The functions that take uniforms from
    the generator are `_pick`, `_pick_labels` and `fused_stream` (its own
    source coin).  One helper turns the picks' uniforms into positions for
    both: the one function both picks call is the only one in `network`
    that accumulates a running sum, however it spells it."""
    source = (Path(bilayer.__file__).parent / "network.py").read_text(encoding="utf-8")
    assert _method_calls(ast.parse(source), "choice") == 0
    funcs = _functions("network.py")
    drawers = {name for name, fn in funcs.items() if _method_calls(fn, "random")}
    assert drawers == {"_pick", "_pick_labels", "fused_stream"}
    shared = {name for name in funcs
              if _calls(funcs["_pick"], name) and _calls(funcs["_pick_labels"], name)}
    accumulating = {name for name, fn in funcs.items() if _accumulates(fn)}
    assert len(shared) == 1 and shared == accumulating, (shared, accumulating)


@pytest.mark.parametrize("module", ["graph.py", "network.py"])
def test_the_label_heads_are_split_in_params_only(module):
    """Which families the Identity head serves and which the masked one is
    `ColumnMap.label_heads`'s to say: the two walks read the heads, not the
    Identity family or the families' columns."""
    used = _names(module)
    assert not used & {"IDENTITY_FAMILY", "family_cols"}, sorted(used)


def test_training_gathers_features_at_one_site():
    """`training.py` reads the world's feature rows in one place, the box
    layout that the perception tables and SSL's decode passes share: every
    other reader indexes that matrix by row, so no second keyed gather."""
    source = (Path(bilayer.__file__).parent / "training.py").read_text(encoding="utf-8")
    assert _method_calls(ast.parse(source), "features_of") == 1
    assert _method_calls(_functions("training.py")["_box_layout"], "features_of") == 1


def _store_internals() -> set[str]:
    """The underscore names `TripleStore` defines: its fields and methods."""
    tree = ast.parse((Path(bilayer.__file__).parent / "triple_store.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "TripleStore")
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    names |= {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(bilayer.__file__).parent.glob("*.py") if p.name != "triple_store.py"
))
def test_store_internals_stay_in_the_store(module):
    """The store's canonical state and its derived indexes are read only
    inside `triple_store.py`, so the split between them stays in one file.
    An attribute read on `self` is the module's own class's."""
    internals = _store_internals()
    assert {"_positives", "_closures", "_negatives", "_truth"} <= internals
    tree = ast.parse((Path(bilayer.__file__).parent / module).read_text(encoding="utf-8"))
    reads = sorted(
        f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in internals
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )
    assert not reads, f"{module} reads store internals: {reads}"


ARCHIVE_CODEC = {"frombuffer", "fromfile", "tofile", "tobytes", "check_tensor_specs"}


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(bilayer.__file__).parent.glob("*.py") if p.name != "params.py"
))
def test_one_tensor_archive_codec(module):
    """Only `params.py` turns arrays into archive bytes or bytes back into
    arrays, and only it checks tensor specs: every other module reads and
    writes a manifest-and-blob archive through `write_archive`,
    `read_manifest` and `read_tensors`."""
    used = _names(module) & ARCHIVE_CODEC
    assert not used, f"{module} reads or writes archive bytes itself: {sorted(used)}"


# public names no module of the package calls, each with the caller that keeps it
UNCALLED = {
    "binary_predicates": "the perfbench query round",
    "expected_truth": "the perfbench query round",
    "iter_positive": "the perfbench query round",
    "iter_negative": "the perfbench query round",
    "loss_and_grads": "the entry point of the finite-difference gradient tests",
}


def _public_definitions() -> list[tuple[str, str, ast.AST]]:
    """(module, qualified name, node) of every public top-level function and
    class, and every public method of a top-level class, in the package."""
    out = []
    for path in sorted(Path(bilayer.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                out.append((path.name, node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(path.name, f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def test_every_public_name_has_a_caller_in_the_package():
    """Code that no run path uses is deleted: every public definition is
    named, as a name or an attribute, somewhere in the package outside
    `__init__.py` and outside its own definition.  Names are matched, not
    types, so a method that shares its name with another type's attribute
    escapes this check: a `NetParams.astype` with no caller would pass,
    because `ndarray.astype` is called."""
    named: dict[str, list[ast.AST]] = {}
    for path in Path(bilayer.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                named.setdefault(node.attr, []).append(node)
    uncalled = {}
    for module, qualname, definition in _public_definitions():
        own = {id(n) for n in ast.walk(definition)}
        name = qualname.rsplit(".", 1)[-1]
        if all(id(n) in own for n in named.get(name, ())):
            uncalled[name] = f"{module}: {qualname}"
    assert not uncalled.keys() - UNCALLED, sorted(uncalled[n] for n in uncalled.keys() - UNCALLED)
    assert uncalled.keys() == UNCALLED.keys(), "an allowlisted name has a caller or is gone"


# config classes whose fields are settings, and the fields kept with no reader
# outside the class, each with the caller that keeps it
SETTINGS = {
    "training.py": "TrainConfig", "evaluation.py": "EvalContext", "world.py": "WorldConfig",
}
UNREAD_SETTINGS: dict[str, str] = {}


@pytest.mark.parametrize("module", sorted(SETTINGS))
def test_every_setting_is_read_outside_its_class(module):
    """A setting no run path reads is deleted, not kept as an option: every
    public field of `TrainConfig`, `EvalContext` and `WorldConfig` is read as an attribute
    (matched by name) somewhere in the package outside its own class body."""
    package = Path(bilayer.__file__).parent
    tree = ast.parse((package / module).read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == SETTINGS[module])
    settings = {n.target.id for n in cls.body
                if isinstance(n, ast.AnnAssign) and not n.target.id.startswith("_")}
    inside = {id(n) for n in ast.walk(cls)}
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(tree if path.name == module else ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in inside):
                read.add(node.attr)
    unread = sorted(settings - read - UNREAD_SETTINGS.keys())
    assert not unread, f"{SETTINGS[module]} fields that nothing reads: {unread}"


def _attribute_reads(tree: ast.AST, skip=()) -> set[str]:
    """The attribute names `tree` reads, outside the functions named in `skip`."""
    skipped = {id(n) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in skip for n in ast.walk(node)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped}


def test_every_world_field_has_a_reader():
    """A world keeps no state that nothing reads: every public field of
    `GroundTruthWorld` and of its records, `SceneRecord` and `EntityRecord`,
    is read as an attribute (matched by name) by some function other than
    the three that make, write and load them all."""
    package = Path(bilayer.__file__).parent
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in package.glob("*.py")}
    outside = set().union(*(_attribute_reads(t) for name, t in trees.items() if name != "world.py"))
    read = outside | _attribute_reads(trees["world.py"],
                                      skip=("gen_world", "export_world", "load_world"))
    unread = [f"{cls.__name__}.{f.name}"
              for cls in (bilayer.world.GroundTruthWorld, bilayer.world.SceneRecord,
                          bilayer.world.EntityRecord)
              for f in dataclasses.fields(cls) if not f.name.startswith("_") and f.name not in read]
    assert not unread, f"world fields that nothing reads: {unread}"


def test_every_trace_field_is_read_outside_network_py():
    """A decode trace holds only what some reader takes from it: every field
    of `DecodeTrace` is read as an attribute (matched by name) in a package
    module other than `network.py`, which fills them, or in a benchmark
    script under `perfbench/`."""
    package = Path(bilayer.__file__).parent
    paths = [path for path in package.glob("*.py") if path.name != "network.py"]
    paths += Path(__file__).resolve().parents[1].joinpath("perfbench").glob("*.py")
    read = set().union(*(_attribute_reads(ast.parse(path.read_text("utf-8"))) for path in paths))
    unread = [f.name for f in dataclasses.fields(network.DecodeTrace) if f.name not in read]
    assert not unread, f"DecodeTrace fields that nothing reads: {unread}"


def test_the_ontology_is_one_constant():
    """Every world is made of the same symbols: the package constructs an
    `Ontology` at one site, the module constant `ONTOLOGY`."""
    calls, constants = 0, []
    for path in Path(bilayer.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += _calls(tree, "Ontology")
        constants += [target.id for node in tree.body
                      if isinstance(node, ast.Assign) and _calls(node.value, "Ontology")
                      for target in node.targets]
    assert calls == 1 and constants == ["ONTOLOGY"], (calls, constants)


@pytest.mark.parametrize("concept_attention", [False, True])
@pytest.mark.parametrize("binary", [False, True])
def test_each_scored_step_scores_once(monkeypatch, binary, concept_attention):
    """A perception pass computes one score product per scored step and one
    for the labels, with or without concept attention: the instance mixture
    is weighted by the block its step scored, the entity mixture by that
    block's entity columns."""
    v = small_vocab()
    params, cmap = small_params(v)
    calls, inner = [], network.index_scores

    def counted(*args):
        calls.append(args[2])
        return inner(*args)

    monkeypatch.setattr(network, "index_scores", counted)
    boxes = np.random.default_rng(0).standard_normal((4, 6))
    feats = network.SceneInput(*boxes) if binary else network.SceneInput(*boxes[:2])
    request = network.DecodeRequest(mode="perception", features=feats, instance_attention=True,
                                    concept_attention=concept_attention)
    network.decode_many(params, cmap, v, [request, request], np.random.default_rng(0))
    specs = network.schedule("perception", binary, False)
    assert len(calls) == sum(spec.group is not None for spec in specs) + 1, calls


def test_symbols_are_numbered_in_one_place():
    """`Vocabulary.from_dict` is the one bulk build.  The methods that append
    one symbol (those that call `_register`) are growth's `add_entity` and
    `add_instance`, and outside `vocab.py` only `ssl_step` and `consolidate`
    call them; `world.py` calls none.  No other module constructs a
    `Vocabulary` from lists or touches its tables."""
    tree = ast.parse((Path(bilayer.__file__).parent / "vocab.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Vocabulary")
    tables = {n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)}
    appenders = {m.name for m in cls.body if isinstance(m, ast.FunctionDef)
                 and m.name != "__post_init__" and _method_calls(m, "_register")}
    assert appenders == {"add_entity", "add_instance"}
    callers, built, touched = set(), [], []
    for path in sorted(Path(bilayer.__file__).parent.glob("*.py")):
        if path.name == "vocab.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {(path.name, fn.name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                    and any(_method_calls(fn, name) for name in appenders)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Vocabulary" and (node.args or node.keywords)):
                built.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Attribute) and node.attr in tables
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                touched.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert callers == {("training.py", "ssl_step"), ("training.py", "consolidate")}, callers
    assert not built and not touched, (built, touched)


def test_no_deep_copies():
    """State is copied by the owner's own `copy` (`Vocabulary.copy`,
    `NetParams.copy`), never by `copy.deepcopy`, which walks every object."""
    for path in sorted(Path(bilayer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "deepcopy" not in named, path.name


# the attributes of a `NetParams` that are its one buffer and views into it
PARAM_BUFFERS = {"flat", *block_shapes(NetConfig(), (0,) * 5)}


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(bilayer.__file__).parent.glob("*.py") if p.name != "params.py"
))
def test_no_parameter_block_is_rebound_outside_params(module):
    """A parameter block is a view into its `NetParams`' one buffer, which
    Adam steps and a checkpoint writes.  Rebinding it (`params.emb = ...`)
    would split it from that buffer, so only `params.py` binds them; every
    other module writes a block in place (`+=`, `[...] =`)."""
    tree = ast.parse((Path(bilayer.__file__).parent / module).read_text(encoding="utf-8"))
    in_place = {id(n.target) for n in ast.walk(tree) if isinstance(n, ast.AugAssign)}
    bound = [f"{module}:{n.lineno} .{n.attr}" for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
             and n.attr in PARAM_BUFFERS and id(n) not in in_place]
    assert not bound, bound


def _imported(tree: ast.AST) -> set[str]:
    """The names `tree`'s import statements bind, `__future__`'s aside."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out |= {a.asname or a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", sorted(
    p.name for p in Path(bilayer.__file__).parent.glob("*.py") if p.name != "__init__.py"
))
def test_every_imported_name_is_read(module):
    """No unused import lingers, with no linter installed: each name a
    module imports is read in it, as a name, in code or in an annotation."""
    tree = ast.parse((Path(bilayer.__file__).parent / module).read_text(encoding="utf-8"))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = sorted(_imported(tree) - read)
    assert not unused, f"{module} imports {unused} and never reads them"
