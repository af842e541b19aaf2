"""Command-line entry point.

One binary, five subcommands:

    bilayer gen   --config world.json --out DIR
    bilayer train WORLD_DIR --config train.json --out DIR [--checkpoint BASE]
    bilayer decode CHECKPOINT --world WORLD_DIR --mode MODE [--t NAME] [--s NAME]
                   [--gamma G] [--n N] --out DIR
    bilayer eval  CHECKPOINT WORLD_DIR --experiments NAMES --out DIR
    bilayer ssl   CHECKPOINT WORLD_DIR --out DIR [--config train.json]

stdout carries data (JSON Lines); logs go to stderr.  Exit codes: 0 ok,
2 usage, 3 data error, 4 numeric failure.

The `--config` of train, eval and ssl is one flat JSON object.  Its keys are
the `TrainConfig` fields (epochs, batch_size, learning_rate, seed, modes,
inject_rho, hidden_families, excluded_families, ssl_learning_rate,
ssl_epochs, novelty_threshold) and the network widths of
`NetConfig` (rep_dim, ctx_dim, dtype); feature_dim comes from the world.
`bilayer train` writes the config it trained with in this shape, as
train-config.json.  The `--config` of gen is a flat `WorldConfig`, the shape
of the `config.json` every world directory holds, so `bilayer gen --config
W/config.json` writes W's files again byte for byte.  A file that is not a
JSON object, or a key that is not one of these, exits 2 (usage) with one
line that names the unknown keys and lists the valid ones.  A setting of the
wrong type or out of range (a train or world setting whose type is not its
default's, a bare string for a list of modes or families, a family the
vocabulary lacks, a network width that is not a positive int) exits 3
(data), also with one line, as does a decode clamp of the wrong kind (an
episodic or fuse `--t` that is not an instance, an `--s` that is not an
entity, class or attribute).

A command writes a manifest.json into --out recording config/input hashes and
outputs, even if its run fails; what eval and ssl refuse before the run (an
unknown experiment, an unreadable checkpoint, nothing left to perceive) writes
nothing.  Timestamps live only there; other files rerun byte for byte.

`bilayer ssl` writes the vocabulary it grew beside its checkpoint, as
vocab.json.  A command that reads a checkpoint takes its symbols from that
file when its sha256 is the checkpoint's and it extends the world's
vocabulary (each world symbol keeps its kind, family and place within its
kind), else from the world.  Training resumed from it writes one too.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import fields

from . import __version__
from .evaluation import EXPERIMENTS, EvalContext, EvalError, check_experiments, run_experiment
from .network import (
    DecodeRequest,
    NetworkError,
    NumericsError,
    SceneInput,
    decode,
    fused_stream,
)
from .params import (
    ColumnMap,
    NetConfig,
    NetParams,
    ParamError,
    check_keys,
    load_checkpoint,
    read_checkpoint_manifest,
    read_json,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    TrainError,
    TrainingDiverged,
    ssl_step,
    train,
    write_history_csv,
)
from .triple_store import StoreError, write_statements
from .vocab import IDENTITY_FAMILY, VocabError, Vocabulary
from .world import (
    GroundTruthWorld,
    WorldConfig,
    WorldError,
    export_world,
    gen_world,
    load_world,
    read_vocab,
    substream,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

log = logging.getLogger("bilayer")


class UsageError(ValueError):
    pass


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


_NET_KEYS = tuple(f.name for f in fields(NetConfig) if f.name != "feature_dim")


def _split_train_config(args: argparse.Namespace,
                        world: GroundTruthWorld) -> tuple[TrainConfig, NetConfig]:
    """The optimizer settings and network widths of one flat `--config` file."""
    doc = read_json(args.config) if args.config else {}
    check_keys("bad train config", doc, [f.name for f in fields(TrainConfig)] + list(_NET_KEYS),
               error=UsageError)
    net_doc = {k: v for k, v in doc.items() if k in _NET_KEYS}
    train_doc = {k: v for k, v in doc.items() if k not in _NET_KEYS}
    if args.seed is not None:
        train_doc["seed"] = args.seed
    return (TrainConfig.from_dict(train_doc),
            NetConfig(feature_dim=world.config.feature_dim, **net_doc))


def _manifest_run(command: str, args: argparse.Namespace, inputs: list[str], body) -> None:
    """Run a command body, then write the manifest (also on failure)."""
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": getattr(args, "config", None),
        "config_sha256": _sha256_file(args.config) if getattr(args, "config", None) else None,
        "inputs": {p: _sha256_file(p) for p in inputs if os.path.isfile(p)},
        "input_dirs": [p for p in inputs if os.path.isdir(p)],
        "outputs": [],
        "status": "failed",
        "started_at": time.time(),
    }
    try:
        manifest["outputs"] = body()
        manifest["status"] = "ok"
    finally:
        manifest["finished_at"] = time.time()
        with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fp:
            json.dump(manifest, fp, indent=2, sort_keys=True)
            fp.write("\n")


def _world_inputs(world_dir: str) -> list[str]:
    names = ("config.json", "vocab.json", "triples.jsonl", "features.json", "features.bin",
             "world.json")
    return [os.path.join(world_dir, n) for n in names]


def _checkpoint_base(checkpoint: str) -> str:
    return checkpoint[:-5] if checkpoint.endswith(".json") else checkpoint


def _checkpoint_inputs(checkpoint: str) -> list[str]:
    base = _checkpoint_base(checkpoint)
    return [base + ".json", base + ".bin"]


def _load_model(checkpoint: str, world: GroundTruthWorld) -> tuple[NetParams, ColumnMap]:
    """The checkpoint's parameters and column map.  The vocab.json beside the
    checkpoint becomes the world's vocabulary when its digest is the one the
    checkpoint records and it extends the world's; call this before the
    world's store is built."""
    base = _checkpoint_base(checkpoint)
    beside = os.path.join(os.path.dirname(base), "vocab.json")
    if os.path.isfile(beside):
        grown = read_vocab(beside)
        if (grown.digest() == read_checkpoint_manifest(base)["vocab_sha256"]
                and grown.extends(world.vocab)):
            world.vocab = grown
    return load_checkpoint(base, world.vocab), ColumnMap(world.vocab)


def _write_vocab(vocab: Vocabulary, outdir: str) -> str:
    with open(os.path.join(outdir, "vocab.json"), "w", encoding="utf-8") as fp:
        fp.write(vocab.dumps() + "\n")
    return "vocab.json"


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> None:
    doc = read_json(args.config) if args.config else {}
    check_keys("bad world config", doc, [f.name for f in fields(WorldConfig)], error=UsageError)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = WorldConfig(**doc)

    def body() -> list[str]:
        world = gen_world(config)
        written = export_world(world, args.out)
        store = world.build_store()
        _emit(
            {
                "event": "world",
                "entities": len(world.entities),
                "test_entities": len(world.test_entities),
                "scenes": len(world.scenes),
                "instances": len(world.vocab.instances),
                "triples": store.total_statements(True),
                "negatives": store.total_statements(False),
                "held_out_combos": len(world.heldout),
                "out": args.out,
            }
        )
        return written

    _manifest_run("gen", args, [args.config] if args.config else [], body)


def cmd_train(args: argparse.Namespace) -> None:
    world = load_world(args.world)
    own_vocab = world.vocab
    train_config, net_config = _split_train_config(args, world)

    def body() -> list[str]:
        if args.checkpoint:
            params, _ = _load_model(args.checkpoint, world)
            if params.config.to_dict() != net_config.to_dict():
                log.info("resuming with the checkpoint's network shape")
        else:
            params = NetParams.init(
                world.vocab, net_config, substream(train_config.seed, "init")
            )
        cmap = ColumnMap(world.vocab)
        history = train(params, cmap, world.vocab, world.build_store(), train_config, world=world)
        for row in history:
            _emit({"event": "epoch", **row})
        save_checkpoint(params, world.vocab, os.path.join(args.out, "model"))
        with open(os.path.join(args.out, "history.csv"), "w", encoding="utf-8") as fp:
            write_history_csv(history, fp)
        # the flat --config document of the shape actually trained, which is
        # the checkpoint's on a resume
        net_doc = {k: v for k, v in params.config.to_dict().items() if k in _NET_KEYS}
        with open(os.path.join(args.out, "train-config.json"), "w", encoding="utf-8") as fp:
            json.dump({**train_config.to_dict(), **net_doc}, fp, indent=2, sort_keys=True)
            fp.write("\n")
        final = history[-1]["loss"] if history else None  # JSON null, not NaN
        _emit({"event": "trained", "checkpoint": "model.json", "final_loss": final})
        outputs = ["model.json", "model.bin", "history.csv", "train-config.json"]
        if world.vocab is not own_vocab:  # resumed with the vocabulary `bilayer ssl` grew
            outputs.append(_write_vocab(world.vocab, args.out))
        return outputs

    inputs = _world_inputs(args.world) + ([args.config] if args.config else [])
    _manifest_run("train", args, inputs, body)


def _decode_record(trace, vocab: Vocabulary, mode: str) -> dict:
    name = lambda i: None if i is None else vocab.name_of(i)  # noqa: E731
    return {
        "mode": mode,
        "t": name(trace.instance_id),
        "s": name(trace.subject_id),
        "p": name(trace.predicate_id),
        "o": name(trace.object_id),
        "labels": {fam: vocab.name_of(i) for fam, i in sorted(trace.labels.items())},
    }


def cmd_decode(args: argparse.Namespace) -> None:
    if args.n < 0:
        raise UsageError(f"--n must be a nonnegative number of passes, not {args.n}")
    world = load_world(args.world)

    def body() -> list[str]:
        params, cmap = _load_model(args.checkpoint, world)
        vocab = world.vocab
        rng = substream(args.seed if args.seed is not None else 0, "decode", args.mode)

        def request(mode: str, **kwargs) -> DecodeRequest:
            return DecodeRequest(mode=mode, subject_support=args.support,
                                 object_support=args.support, **kwargs)

        def record(req: DecodeRequest, r) -> dict:
            return _decode_record(decode(params, cmap, vocab, req, r), vocab, args.mode)

        if args.mode == "fuse":
            if not args.t:
                raise UsageError("fuse needs --t INSTANCE")
            if args.gamma is None:
                raise UsageError("fuse needs --gamma")
            t = vocab.id_of(args.t)
            n_obs = world.build_store().n_statements(t)
            episodic, semantic = request("episodic", instance_id=t), request("semantic")
            for rec in fused_stream(lambda r: record(semantic, r), lambda r: record(episodic, r),
                                    args.gamma, n_obs, rng, args.n):
                _emit(rec)
            return []

        if args.mode == "perceive":
            if not args.t:
                raise UsageError("perceive needs --t SCENE")
            scene = world.scene(args.t)
            keys = [
                (scene.bb_key(s_name), scene.bb_key(o_name), scene.rel_key(i))
                for i, (s_name, _p, o_name) in enumerate(scene.binaries)
            ] or [(scene.bb_key(m),) for m in scene.members]
            passes = [
                request("perception", instance_attention=True,
                        features=SceneInput(*world.features_of([scene.scene_key, *boxes])))
                for boxes in keys
            ]
        elif args.mode == "episodic":
            if not args.t:
                raise UsageError("episodic needs --t INSTANCE")
            passes = [request("episodic", instance_id=vocab.id_of(args.t))] * args.n
        elif args.mode == "semantic":
            subject = vocab.id_of(args.s) if args.s else None
            passes = [request("semantic", subject_id=subject)] * args.n
        else:
            raise UsageError(f"unknown mode {args.mode!r}")
        for req in passes:
            _emit(record(req, rng))
        return []

    inputs = _world_inputs(args.world) + _checkpoint_inputs(args.checkpoint)
    _manifest_run("decode", args, inputs, body)


def cmd_eval(args: argparse.Namespace) -> None:
    world = load_world(args.world)
    names = (
        sorted(EXPERIMENTS) if args.experiments == "all"
        else [n.strip() for n in args.experiments.split(",") if n.strip()]
    )
    if not names:
        raise UsageError("no experiments named")
    params, cmap = _load_model(args.checkpoint, world)
    check_experiments(names, world, world.vocab)

    def body() -> list[str]:
        train_config, net_config = _split_train_config(args, world)
        ctx = EvalContext(
            world=world, store=world.build_store(), vocab=world.vocab, params=params, cmap=cmap,
            net_config=net_config, train_config=train_config,
            seed=args.seed if args.seed is not None else train_config.seed,
        )
        outputs = []
        rows = []
        for name in names:
            report = run_experiment(name, ctx)
            log.info("experiment %s done in %.1fs", name, report.wall_clock_s)
            fname = f"report-{name}.json"
            with open(os.path.join(args.out, fname), "w", encoding="utf-8") as fp:
                json.dump(report.to_dict(volatile=False), fp, indent=2, sort_keys=True)
                fp.write("\n")
            outputs.append(fname)
            rows.extend(report.rows())
            _emit({"event": "report", **report.to_dict(volatile=False)})
        with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fp:
            fp.write("experiment,metric,value\n")
            for exp, metric, value in rows:
                fp.write(f"{exp},{metric},{value}\n")
        with open(os.path.join(args.out, "index.json"), "w", encoding="utf-8") as fp:
            json.dump({"reports": outputs, "csv": "metrics.csv"}, fp, indent=2, sort_keys=True)
            fp.write("\n")
        return outputs + ["metrics.csv", "index.json"]

    inputs = _world_inputs(args.world) + _checkpoint_inputs(args.checkpoint)
    _manifest_run("eval", args, inputs, body)


def cmd_ssl(args: argparse.Namespace) -> None:
    world = load_world(args.world)
    params, cmap = _load_model(args.checkpoint, world)
    unlabeled = [s.name for s in world.scenes_of_kind("unlabeled")]
    if all(name in world.vocab for name in unlabeled):
        raise TrainError(f"{args.checkpoint}: no unlabeled scene is left to perceive")

    def body() -> list[str]:
        vocab = world.vocab
        config, _ = _split_train_config(args, world)
        store = world.build_store()
        grown, _, report = ssl_step(params, cmap, vocab, world, unlabeled, config, store=store)
        save_checkpoint(grown, vocab, os.path.join(args.out, "model"))
        _write_vocab(vocab, args.out)
        ha = vocab.has_attribute
        quads = [(ex["s"], ha, ex["o"], ex["t"])
                 for ex in report.pseudo_unary if ex["fam"] != IDENTITY_FAMILY]
        quads += [(ex["s"], ex["p"], ex["o"], ex["t"]) for ex in report.pseudo_binary]
        with open(os.path.join(args.out, "pseudo.jsonl"), "w", encoding="utf-8") as fp:
            write_statements(fp, vocab, quads, provenance="ssl")
        summary = {
            "event": "ssl",
            "new_instances": len(report.new_instances),
            "new_entities": len(report.new_entities),
            "pseudo_statements": len(report.pseudo_unary) + len(report.pseudo_binary),
        }
        log.info(
            "vocabulary grew by %d instances and %d entities; skipped %d scenes it held",
            len(report.new_instances), len(report.new_entities), report.skipped,
        )
        _emit(summary)
        return ["model.json", "model.bin", "vocab.json", "pseudo.jsonl"]

    inputs = (
        _world_inputs(args.world)
        + _checkpoint_inputs(args.checkpoint)
        + ([args.config] if args.config else [])
    )
    _manifest_run("ssl", args, inputs, body)


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilayer",
        description="Bilayer index/representation network over a symbolic triple store",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic world")
    p.add_argument("--config", help="flat JSON world config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model on a generated world")
    p.add_argument("world", help="world directory from `bilayer gen`")
    p.add_argument("--config", help="flat JSON train/network config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="resume from this checkpoint")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("decode", help="stream sampled statements from a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--world", required=True)
    p.add_argument("--mode", required=True, choices=("perceive", "episodic", "semantic", "fuse"))
    p.add_argument("--t", help="instance (episodic/fuse) or scene (perceive) name")
    p.add_argument("--s", help="subject clamp for semantic mode")
    p.add_argument("--gamma", type=float, help="background concentration for fuse")
    p.add_argument("--n", type=int, default=100, help="number of sampled passes")
    p.add_argument("--seed", type=int)
    p.add_argument("--support", choices=("concepts", "entities"), default="entities",
                   help="index support for subject/object sampling")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("eval", help="run experiment scenarios and write reports")
    p.add_argument("checkpoint")
    p.add_argument("world")
    p.add_argument("--experiments", default="all",
                   help="comma-separated scenario names, or 'all'")
    p.add_argument("--config", help="train config for scenarios that train models")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ssl", help="self-labeled growth on the unlabeled shard")
    p.add_argument("checkpoint")
    p.add_argument("world")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ssl)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except UsageError as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (TrainingDiverged, NumericsError) as exc:
        log.error("%s", exc)
        return EXIT_NUMERIC
    except (
        VocabError, StoreError, WorldError, ParamError, EvalError,
        TrainError, NetworkError, OSError, json.JSONDecodeError, KeyError,
    ) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
