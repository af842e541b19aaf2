"""A seeded command-line run pinned by the sha256 of what it writes.

`bilayer gen` on the tiny world, `bilayer train` for 2 epochs in all three
modes, then, from that checkpoint, the `bilayer decode` streams of every
mode (stdout), `bilayer eval --experiments all` with the run's config and
`bilayer ssl`.  Three more 2-epoch runs from the same world pin the
checkpoints of the other train configs: dropout, direct and episodic-only.  Every step runs in a fresh interpreter with one BLAS thread,
so a change of any arithmetic, draw order or file layout on the path shows
up as a moved digest.  Unlike
`TestGeneration`'s pins these hold float arithmetic, so they are tied to the
numpy and BLAS builds they were taken with.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import bilayer

WORLD_CONFIG = {
    "n_entities": 60, "n_scenes": 12, "n_test_entities": 6, "n_test_scenes": 2,
    "zero_shot_per_combo": 2, "unlabeled_fraction": 0.2, "seed": 3,
}
TRAIN_CONFIG = {"epochs": 2, "batch_size": 64, "learning_rate": 3e-3, "rep_dim": 16, "ctx_dim": 8}
# each decode stream's stdout file and its arguments; t0001 is a train scene with binary
# statements, and gamma 20 mixes both sources into the fused stream
DECODES = {
    "decode/perceive.jsonl": ["--mode", "perceive", "--t", "t0001"],
    "decode/episodic.jsonl": ["--mode", "episodic", "--t", "t0001", "--n", "5"],
    "decode/semantic.jsonl": ["--mode", "semantic", "--n", "5"],
    "decode/semantic-s.jsonl": ["--mode", "semantic", "--s", "e0001", "--n", "5"],
    "decode/fuse.jsonl": ["--mode", "fuse", "--t", "t0001", "--gamma", "20", "--n", "8"],
}
# each further train run's output directory and what it changes in TRAIN_CONFIG
VARIANTS = {
    "dropout": {"dropout": 0.2},
    "direct": {"direct": True, "modes": ["perception"]},
    "episodic": {"modes": ["episodic"]},
}
EXPERIMENTS = ("consolidation-fidelity", "episodic-recall", "hidden-label-enrichment",
               "perception-binary", "perception-unary", "semantic-recall", "social-recall",
               "ssl-before-after", "zero-shot-binary")

PINNED = {
    "run/model.json": "266d035d61c059b5d3bd152e157aa70a6add3fe6dc70159f7e5d6b2dc9731447",
    "run/model.bin": "0e2d39688ca2ec38b3e88489009e6458d4fa6a22ec403b6c12db970332e942e8",
    "decode/perceive.jsonl": "3ff4ef0e96726887607f3cecdcbc3b1d8ea341f0a09f22312ebe6cca8b833648",
    "decode/episodic.jsonl": "da3736f91cdd84616259b992974a676851359bf41283c6ac78b801a9c0b74023",
    "decode/semantic.jsonl": "abc36018d5ae06a9947cad1fc8444425b106096ad21dde74f011110e57575d8f",
    "decode/semantic-s.jsonl": "14e0133ee2d8df3d39577ea5f0fd7dcbe6913808d1116ff968cb145e5508a363",
    "decode/fuse.jsonl": "23fa9acc6609b4b7d410c5ece17caf248701cd8b56a3197ff76f35f86632aca3",
    "eval/report-consolidation-fidelity.json": "22650e5944c8b835cb3be8b4bb6f42716a52de9aec08a7a33099484eabeecc67",
    "eval/report-episodic-recall.json": "c41bee6b568350aed3ad3f331f6d0c6574a474562abaad27600910f76c440f5a",
    "eval/report-hidden-label-enrichment.json": "c859b41a487bf48522f2fcdad3927c899144daf6f8f58cfb7e7dbfea918305a8",
    "eval/report-perception-binary.json": "d58efab327a2c6b9b35f160be54897f849bec7f85e2bcca971b648ef71a21f28",
    "eval/report-perception-unary.json": "1d1923522a962e19e85ba51c116756b77fced63ee1536715e364fd80caf0691a",
    "eval/report-semantic-recall.json": "7a99a8d0245ffbe213e3710662708203416504cb2601b5a73f5a8b0286def11c",
    "eval/report-social-recall.json": "a85ade9a332960d09cc669ae3283cbe68d35fca6dc62a6585d0ece179050a92e",
    "eval/report-ssl-before-after.json": "5da19f828847972bf5bc5d76269c1888c85f370cd99ec86fc5210c8433ec4ac9",
    "eval/report-zero-shot-binary.json": "8cee0f9b5d71eb3937f2c8a4162876f34737a9f623c169827efca9c6e8631a19",
    "ssl/model.bin": "d562edc32563bd57c579ed2e21e6202d7373cd5a05d4713af120eaf663305206",
    "ssl/pseudo.jsonl": "0bdb444768fbe5dc20dd655584be8b6876d63cfa724bdbdc99006e124a513a30",
    "ssl/vocab.json": "e9a2d28bad0269da170765f4a171276bbd7c744f1733340f8f57cd35047acb69",
    "train-dropout/model.bin": "8f6fc576b53b7abd6e90fbfd93a3b1f718f9ebdf5cda171a372b8da0a2d52cba",
    "train-direct/model.bin": "08ddc8ab311a3517015e7fcbe68be90d3710c01f7e630b81bb4ad52c4c9a4871",
    "train-episodic/model.bin": "f8cd400a5f6f65d1487974ce9a38b37c36fc679f9949b22e8c864797e0a41228",
}

REPIN = (
    "A seeded run's output moved.  If this change is meant to move it, declare that in "
    "CHANGES.md and re-pin PINNED in tests/test_pinned_run.py from the digests below.  If "
    "nothing on the path changed, a numpy or BLAS upgrade is the likely cause: rerun the "
    "test at the previous commit on this machine, and re-pin when that run fails the same "
    "way."
)


def _bilayer(*args: str) -> str:
    """Run one command in a fresh interpreter; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bilayer.__file__).resolve().parent.parent)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "bilayer.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_seeded_run_matches_pinned_digests(tmp_path):
    for name, doc in (("world.json", WORLD_CONFIG), ("train.json", TRAIN_CONFIG)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    world, run = str(tmp_path / "world"), str(tmp_path / "run")
    _bilayer("gen", "--config", str(tmp_path / "world.json"), "--out", world)
    _bilayer("train", world, "--config", str(tmp_path / "train.json"), "--seed", "1",
             "--out", run)
    for variant, change in VARIANTS.items():
        config = tmp_path / f"train-{variant}.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, **change}), encoding="utf-8")
        _bilayer("train", world, "--config", str(config), "--seed", "1",
                 "--out", str(tmp_path / f"train-{variant}"))
    model = os.path.join(run, "model.json")
    (tmp_path / "decode").mkdir()
    for name, args in DECODES.items():
        (tmp_path / name).write_text(
            _bilayer("decode", model, "--world", world, *args, "--seed", "1",
                     "--out", str(tmp_path / "decode" / "out")), encoding="utf-8")
    for command, out, extra in (("eval", "eval", ["--experiments", "all"]), ("ssl", "ssl", [])):
        _bilayer(command, model, world, *extra, "--config", str(tmp_path / "train.json"),
                 "--seed", "1", "--out", str(tmp_path / out))
    assert sorted(os.listdir(tmp_path / "eval")) == sorted(
        [f"report-{name}.json" for name in EXPERIMENTS]
        + ["index.json", "manifest.json", "metrics.csv"])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    moved = {name: digest for name, digest in got.items() if digest != PINNED[name]}
    assert not moved, REPIN + "\n" + json.dumps(got, indent=4)
