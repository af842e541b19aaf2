"""A seeded command-line run pinned by the sha256 of what it writes.

`bilayer gen` on the tiny world, `bilayer train` for 2 epochs in all three
modes, then, from that checkpoint, the `bilayer decode` streams of every
mode (stdout), `bilayer eval --experiments all` with the run's config and
`bilayer ssl`.  Four more 2-epoch runs from the same world pin the
checkpoints of the other train configs: untied, dropout, direct and
episodic-only.  Every step runs in a fresh interpreter with one BLAS thread,
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
    "untied": {"tied": False},
    "dropout": {"dropout": 0.2},
    "direct": {"direct": True, "modes": ["perception"]},
    "episodic": {"modes": ["episodic"]},
}
EXPERIMENTS = ("consolidation-fidelity", "episodic-recall", "hidden-label-enrichment",
               "perception-binary", "perception-unary", "semantic-recall", "social-recall",
               "ssl-before-after", "zero-shot-binary")

PINNED = {
    "run/model.json": "9a055db2e5722f8d65188bf4af08d730706864758f3498b65a7b14ba9ac257c4",
    "run/model.bin": "0e2d39688ca2ec38b3e88489009e6458d4fa6a22ec403b6c12db970332e942e8",
    "decode/perceive.jsonl": "3ff4ef0e96726887607f3cecdcbc3b1d8ea341f0a09f22312ebe6cca8b833648",
    "decode/episodic.jsonl": "da3736f91cdd84616259b992974a676851359bf41283c6ac78b801a9c0b74023",
    "decode/semantic.jsonl": "abc36018d5ae06a9947cad1fc8444425b106096ad21dde74f011110e57575d8f",
    "decode/semantic-s.jsonl": "14e0133ee2d8df3d39577ea5f0fd7dcbe6913808d1116ff968cb145e5508a363",
    "decode/fuse.jsonl": "23fa9acc6609b4b7d410c5ece17caf248701cd8b56a3197ff76f35f86632aca3",
    "eval/report-consolidation-fidelity.json": "f26bf684523537415a45ea54280f9665839bc9cbc2ff66dad1a3adabb8893a6a",
    "eval/report-episodic-recall.json": "64a58b28e46e699b8f5b38c0556c4b2c5e431c698659f8eaa329befc97f0d5da",
    "eval/report-hidden-label-enrichment.json": "ed9031965b6621fc22b2fabf715f591175128416ca2cbef963c3a23b7e7bfe73",
    "eval/report-perception-binary.json": "7ce5da19332053e1325355d3efde427e323b2fa9b361b480c6d7a89bcafe849b",
    "eval/report-perception-unary.json": "d810270e15f9114158d6275e5368718c575116765242b81d9f2bceea5aff48e6",
    "eval/report-semantic-recall.json": "eaeb711487c1a5125bb704510745070a4f7ade8f14c6dcf3649ab3436bed2f99",
    "eval/report-social-recall.json": "80d96d210aec28522f8d753887b73f22a37d7735d4105eb83e6402ea9aca16c6",
    "eval/report-ssl-before-after.json": "c99be3a1c7abc7ce7148cb1a91ef57ecfacf4eb9024b044f6b215f86ae76394f",
    "eval/report-zero-shot-binary.json": "f93306adc19b970b6b44a0dbdb44fac60014a7ad0bbdc43b62f859cc1c263f19",
    "ssl/model.bin": "d562edc32563bd57c579ed2e21e6202d7373cd5a05d4713af120eaf663305206",
    "ssl/pseudo.jsonl": "0bdb444768fbe5dc20dd655584be8b6876d63cfa724bdbdc99006e124a513a30",
    "ssl/vocab.json": "e9a2d28bad0269da170765f4a171276bbd7c744f1733340f8f57cd35047acb69",
    "train-untied/model.bin": "3b15d548008aba3512a0b552dde0550fbd741bd1a09282db6aafa30201b8860e",
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
