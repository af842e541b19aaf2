"""A seeded command-line run pinned by the sha256 of what it writes.

`bilayer gen` on the tiny world, `bilayer train` for 2 epochs in all three
modes, then, from that checkpoint, the `bilayer decode` streams of every
mode (stdout), `bilayer eval --experiments all` with the run's config and
`bilayer ssl`.  Every step runs in a fresh interpreter with one BLAS thread,
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
EXPERIMENTS = ("consolidation-fidelity", "episodic-recall", "hidden-label-enrichment",
               "perception-binary", "perception-unary", "semantic-recall", "social-recall",
               "ssl-before-after", "zero-shot-binary")

PINNED = {
    "run/model.json": "c5527056da0b637a3323097e5f4a22363188594207a6c5452e20cbda4eb36e51",
    "run/model.bin": "4d5a9a50c810c1291cd2c2cae7fc2f5c94a7a08d7143bd8f6848d8b1380813c5",
    "decode/perceive.jsonl": "3ff4ef0e96726887607f3cecdcbc3b1d8ea341f0a09f22312ebe6cca8b833648",
    "decode/episodic.jsonl": "da3736f91cdd84616259b992974a676851359bf41283c6ac78b801a9c0b74023",
    "decode/semantic.jsonl": "abc36018d5ae06a9947cad1fc8444425b106096ad21dde74f011110e57575d8f",
    "decode/semantic-s.jsonl": "14e0133ee2d8df3d39577ea5f0fd7dcbe6913808d1116ff968cb145e5508a363",
    "decode/fuse.jsonl": "23fa9acc6609b4b7d410c5ece17caf248701cd8b56a3197ff76f35f86632aca3",
    "eval/report-consolidation-fidelity.json": "13619ab985cb0207096d3730140d465ad13faa101f38cdff7efd7fc8675ef288",
    "eval/report-episodic-recall.json": "60a46a22c408bc16482f8d79ff49a281cb7cba573766a672c7f01e4695827772",
    "eval/report-hidden-label-enrichment.json": "93955c23458525c6e6395f41c69901fe25f494104e93026e67b838ccbd77bccd",
    "eval/report-perception-binary.json": "6222567aa472b63d94b1e22b00bc1023cf11e3b4a9feac02894016a3cfa41169",
    "eval/report-perception-unary.json": "18067aee18cd094360a5db5fd88b59366e6f200e47968e49cad48d155e37c5d0",
    "eval/report-semantic-recall.json": "0c500e79563a36e5fc2fb3cd5957443615b22bebe71af5e00931ea395be1a739",
    "eval/report-social-recall.json": "a0fed9801116ab2b305a38fd95575ddf8d05c605f562579567692ed5940e8a10",
    "eval/report-ssl-before-after.json": "3b1b41a9e9b2b6d5cc4d5261e916005897899dbf213415170c80571fdd999588",
    "eval/report-zero-shot-binary.json": "5c37bf045595c9d5c82adfdbdd7c23c6af964696654b7c6915d896e5559e44fe",
    "ssl/model.bin": "231b94d27c8a81a57f51cff2e8e556958ae8298e6fc947dbabb2b780fda39266",
    "ssl/pseudo.jsonl": "026e72b71c8b7acbd71491baedba935094b8d454d80620a93990cb43a50d6cc2",
    "ssl/vocab.json": "e9a2d28bad0269da170765f4a171276bbd7c744f1733340f8f57cd35047acb69",
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
