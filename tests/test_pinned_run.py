"""A seeded command-line run pinned by the sha256 of what it writes.

`bilayer gen` on the tiny world, `bilayer train` for 2 epochs in all three
modes, then `bilayer eval` of the perception experiments.  Every step runs
in a fresh interpreter with one BLAS thread, so a change of any arithmetic,
draw order or file layout on the path shows up as a moved digest.  Unlike
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
EXPERIMENTS = "perception-unary,perception-binary"

PINNED = {
    "run/model.json": "c5527056da0b637a3323097e5f4a22363188594207a6c5452e20cbda4eb36e51",
    "run/model.bin": "4d5a9a50c810c1291cd2c2cae7fc2f5c94a7a08d7143bd8f6848d8b1380813c5",
    "eval/report-perception-unary.json": "d9076719b596c627b54c372d016d17b06fad1d080a8bdb3e4036f8dfeedbc91a",
    "eval/report-perception-binary.json": "9729c011de95e20fd0838fb9d1444182086aeb06c0c8ad45986f3a4de9610e76",
}

REPIN = (
    "A seeded run's output moved.  If this change is meant to move it, declare that in "
    "CHANGES.md and re-pin PINNED in tests/test_pinned_run.py from the digests below.  If "
    "nothing on the path changed, a numpy or BLAS upgrade is the likely cause: rerun the "
    "test at the previous commit on this machine, and re-pin when that run fails the same "
    "way."
)


def _bilayer(*args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bilayer.__file__).resolve().parent.parent)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "bilayer.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_seeded_run_matches_pinned_digests(tmp_path):
    for name, doc in (("world.json", WORLD_CONFIG), ("train.json", TRAIN_CONFIG)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    world, run = str(tmp_path / "world"), str(tmp_path / "run")
    _bilayer("gen", "--config", str(tmp_path / "world.json"), "--out", world)
    _bilayer("train", world, "--config", str(tmp_path / "train.json"), "--seed", "1",
             "--out", run)
    _bilayer("eval", os.path.join(run, "model.json"), world, "--experiments", EXPERIMENTS,
             "--config", str(tmp_path / "train.json"), "--seed", "1",
             "--out", str(tmp_path / "eval"))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    moved = {name: digest for name, digest in got.items() if digest != PINNED[name]}
    assert not moved, REPIN + "\n" + json.dumps(got, indent=4)
