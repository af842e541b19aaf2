"""A seeded command-line run pinned by the sha256 of what it writes.

`bilayer gen` on the tiny world, `bilayer train` for 2 epochs in all three
modes, then, from that checkpoint, the `bilayer decode` streams of every
mode (stdout), `bilayer eval --experiments all` with the run's config and
`bilayer ssl`.  One more 2-epoch run from the same world pins the
checkpoint of an episodic-only train config.  Every step runs in a fresh
interpreter with one BLAS thread, so a change of any arithmetic, draw order
or file layout on the path shows up as a moved digest.  Unlike
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
    "episodic": {"modes": ["episodic"]},
}
EXPERIMENTS = ("consolidation-fidelity", "episodic-recall", "hidden-label-enrichment",
               "perception-binary", "perception-unary", "semantic-recall", "social-recall",
               "ssl-before-after", "zero-shot-binary")

PINNED = {
    "run/model.json": "df519ad4adb921240f37c1a6c28e9a066fb55e7e3b20cdd3c8ae4d517dacde3e",
    "run/model.bin": "c09aa963d3c062afe509a552e8090f77f8cb989cc7ea20eea7aca5aba4f78af5",
    "decode/perceive.jsonl": "3ff4ef0e96726887607f3cecdcbc3b1d8ea341f0a09f22312ebe6cca8b833648",
    "decode/episodic.jsonl": "da3736f91cdd84616259b992974a676851359bf41283c6ac78b801a9c0b74023",
    "decode/semantic.jsonl": "abc36018d5ae06a9947cad1fc8444425b106096ad21dde74f011110e57575d8f",
    "decode/semantic-s.jsonl": "14e0133ee2d8df3d39577ea5f0fd7dcbe6913808d1116ff968cb145e5508a363",
    "decode/fuse.jsonl": "23fa9acc6609b4b7d410c5ece17caf248701cd8b56a3197ff76f35f86632aca3",
    "eval/report-consolidation-fidelity.json": "56e500844b58a67d1481999aa481fa62f33f60a25919fdf177615f09f30f6fbb",
    "eval/report-episodic-recall.json": "f183a5026cafd3a635dff19d57dd66f51932e4844e9b4a8762fe3647819f90fb",
    "eval/report-hidden-label-enrichment.json": "fde8a7abff0d70a39312eecd364a82d76b4093c502016bb1bef3986da03890a1",
    "eval/report-perception-binary.json": "0ef3d250ff2f9da3ba6d483f8bdc21826110c4ed0f8fd3f8774cfc47b87d1a21",
    "eval/report-perception-unary.json": "8dcd0dec2749fd0fc95acfe63682adbfc51ed0f2a7403cd7ea8fee6a19b126d7",
    "eval/report-semantic-recall.json": "e9bdb68a5a1e3f1e1d27d41c0d221a1276392e630cb1d22f3ec91b011dc67961",
    "eval/report-social-recall.json": "e8120a68973fb385f0ad6af23038b06f9b51c0a55c3ea354cf4c294e025b47d6",
    "eval/report-ssl-before-after.json": "94f3690f4930428d14e18841bd1fd21c9aefce781d5860b953a21a07b87797c1",
    "eval/report-zero-shot-binary.json": "3fa1cb4e4659306c1d5fbc1d67be4ee13a5011eac6410c888ae3c8a02c6dd2a4",
    "ssl/model.bin": "a025985164218c0e373243498b9a8f21ee05c63ebf1963b693d1c7d2fa8482cd",
    "ssl/pseudo.jsonl": "0bdb444768fbe5dc20dd655584be8b6876d63cfa724bdbdc99006e124a513a30",
    "ssl/vocab.json": "e9a2d28bad0269da170765f4a171276bbd7c744f1733340f8f57cd35047acb69",
    "train-episodic/model.bin": "d8681759e435e018d867b29f42db9be1fd1d3f2bb3763cbec6c1480587370480",
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
