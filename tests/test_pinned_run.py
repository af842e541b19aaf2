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
    "run/model.json": "266d035d61c059b5d3bd152e157aa70a6add3fe6dc70159f7e5d6b2dc9731447",
    "run/model.bin": "0e2d39688ca2ec38b3e88489009e6458d4fa6a22ec403b6c12db970332e942e8",
    "decode/perceive.jsonl": "3ff4ef0e96726887607f3cecdcbc3b1d8ea341f0a09f22312ebe6cca8b833648",
    "decode/episodic.jsonl": "da3736f91cdd84616259b992974a676851359bf41283c6ac78b801a9c0b74023",
    "decode/semantic.jsonl": "abc36018d5ae06a9947cad1fc8444425b106096ad21dde74f011110e57575d8f",
    "decode/semantic-s.jsonl": "14e0133ee2d8df3d39577ea5f0fd7dcbe6913808d1116ff968cb145e5508a363",
    "decode/fuse.jsonl": "23fa9acc6609b4b7d410c5ece17caf248701cd8b56a3197ff76f35f86632aca3",
    "eval/report-consolidation-fidelity.json": "f74b9bc07b16ce0f48499cb56df138189f699e7db06c6903887198dacb55949d",
    "eval/report-episodic-recall.json": "dd4aaf958fc8443a6d72ed3ecb3dcac81b5c7c25fe7233aa84a5bd3b14309449",
    "eval/report-hidden-label-enrichment.json": "f3e21e2c5f2081a34f2757f873d952d6de57d09e75a8b97368721e9ee8a1f9af",
    "eval/report-perception-binary.json": "20280963db8f9464a6b923c6652f3e80dcf7de12379872b6152db2470417498e",
    "eval/report-perception-unary.json": "7d3909a71c98b0973c24f8ff9324a2e4a2c5d1feebea08cf217913bca4b3391d",
    "eval/report-semantic-recall.json": "f63f6edc125e3aee39fa1f3dba45073fa162c3908fd27d9185c5aa7f2894138c",
    "eval/report-social-recall.json": "a326d8c4d478c5488671fff1959bb618685753f479e6c80c768e5776e16cad35",
    "eval/report-ssl-before-after.json": "d7f89f63c50e8c64b68fb633d301d26e676048d8de99bf87e627bd774fc79253",
    "eval/report-zero-shot-binary.json": "3b451bb48fe121b97b3bad92eca542a346db1c25b90520c29529a715400ddea1",
    "ssl/model.bin": "d562edc32563bd57c579ed2e21e6202d7373cd5a05d4713af120eaf663305206",
    "ssl/pseudo.jsonl": "0bdb444768fbe5dc20dd655584be8b6876d63cfa724bdbdc99006e124a513a30",
    "ssl/vocab.json": "e9a2d28bad0269da170765f4a171276bbd7c744f1733340f8f57cd35047acb69",
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
