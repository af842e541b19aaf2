"""End-to-end command tests: every subcommand through `main`, exit codes,
artifact layout, and same-seed reproducibility of everything but the manifest.
"""
from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np
import pytest

import bilayer
from bilayer import evaluation
from bilayer.cli import main
from bilayer.params import (
    CHECKPOINT_FORMAT, ColumnMap, load_checkpoint, params_digest, read_checkpoint_manifest,
    read_tensors, save_checkpoint, write_archive,
)
from bilayer.world import ONTOLOGY, SCENE_KINDS, WorldConfig, load_world, read_vocab

from util import group_cols

WORLD_CONFIG = {
    "n_entities": 48,
    "n_scenes": 10,
    "mean_entities_per_scene": 4.0,
    "n_test_entities": 4,
    "n_test_scenes": 1,
    "unlabeled_fraction": 0.25,
    "zero_shot_per_combo": 1,
    "seed": 11,
}

TRAIN_CONFIG = {
    "epochs": 3,
    "batch_size": 32,
    "learning_rate": 3e-3,
    "rep_dim": 24,
    "ctx_dim": 12,
}


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _declared_script() -> tuple[str, str]:
    """The `bilayer` entry point and the version that `pyproject.toml` declares."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fp:
        project = tomllib.load(fp)["project"]
    return project["scripts"]["bilayer"], project["version"]


def _installed(name: str) -> bool:
    try:
        metadata.distribution(name)
    except metadata.PackageNotFoundError:
        return False
    return True


def _write_launcher(path: Path, entry_point: str) -> None:
    """Write the console-script launcher that installers generate for `module:attr`."""
    module, attr = entry_point.split(":")
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n",
        encoding="utf-8",
    )
    path.chmod(0o755)


def _write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    return str(path)


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    """Run the command line in a fresh interpreter, so stderr is what a user sees."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(bilayer.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "bilayer.cli", *args], capture_output=True, text=True, env=env
    )


def _main_errors(args: list[str], caplog) -> tuple[int, list[str]]:
    """`main(args)` in this interpreter: its exit code and the messages it
    logged as errors, for refusals checked in many variants."""
    caplog.clear()
    code = main(args)
    return code, [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]


def _dir_bytes(path, skip=("manifest.json",)) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        if name in skip:
            continue
        with open(os.path.join(path, name), "rb") as fp:
            out[name] = fp.read()
    return out


def _append_untied_readout(manifest: dict, blob: Path) -> None:
    """List a copy of the embedding as a second tensor, `emb_up`, appended
    to the checkpoint's blob, with the blob's size and digest updated."""
    emb = next(t for t in manifest["tensors"] if t["name"] == "emb")
    data = blob.read_bytes()
    manifest["tensors"].append({**emb, "name": "emb_up", "offset": len(data)})
    data += data[emb["offset"]:emb["offset"] + emb["nbytes"]]
    blob.write_bytes(data)
    manifest["blob_nbytes"], manifest["blob_sha256"] = len(data), hashlib.sha256(data).hexdigest()


def _inputs(ws, command: str) -> list[str]:
    """The positional arguments of `command` on the shared world and run."""
    return [ws["world_dir"]] if command == "train" else [ws["checkpoint"], ws["world_dir"]]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Generated world plus one trained run, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    wcfg = _write_json(root / "world.json", WORLD_CONFIG)
    tcfg = _write_json(root / "train.json", TRAIN_CONFIG)
    world_dir = str(root / "world")
    run_dir = str(root / "run1")
    assert main(["gen", "--config", wcfg, "--out", world_dir]) == 0
    assert main(["train", world_dir, "--config", tcfg, "--seed", "5", "--out", run_dir]) == 0
    return {
        "root": root,
        "world_cfg": wcfg,
        "train_cfg": tcfg,
        "world_dir": world_dir,
        "run_dir": run_dir,
        "checkpoint": os.path.join(run_dir, "model.json"),
        "world": load_world(world_dir),
    }


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("bilayer ")

    def test_console_script_installed(self, tmp_path):
        """`bilayer --version` typed at a shell runs the declared entry point.

        The launcher an install would put on PATH is written from the
        `[project.scripts]` declaration, so no install is needed."""
        entry_point, version = _declared_script()
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        _write_launcher(bin_dir / "bilayer", entry_point)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
        env["PYTHONPATH"] = str(Path(bilayer.__file__).resolve().parent.parent)
        proc = subprocess.run(["bilayer", "--version"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"bilayer {version}\n", proc.stderr

    @pytest.mark.skipif(
        not _installed("bilayer"),
        reason="the bilayer distribution is not installed (importlib.metadata.PackageNotFoundError)",
    )
    def test_console_script_from_install(self):
        """Where `bilayer` is installed, its script matches the declaration and runs."""
        entry_point, version = _declared_script()
        scripts = metadata.distribution("bilayer").entry_points.select(
            group="console_scripts", name="bilayer")
        assert [ep.value for ep in scripts] == [entry_point]
        script = shutil.which("bilayer")
        assert script is not None, "no bilayer script on PATH"
        proc = subprocess.run([script, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"bilayer {version}\n", proc.stderr

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_threads_flag_is_a_usage_error(self, ws, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["ssl", ws["checkpoint"], ws["world_dir"], "--threads", "4",
                  "--out", str(tmp_path / "ssl")])
        assert exc.value.code == 2

    def test_bad_mode_choice(self, ws):
        with pytest.raises(SystemExit) as exc:
            main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                  "--mode", "telepathy", "--out", str(ws["root"] / "x")])
        assert exc.value.code == 2


class TestGen:
    def test_stdout_event_and_artifacts(self, ws, tmp_path, capsys):
        out = str(tmp_path / "w")
        assert main(["gen", "--config", ws["world_cfg"], "--out", out]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 1 and lines[0]["event"] == "world"
        # visual entities plus generated owner persons
        assert lines[0]["entities"] == len(ws["world"].entities)
        assert lines[0]["triples"] > 0 and lines[0]["negatives"] > 0
        for name in ("config.json", "vocab.json", "triples.jsonl",
                     "features.json", "features.bin", "world.json", "manifest.json"):
            assert os.path.isfile(os.path.join(out, name))
        # the implied negatives are derived from world.json, not written
        assert not os.path.exists(os.path.join(out, "negatives.jsonl"))
        manifest = json.loads(Path(out, "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status"] == "ok"
        assert manifest["command"] == "gen"
        assert sorted(manifest["outputs"]) == sorted(
            n for n in os.listdir(out) if n != "manifest.json"
        )

    def test_counts_match_the_statement_scans(self, ws, tmp_path, capsys):
        out = str(tmp_path / "w")
        assert main(["gen", "--config", ws["world_cfg"], "--out", out]) == 0
        event = json.loads(capsys.readouterr().out.splitlines()[0])
        store = load_world(out).build_store()
        assert event["triples"] == sum(1 for _ in store.iter_positive())
        assert event["negatives"] == sum(1 for _ in store.iter_negative())
        with open(os.path.join(out, "triples.jsonl"), encoding="utf-8") as fp:
            assert sum(1 for _ in fp) == event["triples"]

    def test_same_seed_is_byte_identical(self, ws, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen", "--config", ws["world_cfg"], "--out", a]) == 0
        assert main(["gen", "--config", ws["world_cfg"], "--out", b]) == 0
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_seed_flag_changes_world(self, ws, tmp_path):
        out = str(tmp_path / "w2")
        assert main(["gen", "--config", ws["world_cfg"], "--seed", "12", "--out", out]) == 0
        assert _dir_bytes(out)["features.bin"] != _dir_bytes(ws["world_dir"])["features.bin"]

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = _write_json(tmp_path / "bad.json", {"n_entities": 10, "flux": 1})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "w")]) == 2

    def test_unknown_config_key_is_named_in_one_line(self, tmp_path):
        cfg = _write_json(tmp_path / "bad.json", {"n_entities": 10, "flux": 1})
        proc = _run_cli(["gen", "--config", cfg, "--out", str(tmp_path / "w")])
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "unknown keys flux; valid keys:" in lines[0]
        assert "n_entities" in lines[0]

    def test_malformed_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 3

    @pytest.mark.parametrize("doc, message", [
        ({"seed": "x"}, "world seed must be of type int, not 'x'"),
        ({"n_entities": 30.0}, "world n_entities must be of type int, not 30.0"),
        ({"owners": 1}, "world owners must be of type bool, not 1"),
    ])
    def test_setting_of_the_wrong_type_is_data_error(self, tmp_path, doc, message):
        cfg = _write_json(tmp_path / "typed.json", doc)
        proc = _run_cli(["gen", "--config", cfg, "--out", str(tmp_path / "w")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_a_world_config_regenerates_its_world(self, ws, tmp_path):
        """A world's config.json is the flat document gen reads, so feeding it
        back writes every file of the world again, byte for byte."""
        out = str(tmp_path / "again")
        config = os.path.join(ws["world_dir"], "config.json")
        written = json.loads(Path(config).read_text(encoding="utf-8"))
        assert written == {**WorldConfig().to_dict(), **WORLD_CONFIG}
        assert main(["gen", "--config", config, "--out", out]) == 0
        assert _dir_bytes(out) == _dir_bytes(ws["world_dir"])

    @pytest.mark.parametrize("key, value", [
        ("ex_noise_sigma", 0.5), ("latent_scale", 1.0), ("social_k", 5), ("social_beta", 1.0),
    ])
    def test_removed_world_settings_are_usage_errors(self, tmp_path, caplog, key, value):
        cfg = _write_json(tmp_path / "old.json", {"n_entities": 30, key: value})
        code, errors = _main_errors(["gen", "--config", cfg, "--out", str(tmp_path / "w")], caplog)
        assert code == 2
        assert len(errors) == 1
        assert f"unknown keys {key}; valid keys: binary_per_scene," in errors[0]

    def test_test_scenes_without_test_entities_is_data_error(self, tmp_path):
        cfg = _write_json(tmp_path / "empty-test.json", {
            "n_entities": 30, "n_scenes": 10, "n_test_entities": 0, "n_test_scenes": 3, "seed": 5,
        })
        proc = _run_cli(["gen", "--config", cfg, "--out", str(tmp_path / "w")])
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "test entity" in proc.stderr
        assert not os.path.exists(tmp_path / "w" / "features.bin")


class TestTrain:
    def test_artifacts(self, ws):
        run = ws["run_dir"]
        for name in ("model.json", "model.bin", "history.csv",
                     "train-config.json", "manifest.json"):
            assert os.path.isfile(os.path.join(run, name))
        with open(os.path.join(run, "history.csv")) as fp:
            header = fp.readline().strip()
        assert header == "epoch,split,loss,metric"
        manifest = json.loads(Path(run, "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status"] == "ok"
        assert manifest["seed"] == 5
        # every world file the run depends on is hashed in the manifest
        assert any(k.endswith("features.bin") for k in manifest["inputs"])

    def test_old_negatives_file_is_neither_read_nor_hashed(self, ws, tmp_path):
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        (world_dir / "negatives.jsonl").write_text("not a statement file\n", encoding="utf-8")
        cfg = _write_json(tmp_path / "t.json", {**TRAIN_CONFIG, "epochs": 1})
        out = str(tmp_path / "run")
        assert main(["train", str(world_dir), "--config", cfg, "--seed", "1", "--out", out]) == 0
        inputs = json.loads(Path(out, "manifest.json").read_text(encoding="utf-8"))["inputs"]
        assert sorted(os.path.relpath(k, world_dir) for k in inputs if k != cfg) == [
            "config.json", "features.bin", "features.json", "triples.jsonl", "vocab.json",
            "world.json"]

    @pytest.mark.parametrize("corruption, message", [
        ("truncated", "ends at"),
        ("unholdable shape", "cannot hold [49]"),
        ("padded", "its tensors cover"),
        ("cut blob", "its manifest records"),
        ("flipped byte", "does not match the sha256 in its manifest"),
        ("version 1", "bilayer-features version 1 is not readable; this reader reads version 2"),
        ("short key list", "keys for"),
        ("duplicate key", "names two feature rows"),
        ("unknown field", "unknown keys note; valid keys: blob_nbytes, blob_sha256, format,"),
    ])
    def test_corrupt_feature_archive_is_data_error(self, ws, tmp_path, corruption, message):
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        blob_path, manifest = world_dir / "features.bin", world_dir / "features.json"
        blob, doc = blob_path.read_bytes(), json.loads(manifest.read_text(encoding="utf-8"))
        n, dim = doc["tensors"][0]["shape"]
        if corruption in ("truncated", "padded"):
            # the manifest records the new blob, so the tensor spec is what refuses it
            blob = blob[:-100] if corruption == "truncated" else blob + bytes(4)
            doc["blob_nbytes"], doc["blob_sha256"] = len(blob), hashlib.sha256(blob).hexdigest()
        elif corruption == "cut blob":
            blob = blob[:-100]
        elif corruption == "flipped byte":
            flipped = bytearray(blob)
            flipped[len(blob) // 3] ^= 0x01
            blob = bytes(flipped)
        elif corruption == "unholdable shape":
            doc["tensors"][0]["shape"] = [49]  # one matrix's bytes
        elif corruption == "version 1":  # one tensor per box, over the same blob
            doc = {"format": "bilayer-features", "version": 1, "tensors": [
                {"key": key, "shape": [dim], "offset": 4 * dim * i, "nbytes": 4 * dim}
                for i, key in enumerate(doc["keys"])]}
        elif corruption == "short key list":
            message = f"lists {n - 1} keys for {n} feature rows"
            del doc["keys"][-1]
        elif corruption == "duplicate key":
            doc["keys"][5] = doc["keys"][2]
        else:
            doc["note"] = 1
        blob_path.write_bytes(blob)
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and message in proc.stderr, proc.stderr

    @pytest.mark.parametrize("field, value, message", [
        ("shape", "x", "has shape 'x', not a list of non-negative ints"),
        ("shape", [48.0], "has shape [48.0], not a list of non-negative ints"),
        ("offset", "0", "has offset '0' and nbytes"),
        ("nbytes", None, "and nbytes None; both must be ints"),
    ])
    def test_mistyped_feature_manifest_is_data_error(self, ws, tmp_path, field, value, message):
        """A wrong-typed or missing (None: deleted) field of a features.json
        tensor is refused with one line that names the tensor."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        manifest = world_dir / "features.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        [spec] = doc["tensors"]
        if value is None:
            del spec[field]
        else:
            spec[field] = value
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "tensor 'features' has" in lines[0], proc.stderr
        assert message in lines[0], proc.stderr

    @pytest.mark.parametrize("name, path, old, new, message", [
        ("config.json", [], "feature_dim", "feature_dimm",
         "config.json: unknown keys feature_dimm; valid keys: binary_per_scene,"),
        ("config.json", [], "seed", None, "config.json: missing keys seed"),
        ("config.json", [], None, "worlds", "config.json: unknown keys worlds; valid keys: "),
        ("world.json", ["scenes", 0], "members", None,
         "world.json: a record does not fit: SceneRecord.__init__() missing 1 required "
         "positional argument: 'members'"),
        ("world.json", ["scenes", 0], "kind", "kind",
         f"world.json: scene 't0000' is of kind 1, not one of {', '.join(SCENE_KINDS)}"),
        ("world.json", [], None, "note", "world.json: unknown keys note; valid keys: "),
        ("world.json", [], "heldout", "held_out", "world.json: unknown keys held_out; valid"),
        # what an older world kept: the predicate table, each scene's theme and
        # instance flag, and zero-shot views and social edges beside its scenes
        ("world.json", [], None, "pair_table", "world.json: unknown keys pair_table; valid"),
        ("world.json", ["scenes", 0], None, "theme",
         "world.json: a record does not fit: SceneRecord.__init__() got an unexpected keyword "
         "argument 'theme'"),
        ("world.json", [], None, "zs_examples", "world.json: unknown keys zs_examples; valid"),
        ("world.json", [], None, "social_edges", "world.json: unknown keys social_edges; valid"),
        ("vocab.json", [], None, "note", "vocab.json: unknown keys note; valid keys: "),
        ("vocab.json", [], "families", None, "vocab.json: missing keys families"),
        ("world.json", ["scenes", 0], None, "instance",
         "world.json: a record does not fit: SceneRecord.__init__() got an unexpected keyword "
         "argument 'instance'"),
        ("vocab.json", [], "entities", "entities",
         "vocab.json: a vocabulary lists the names of each kind and family as strings"),
        ("vocab.json", ["families"], "Age", "Age",
         "vocab.json: a vocabulary lists the names of each kind and family as strings"),
    ])
    def test_mistyped_world_file_is_data_error(self, ws, tmp_path, name, path, old, new, message):
        """A world file with a key renamed (`old` to `new`), deleted (no `new`),
        added (no `old`) or set to 1 (`old` is `new`) is refused with one line
        that names the file and the key."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        doc = json.loads((world_dir / name).read_text(encoding="utf-8"))
        obj = doc
        for key in path:
            obj = obj[key]
        value = obj.pop(old) if old not in (None, new) else 1
        if new is not None:
            obj[new] = value
        (world_dir / name).write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and str(world_dir / message) in lines[0], proc.stderr

    @staticmethod
    def _scene_edits():
        """Per case: an edit of world.json's first scene (a train scene with
        a binary statement), of the first entity it shows or of the first
        scene of a kind that is no instance, and the line that refuses it."""
        families = ONTOLOGY.label_families
        color, age = 1 + families.index("Color"), 1 + families.index("Age")

        def short_statement(doc, scene):
            scene["binaries"][0] = scene["binaries"][0][:2]
            return f"world.json: scene 't0000' states {scene['binaries'][0]!r}, not a list " \
                "[subject, predicate, object]"

        def members_string(doc, scene):
            scene["members"] = "abc"
            return "world.json: scene 't0000' has members 'abc', not a list of names"

        def stranger(doc, scene):
            s, p, o = scene["binaries"][0]
            other = next(row[0] for row in doc["entities"] if row[0] not in scene["members"])
            scene["binaries"][0] = [other, p, o]
            return f"world.json: scene 't0000' states ({other}, {p}, {o}), but {other!r} is " \
                "not one of its members"

        def misplaced_label(doc, scene):
            row = next(row for row in doc["entities"] if row[0] == scene["members"][0])
            row[color] = row[age]
            return f"world.json: entity {row[0]!r} has {row[age]!r} as its Color label, " \
                "a label of Age"

        def repeated_member(doc, scene):
            scene["members"].append(scene["members"][0])
            return f"world.json: scene 't0000' lists member {scene['members'][0]!r} twice"

        def list_member(doc, scene):
            scene = next(sc for sc in doc["scenes"] if sc["kind"] == "unlabeled")
            scene["members"][0] = [scene["members"][0]]
            return f"world.json: scene {scene['name']!r} has members {scene['members']!r}, " \
                "not a list of names"

        def dict_subject(doc, scene):
            scene = next(sc for sc in doc["scenes"] if sc["kind"] == "ex_test" and sc["binaries"])
            s, p, o = scene["binaries"][0]
            scene["binaries"][0] = [{"name": s}, p, o]
            return f"world.json: scene {scene['name']!r} states {scene['binaries'][0]!r}, " \
                "not a list [subject, predicate, object] of names"

        def int_object(doc, scene):
            s, p, o = scene["binaries"][0]
            scene["binaries"][0] = [s, p, 7]
            return f"world.json: scene 't0000' states {scene['binaries'][0]!r}, not a list " \
                "[subject, predicate, object] of names"

        return [short_statement, members_string, stranger, misplaced_label, repeated_member,
                list_member, dict_subject, int_object]

    @pytest.mark.parametrize("case", range(8), ids=[
        "short-statement", "members-string", "stranger", "misplaced-label", "repeated-member",
        "unlabeled-list-member", "ex_test-dict-subject", "train-int-object"])
    def test_malformed_scene_or_entity_is_data_error(self, ws, tmp_path, case):
        """A scene whose members or statements do not fit, or an entity with
        another family's label in a family's place, is refused with one line
        that names world.json, the scene or entity, and the fault."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        doc = json.loads((world_dir / "world.json").read_text(encoding="utf-8"))
        scene = doc["scenes"][0]
        assert scene["name"] == "t0000" and scene["binaries"]
        message = self._scene_edits()[case](doc, scene)
        (world_dir / "world.json").write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0], proc.stderr

    @pytest.mark.parametrize("kind", ["ex_test", "e_test", "zero_shot", "unlabeled"])
    def test_a_member_fault_in_a_scene_of_any_kind_is_data_error(self, ws, tmp_path, caplog,
                                                                 kind):
        """A statement about a non-member in a scene that is no instance is
        refused as in an instance scene: `eval`, `decode --mode perceive` and
        `ssl` each exit 3 with one line that names world.json and the scene.
        So is a member listed twice."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        path = world_dir / "world.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        scene = next(sc for sc in doc["scenes"] if sc["kind"] == kind)
        name, (s, p, o) = scene["name"], scene["binaries"][0]
        other = next(row[0] for row in doc["entities"] if row[0] not in scene["members"])
        scene["binaries"][0] = [s, p, other]
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = (f"world.json: scene {name!r} states ({s}, {p}, {other}), but {other!r} is "
                   "not one of its members")
        commands = [["eval", ws["checkpoint"], str(world_dir)],
                    ["decode", ws["checkpoint"], "--world", str(world_dir), "--mode", "perceive",
                     "--t", name],
                    ["ssl", ws["checkpoint"], str(world_dir)]]
        for args in commands:
            proc = _run_cli([*args, "--out", str(tmp_path / args[0])])
            assert proc.returncode == 3, proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and message in lines[0], proc.stderr

        scene["binaries"][0] = [s, p, o]
        scene["members"].append(scene["members"][0])
        path.write_text(json.dumps(doc), encoding="utf-8")
        for args in commands:
            assert _main_errors([*args, "--out", str(tmp_path / args[0])], caplog) == (
                3, [f"world.json: scene {name!r} lists member {scene['members'][0]!r} twice"])

    @pytest.mark.parametrize("kind, command", [("unlabeled", "ssl"), ("ex_test", "eval")])
    def test_a_member_without_a_feature_box_is_data_error(self, ws, tmp_path, kind, command):
        """A scene member the feature archive holds no box for is refused
        with one line that names the box and features.json."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        path = world_dir / "world.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        scene = next(sc for sc in doc["scenes"] if sc["kind"] == kind)
        member = next(row[0] for row in doc["entities"] if row[0] not in scene["members"])
        scene["members"].append(member)
        path.write_text(json.dumps(doc), encoding="utf-8")
        extra = ["--experiments", "perception-unary"] if command == "eval" else []
        proc = _run_cli([command, ws["checkpoint"], str(world_dir), *extra,
                         "--out", str(tmp_path / "out")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        key = f"bb:{scene['name']}:{member}"
        assert len(lines) == 1 and f"features.json lists no feature box {key!r}" in lines[0], \
            proc.stderr

    def test_perceiving_a_scene_without_features_is_data_error(self, ws, tmp_path, caplog):
        """Social scenes have no feature boxes: perceiving one is refused with
        the line that names the missing box."""
        scene = ws["world"].scenes_of_kind("social")[0]
        assert _main_errors(["decode", ws["checkpoint"], "--world", ws["world_dir"], "--mode",
                             "perceive", "--t", scene.name, "--out", str(tmp_path)], caplog) == (
            3, [f"features.json lists no feature box {scene.scene_key!r}"])

    @pytest.mark.parametrize("key, edit", [
        # an entity record as an older world wrote it: a dict with a visual flag
        ("entities", lambda row: {"name": row[0], "visual": True,
                                  "labels": dict(zip(ONTOLOGY.label_families, row[1:]))}),
        ("entities", lambda row: row[:-1]),
        ("test_entities", lambda row: row + ["Happy"]),
    ], ids=["dict-record", "short-row", "long-row"])
    def test_entity_record_that_is_no_label_row_is_data_error(self, ws, tmp_path, key, edit):
        """An entity is a row of its name and one label per family, in family
        order; any other record is refused with one line naming it."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        doc = json.loads((world_dir / "world.json").read_text(encoding="utf-8"))
        doc[key][1] = edit(doc[key][1])
        (world_dir / "world.json").write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        row = f"[name, {', '.join(ONTOLOGY.label_families)}]"
        assert len(lines) == 1, proc.stderr
        assert f"{world_dir / 'world.json'}: {key}[1] is not a row {row}" in lines[0], proc.stderr

    def test_nested_world_config_is_data_error(self, ws, tmp_path):
        """A world written when config.json nested the settings under "world"
        next to an "ontology" block is refused, not read."""
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        config = json.loads((world_dir / "config.json").read_text(encoding="utf-8"))
        nested = {"world": config, "ontology": {"ages": ["Young", "Old"]}}
        (world_dir / "config.json").write_text(json.dumps(nested), encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert "config.json: unknown keys ontology, world; valid keys:" in lines[0]

    def test_world_setting_of_the_wrong_type_is_data_error(self, ws, tmp_path):
        world_dir = tmp_path / "world"
        shutil.copytree(ws["world_dir"], world_dir)
        config = json.loads((world_dir / "config.json").read_text(encoding="utf-8"))
        (world_dir / "config.json").write_text(json.dumps({**config, "owners": 5}),
                                               encoding="utf-8")
        proc = _run_cli(["train", str(world_dir), "--config", ws["train_cfg"],
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "world owners must be of type bool, not 5" in lines[0]

    @pytest.mark.parametrize("doc, message", [
        ({"epochs": 1.5}, "train epochs must be of type int, not 1.5"),
        ({"seed": 1.0}, "train seed must be of type int, not 1.0"),
        ({"learning_rate": "x"}, "train learning_rate must be of type float, not 'x'"),
        ({"novelty_threshold": "a"}, "train novelty_threshold must be of type float, not 'a'"),
        ({"inject_rho": True}, "train inject_rho must be of type float, not True"),
        ({"batch_size": True}, "train batch_size must be of type int, not True"),
    ])
    def test_train_setting_of_the_wrong_type_is_data_error(self, ws, tmp_path, caplog, doc,
                                                           message):
        cfg = _write_json(tmp_path / "typed.json", doc)
        out = tmp_path / "r"
        code, errors = _main_errors(["train", ws["world_dir"], "--config", cfg,
                                     "--out", str(out)], caplog)
        assert code == 3
        assert errors == [message]
        assert not (out / "model.json").exists()

    def test_stdout_epochs(self, ws, tmp_path, capsys):
        cfg = _write_json(tmp_path / "t.json", {**TRAIN_CONFIG, "epochs": 1})
        out = str(tmp_path / "run")
        assert main(["train", ws["world_dir"], "--config", cfg, "--seed", "1",
                     "--out", out]) == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert lines[-1]["event"] == "trained"
        assert lines[-1]["checkpoint"] == "model.json"
        epochs = [l for l in lines if l["event"] == "epoch"]
        assert epochs and all(np.isfinite(e["loss"]) for e in epochs)

    @pytest.mark.parametrize("doc", [{"epochs": 0}, {"epochs": 1, "modes": []}],
                             ids=["no-epochs", "no-modes"])
    def test_stdout_stays_json_lines_with_no_history(self, ws, tmp_path, capsys, doc):
        """With nothing trained the final event's `final_loss` is null, so
        every stdout line parses as strict JSON, which has no NaN."""
        cfg = _write_json(tmp_path / "t.json", {**TRAIN_CONFIG, **doc})
        assert main(["train", ws["world_dir"], "--config", cfg, "--out",
                     str(tmp_path / "run")]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        lines = [json.loads(l, parse_constant=refuse)
                 for l in capsys.readouterr().out.splitlines()]
        assert lines == [{"event": "trained", "checkpoint": "model.json", "final_loss": None}]

    def test_same_seed_is_byte_identical(self, ws, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["train", ws["world_dir"], "--config", ws["train_cfg"],
                         "--seed", "5", "--out", out]) == 0
        assert _dir_bytes(a) == _dir_bytes(b)
        # and matches the fixture run, which used the same seed
        assert _dir_bytes(a) == _dir_bytes(ws["run_dir"])

    def test_resume_from_checkpoint(self, ws, tmp_path):
        out = str(tmp_path / "resumed")
        cfg = _write_json(tmp_path / "t.json", {**TRAIN_CONFIG, "epochs": 1})
        assert main(["train", ws["world_dir"], "--config", cfg, "--seed", "6",
                     "--out", out, "--checkpoint", ws["checkpoint"]]) == 0
        vocab = ws["world"].vocab
        resumed = load_checkpoint(os.path.join(out, "model"), vocab)
        original = load_checkpoint(os.path.join(ws["run_dir"], "model"), vocab)
        assert params_digest(resumed) != params_digest(original)

    def test_train_config_file_reproduces_the_run(self, ws, tmp_path):
        """The written train-config.json carries the network widths and the
        seed, so feeding it back trains the same model byte for byte."""
        written = json.loads(Path(ws["run_dir"], "train-config.json").read_text(encoding="utf-8"))
        assert written["rep_dim"] == TRAIN_CONFIG["rep_dim"] and "feature_dim" not in written
        out = str(tmp_path / "again")
        assert main(["train", ws["world_dir"], "--config",
                     os.path.join(ws["run_dir"], "train-config.json"), "--out", out]) == 0
        assert _dir_bytes(out) == _dir_bytes(ws["run_dir"])

    def test_resume_records_the_checkpoint_shape(self, ws, tmp_path):
        out = str(tmp_path / "resumed")
        cfg = _write_json(tmp_path / "t.json", {"epochs": 1, "batch_size": 32})
        assert main(["train", ws["world_dir"], "--config", cfg, "--seed", "6",
                     "--out", out, "--checkpoint", ws["checkpoint"]]) == 0
        written = json.loads(Path(out, "train-config.json").read_text(encoding="utf-8"))
        assert (written["rep_dim"], written["ctx_dim"]) == (24, 12)

    def test_missing_world_is_data_error(self, tmp_path):
        assert main(["train", str(tmp_path / "nowhere"), "--out", str(tmp_path / "r")]) == 3

    def test_unknown_config_key_is_usage_error(self, ws, tmp_path):
        cfg = _write_json(tmp_path / "typo.json", {"epochs": 1, "epohcs": 2})
        proc = _run_cli(["train", ws["world_dir"], "--config", cfg, "--out", str(tmp_path / "r")])
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "bad train config" in lines[0] and "epohcs" in lines[0]

    @pytest.mark.parametrize("command", ["train", "eval", "ssl"])
    @pytest.mark.parametrize("doc, named", [
        ({"epochs": 1, "freeze_emb": True, "adam_beta1": 0.9}, "adam_beta1, freeze_emb"),
        ({"tied": False}, "tied"),
        ({"epochs": 1, "dropout": 0.0}, "dropout"),
        ({"epochs": 1, "direct": False}, "direct"),
    ], ids=["optimizer", "tied", "dropout", "direct"])
    def test_removed_keys_are_named_with_the_valid_ones(self, ws, tmp_path, command, doc, named):
        cfg = _write_json(tmp_path / "old.json", doc)
        proc = _run_cli([command, *_inputs(ws, command), "--config", cfg,
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert f"unknown keys {named}; valid keys: batch_size," in lines[0]
        assert "rep_dim" in lines[0] and "feature_dim" not in lines[0]

    @pytest.mark.parametrize("command", ["train", "ssl"])
    @pytest.mark.parametrize("doc, message", [
        ({"hidden_families": "Risk"}, "hidden_families must be a list of names"),
        ({"excluded_families": ["Nope"]}, "unknown families ['Nope']"),
    ])
    def test_bad_family_list_is_data_error(self, ws, tmp_path, doc, message, command):
        cfg = _write_json(tmp_path / "fam.json", {"epochs": 1, **doc})
        proc = _run_cli([command, *_inputs(ws, command), "--config", cfg,
                         "--out", str(tmp_path / "r")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0]

    @pytest.mark.parametrize("doc, message", [
        ({"rep_dim": "x"}, "network rep_dim must be a positive int, not 'x'"),
        ({"dtype": "foo"}, "network dtype must be float32 or float64, not 'foo'"),
        ({"ctx_dim": 0}, "network ctx_dim must be a positive int, not 0"),
    ])
    def test_network_setting_of_the_wrong_type_is_data_error(self, ws, tmp_path, doc, message):
        cfg = _write_json(tmp_path / "net.json", {"epochs": 1, **doc})
        out = tmp_path / "r"
        proc = _run_cli(["train", ws["world_dir"], "--config", cfg, "--out", str(out)])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("command", ["eval", "ssl"])
    def test_unknown_config_key_is_usage_error_elsewhere(self, ws, tmp_path, command):
        cfg = _write_json(tmp_path / "typo.json", {"epochs": 1, "epohcs": 2})
        assert main([command, ws["checkpoint"], ws["world_dir"], "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 2

    def test_divergence_exit_code(self, ws, tmp_path):
        vocab = ws["world"].vocab
        params = load_checkpoint(os.path.join(ws["run_dir"], "model"), vocab)
        params.emb[:] = np.nan
        save_checkpoint(params, vocab, str(tmp_path / "poisoned"))
        out = str(tmp_path / "run")
        rc = main(["train", ws["world_dir"], "--config", ws["train_cfg"], "--seed", "5",
                   "--out", out, "--checkpoint", str(tmp_path / "poisoned.json")])
        assert rc == 4
        manifest = json.loads(Path(out, "manifest.json").read_text(encoding="utf-8"))
        assert manifest["status"] == "failed"


class TestDecode:
    def _records(self, capsys):
        return [json.loads(l) for l in capsys.readouterr().out.splitlines()]

    def test_episodic_stream(self, ws, tmp_path, capsys):
        scene = ws["world"].scenes_of_kind("train")[0]
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "episodic", "--t", scene.name, "--n", "5",
                     "--seed", "3", "--out", str(tmp_path / "d")]) == 0
        records = self._records(capsys)
        assert len(records) == 5
        for r in records:
            assert r["mode"] == "episodic"
            assert r["t"] == scene.name
            assert r["s"] is not None and set(r) >= {"s", "p", "o", "labels"}

    def test_semantic_subject_clamp(self, ws, tmp_path, capsys):
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "semantic", "--s", "e0000", "--n", "4",
                     "--seed", "3", "--out", str(tmp_path / "d")]) == 0
        records = self._records(capsys)
        assert len(records) == 4
        assert all(r["s"] == "e0000" and r["t"] is None for r in records)

    def test_perceive_scene(self, ws, tmp_path, capsys):
        world = ws["world"]
        scene = next(s for s in world.scenes_of_kind("train") if s.binaries)
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "perceive", "--t", scene.name,
                     "--out", str(tmp_path / "d")]) == 0
        records = self._records(capsys)
        assert len(records) == len(scene.binaries)
        assert all(r["mode"] == "perceive" and r["labels"] for r in records)

    def test_fuse_gamma_zero_is_all_episodic(self, ws, tmp_path, capsys):
        scene = ws["world"].scenes_of_kind("train")[0]
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "fuse", "--t", scene.name, "--gamma", "0",
                     "--n", "8", "--seed", "3", "--out", str(tmp_path / "d")]) == 0
        records = self._records(capsys)
        assert len(records) == 8
        # gamma 0 puts no weight on the pre-observation stream
        assert all(r["t"] == scene.name for r in records)

    def test_fuse_needs_gamma(self, ws, tmp_path):
        scene = ws["world"].scenes_of_kind("train")[0]
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "fuse", "--t", scene.name,
                     "--out", str(tmp_path / "d")]) == 2

    def test_episodic_needs_instance(self, ws, tmp_path):
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "episodic", "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("args, message", [
        (["--mode", "episodic", "--t", "e0001"],
         "the instance clamp 'e0001' (entity) is not an instance"),
        (["--mode", "episodic", "--t", "Dog"],
         "the instance clamp 'Dog' (class) is not an instance"),
        (["--mode", "semantic", "--s", "t0001"],
         "the subject clamp 't0001' (instance) is not an entity, class or attribute"),
        (["--mode", "semantic", "--s", "near"],
         "the subject clamp 'near' (predicate) is not an entity, class or attribute"),
        (["--mode", "fuse", "--t", "e0001", "--gamma", "1"], "'e0001' is not an instance"),
    ])
    def test_a_clamp_of_the_wrong_kind_is_data_error(self, ws, tmp_path, capsys, caplog, args,
                                                     message):
        code, errors = _main_errors(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                                     *args, "--n", "3", "--out", str(tmp_path / "d")], caplog)
        assert code == 3
        assert errors == [message]
        assert capsys.readouterr().out == ""

    def test_negative_pass_count_is_usage_error(self, ws, tmp_path):
        proc = _run_cli(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                         "--mode", "semantic", "--n", "-3", "--out", str(tmp_path / "d")])
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "--n must be a nonnegative number of passes, not -3" in lines[0]

    def test_zero_passes_is_an_empty_stream(self, ws, tmp_path, capsys):
        assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "semantic", "--n", "0", "--out", str(tmp_path / "d")]) == 0
        assert capsys.readouterr().out == ""

    def test_missing_checkpoint_is_data_error(self, ws, tmp_path):
        assert main(["decode", str(tmp_path / "ghost.json"), "--world", ws["world_dir"],
                     "--mode", "semantic", "--out", str(tmp_path / "d")]) == 3

    def test_truncated_checkpoint_is_data_error(self, ws, tmp_path):
        for ext in (".json", ".bin"):
            shutil.copyfile(os.path.join(ws["run_dir"], "model" + ext), tmp_path / ("model" + ext))
        blob = tmp_path / "model.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        proc = _run_cli(["decode", str(tmp_path / "model.json"), "--world", ws["world_dir"],
                         "--mode", "semantic", "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "checkpoint blob" in proc.stderr

    @pytest.mark.parametrize("damage", ["truncated", "no utf-8"])
    @pytest.mark.parametrize("name", [
        "world/config.json", "world/vocab.json", "world/world.json", "world/features.json",
        "run/model.json",
    ])
    def test_a_damaged_json_file_is_named(self, ws, tmp_path, caplog, name, damage):
        """A JSON file cut short or holding a byte that is no UTF-8, be it a
        world record, the vocabulary, the world's config or a tensor
        manifest, is refused with one line that names it, not with the
        decoder's bare line or a traceback."""
        shutil.copytree(ws["world_dir"], tmp_path / "world")
        shutil.copytree(ws["run_dir"], tmp_path / "run")
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(data[:-40] if damage == "truncated" else data[:20] + b"\xff" + data[21:])
        code, errors = _main_errors(["decode", str(tmp_path / "run" / "model.json"), "--world",
                                     str(tmp_path / "world"), "--mode", "semantic",
                                     "--out", str(tmp_path / "d")], caplog)
        assert code == 3 and len(errors) == 1, errors
        assert errors[0].startswith(f"{path}: not a JSON file: "), errors

    def test_flipped_bit_checkpoint_is_data_error(self, ws, tmp_path):
        for ext in (".json", ".bin"):
            shutil.copyfile(os.path.join(ws["run_dir"], "model" + ext), tmp_path / ("model" + ext))
        blob = tmp_path / "model.bin"
        data = bytearray(blob.read_bytes())
        data[len(data) // 3] ^= 0x01  # one bit of one embedding value
        blob.write_bytes(bytes(data))
        proc = _run_cli(["decode", str(tmp_path / "model.json"), "--world", ws["world_dir"],
                         "--mode", "semantic", "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "sha256" in proc.stderr

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc, blob: doc["config"].update(dtype="float16"),
         "network dtype must be float32 or float64, not 'float16'"),
        (lambda doc, blob: doc["config"].update(bogus=1), "bad network config: "),
        (lambda doc, blob: doc.update(version=1),
         "bilayer-checkpoint version 1 is not readable; this reader reads version 3"),
        (_append_untied_readout,
         "checkpoint holds tensors ['ctx_in', 'ctx_out', 'ctx_rec', 'emb', 'emb_up', 'enc_b',"),
        (lambda doc, blob: doc.pop("blob_sha256"), "model.json: missing keys blob_sha256"),
    ], ids=["dtype", "unknown-setting", "version-1", "emb_up", "no-blob-sha256"])
    def test_a_tampered_checkpoint_manifest_is_data_error(self, ws, tmp_path, tamper, message):
        """A manifest with a bad network setting, of the old version,
        listing a readout tensor besides the embedding or without its blob's
        digest is refused with one line."""
        for ext in (".json", ".bin"):
            shutil.copyfile(os.path.join(ws["run_dir"], "model" + ext), tmp_path / ("model" + ext))
        manifest = json.loads((tmp_path / "model.json").read_text())
        tamper(manifest, tmp_path / "model.bin")
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        proc = _run_cli(["decode", str(tmp_path / "model.json"), "--world", ws["world_dir"],
                         "--mode", "semantic", "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_a_version_2_checkpoint_is_data_error(self, ws, tmp_path):
        """A checkpoint of version 2's layout, where the pooled vector is a
        tensor of its own after `ctx_out` and not the embedding's last
        column, is refused with one line that names its manifest."""
        run, base = os.path.join(ws["run_dir"], "model"), str(tmp_path / "model")
        manifest = read_checkpoint_manifest(run)
        t = read_tensors(run, manifest, manifest["config"]["dtype"])
        tensors = [("emb", t["emb"][:, :-1]), ("ctx_in", t["ctx_in"]), ("ctx_rec", t["ctx_rec"]),
                   ("ctx_out", t["ctx_out"]), ("pooled", t["emb"][:, -1]), ("enc_w", t["enc_w"]),
                   ("enc_b", t["enc_b"])]
        meta = {k: manifest[k] for k in ("config", "kind_counts", "vocab_sha256")}
        write_archive(base, CHECKPOINT_FORMAT, 2, meta, tensors, manifest["config"]["dtype"])
        proc = _run_cli(["decode", base + ".json", "--world", ws["world_dir"],
                         "--mode", "semantic", "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            f"ERROR {base}.json: bilayer-checkpoint version 2 is not readable; "
            "this reader reads version 3"]

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc, blob: doc.update(vocab_sha256="0" * 64),
         "checkpoint was saved against a different vocabulary"),
        (_append_untied_readout, "checkpoint holds tensors ['ctx_in', "),
        (lambda doc, blob: next(t for t in doc["tensors"] if t["name"] == "emb")["shape"]
         .reverse(), "checkpoint tensor 'emb' has shape "),
        (lambda doc, blob: doc["config"].pop("ctx_dim"),
         "bad network config: missing keys ctx_dim"),
        (lambda doc, blob: doc["config"].update(ctx_dim=7),
         "checkpoint tensor 'ctx_in' has shape [12, 24], not [7, 24]"),
        (lambda doc, blob: next(t for t in doc["tensors"] if t["name"] == "ctx_in")["shape"]
         .reverse(), "checkpoint tensor 'ctx_in' has shape [24, 12], not [12, 24]"),
    ], ids=["vocabulary", "emb_up", "embedding-shape", "no-ctx_dim", "ctx_dim-7",
            "swapped-ctx_in"])
    def test_a_checkpoint_that_does_not_fit_names_its_manifest(self, ws, tmp_path, tamper,
                                                              message):
        """A checkpoint saved against another vocabulary, holding a tensor
        besides the model's, whose config lacks a setting, or one of whose
        tensors has a shape other than its config and vocabulary give is
        refused with one ERROR line that names its manifest."""
        for ext in (".json", ".bin"):
            shutil.copyfile(os.path.join(ws["run_dir"], "model" + ext), tmp_path / ("model" + ext))
        manifest = json.loads((tmp_path / "model.json").read_text())
        tamper(manifest, tmp_path / "model.bin")
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        proc = _run_cli(["decode", str(tmp_path / "model.json"), "--world", ws["world_dir"],
                         "--mode", "semantic", "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [proc.stderr.rstrip("\n")], proc.stderr
        assert proc.stderr.startswith(f"ERROR {tmp_path / 'model.json'}: {message}"), proc.stderr

    @pytest.mark.parametrize("command", ["decode", "ssl"])
    @pytest.mark.parametrize("kind_counts", [
        lambda kc: 7, lambda kc: "abcde", lambda kc: ["a"] * 5, lambda kc: kc[:4],
        lambda kc: [kc[0] - 1, *kc[1:4], kc[4] + 1],
    ], ids=["int", "string", "strings", "four", "shifted"])
    def test_kind_counts_that_are_not_the_vocabulary_s_are_refused(self, ws, tmp_path, caplog,
                                                                 command, kind_counts):
        """The manifest's per-kind column counts must be the vocabulary's:
        `grow` inserts new columns where they say each kind ends."""
        run = tmp_path / "run"
        shutil.copytree(ws["run_dir"], run)
        manifest = json.loads((run / "model.json").read_text())
        want = manifest["kind_counts"]
        manifest["kind_counts"] = kind_counts(want)
        (run / "model.json").write_text(json.dumps(manifest))
        args = (["--world", ws["world_dir"], "--mode", "semantic"] if command == "decode"
                else [ws["world_dir"]])
        code, errors = _main_errors([command, str(run / "model.json"), *args,
                                     "--out", str(tmp_path / "out")], caplog)
        assert code == 3
        assert errors == [f"{run / 'model.json'}: checkpoint kind_counts "
                          f"{manifest['kind_counts']!r} are not the vocabulary's {want}"]

    @pytest.mark.parametrize("field, value, message", [
        ("shape", [64, "x"], "tensor 'ctx_in' has shape [64, 'x'], not a list of non-negative"),
        ("shape", None, "tensor 'ctx_in' has shape None, not a list of non-negative ints"),
        ("nbytes", "x", "tensor 'ctx_in' has offset"),
        ("name", None, "a tensor has name None, not a string"),
    ])
    def test_mistyped_checkpoint_manifest_is_data_error(self, ws, tmp_path, field, value,
                                                        message):
        """The same for a checkpoint manifest's tensor list."""
        for ext in (".json", ".bin"):
            shutil.copyfile(os.path.join(ws["run_dir"], "model" + ext), tmp_path / ("model" + ext))
        manifest = json.loads((tmp_path / "model.json").read_text())
        spec = next(t for t in manifest["tensors"] if t["name"] == "ctx_in")
        if value is None:
            del spec[field]
        else:
            spec[field] = value
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        proc = _run_cli(["decode", str(tmp_path / "model.json"), "--world", ws["world_dir"],
                         "--mode", "semantic", "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message in lines[0], proc.stderr

    def test_non_finite_scores_are_numeric_error(self, ws, tmp_path):
        vocab = ws["world"].vocab
        params = load_checkpoint(os.path.join(ws["run_dir"], "model"), vocab)
        params.emb[:, ColumnMap(vocab).block["entity"]] = np.nan
        save_checkpoint(params, vocab, str(tmp_path / "nan"))
        proc = _run_cli(["decode", str(tmp_path / "nan.json"), "--world", ws["world_dir"],
                         "--mode", "semantic", "--n", "2", "--out", str(tmp_path / "d")])
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "non-finite" in proc.stderr

    def test_same_seed_stream_is_identical(self, ws, tmp_path, capsys):
        scene = ws["world"].scenes_of_kind("train")[0]
        streams = []
        for out in ("d1", "d2"):
            assert main(["decode", ws["checkpoint"], "--world", ws["world_dir"],
                         "--mode", "episodic", "--t", scene.name, "--n", "6",
                         "--seed", "9", "--out", str(tmp_path / out)]) == 0
            streams.append(capsys.readouterr().out)
        assert streams[0] == streams[1]


class TestEval:
    NAMES = "episodic-recall,consolidation-fidelity"

    def test_reports_and_csv(self, ws, tmp_path, capsys):
        out = str(tmp_path / "ev")
        assert main(["eval", ws["checkpoint"], ws["world_dir"],
                     "--experiments", self.NAMES, "--seed", "5", "--out", out]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [e["experiment"] for e in events] == self.NAMES.split(",")
        for name in self.NAMES.split(","):
            doc = json.loads(Path(out, f"report-{name}.json").read_text(encoding="utf-8"))
            assert doc["experiment"] == name
            assert len(doc["fingerprint"]) == 64
            assert "wall_clock_s" not in doc
        with open(os.path.join(out, "metrics.csv")) as fp:
            header = fp.readline().strip()
            body = fp.read()
        assert header == "experiment,metric,value"
        assert "episodic-recall,unary_top1," in body
        index = json.loads(Path(out, "index.json").read_text(encoding="utf-8"))
        assert index["csv"] == "metrics.csv"
        assert sorted(index["reports"]) == sorted(
            f"report-{n}.json" for n in self.NAMES.split(",")
        )

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["eval", ws["checkpoint"], ws["world_dir"],
                         "--experiments", self.NAMES, "--seed", "5", "--out", out]) == 0
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_models_it_trains_take_the_config_widths(self, ws, tmp_path, monkeypatch):
        widths = []

        def record(params, *args, **kwargs):
            widths.append(params.config.rep_dim)
            return []

        monkeypatch.setattr(evaluation, "train", record)
        assert main(["eval", ws["checkpoint"], ws["world_dir"], "--config", ws["train_cfg"],
                     "--experiments", "hidden-label-enrichment",
                     "--out", str(tmp_path / "ev")]) == 0
        assert widths == [TRAIN_CONFIG["rep_dim"]] * 2

    def test_unknown_experiment_is_data_error(self, ws, tmp_path):
        assert main(["eval", ws["checkpoint"], ws["world_dir"],
                     "--experiments", "daydreaming", "--out", str(tmp_path / "ev")]) == 3

    def test_a_list_is_checked_before_any_experiment_runs(self, ws, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", ws["checkpoint"], ws["world_dir"],
                     "--experiments", "episodic-recall,daydreaming", "--out", str(out)]) == 3
        assert not out.exists()  # no report, not even a manifest

    def test_experiments_the_world_cannot_feed_fail_before_any_runs(self, tmp_path):
        # no unlabeled shard, as in a default world, no social network and no
        # held-out combos to view zero-shot
        world_cfg = {**WORLD_CONFIG, "unlabeled_fraction": 0.0, "social": False,
                     "zero_shot_fraction": 0.0}
        wcfg = _write_json(tmp_path / "world.json", world_cfg)
        tcfg = _write_json(tmp_path / "train.json", {**TRAIN_CONFIG, "epochs": 1})
        world_dir, run = str(tmp_path / "world"), str(tmp_path / "run")
        assert main(["gen", "--config", wcfg, "--out", world_dir]) == 0
        assert main(["train", world_dir, "--config", tcfg, "--out", run]) == 0
        out = tmp_path / "ev"
        for names, lack in (("all", "social-recall: world has no social instances"),
                            ("episodic-recall,ssl-before-after",
                             "ssl-before-after: world has no unlabeled shard"),
                            ("episodic-recall,zero-shot-binary",
                             "zero-shot-binary: world has no zero-shot views")):
            proc = _run_cli(["eval", os.path.join(run, "model.json"), world_dir,
                             "--experiments", names, "--out", str(out)])
            assert proc.returncode == 3, proc.stderr
            assert len(proc.stderr.splitlines()) == 1 and lack in proc.stderr
            assert not out.exists()


class TestSsl:
    def test_growth_run(self, ws, tmp_path, capsys):
        out = str(tmp_path / "ssl")
        assert main(["ssl", ws["checkpoint"], ws["world_dir"], "--seed", "7",
                     "--out", out]) == 0
        events = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert events[-1]["event"] == "ssl"
        assert events[-1]["new_instances"] > 0
        for name in ("model.json", "model.bin", "vocab.json", "pseudo.jsonl", "manifest.json"):
            assert os.path.isfile(os.path.join(out, name))
        vocab_doc = json.loads(Path(out, "vocab.json").read_text(encoding="utf-8"))
        n_before = len(ws["world"].vocab.instances)
        assert len(vocab_doc["instances"]) == n_before + events[-1]["new_instances"]
        with open(os.path.join(out, "pseudo.jsonl")) as fp:
            rows = [json.loads(l) for l in fp]
        assert rows and all(r["y"] == 1 and r["provenance"] == "ssl" for r in rows)


@pytest.fixture(scope="module")
def grown(ws):
    """A 1-epoch train run on the shared world and the `bilayer ssl` growth
    of its checkpoint."""
    root = ws["root"]
    tcfg = _write_json(root / "train-1epoch.json", {**TRAIN_CONFIG, "epochs": 1})
    run, out = str(root / "run-1epoch"), str(root / "ssl-1epoch")
    assert main(["train", ws["world_dir"], "--config", tcfg, "--out", run]) == 0
    assert main(["ssl", os.path.join(run, "model.json"), ws["world_dir"], "--config", tcfg,
                 "--out", out]) == 0
    return {"dir": out, "checkpoint": os.path.join(out, "model.json"), "train_cfg": tcfg,
            "run": run}


class TestGrownCheckpoint:
    """Every command that reads a checkpoint reads one `bilayer ssl` grew,
    through the vocab.json written beside it."""

    def test_episodic_decode_of_an_instance_ssl_added(self, ws, grown, tmp_path, capsys):
        (name, *_) = [s.name for s in ws["world"].scenes_of_kind("unlabeled")]
        assert name not in ws["world"].vocab
        capsys.readouterr()
        assert main(["decode", grown["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "episodic", "--t", name, "--n", "3",
                     "--out", str(tmp_path / "d")]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 3 and all(r["t"] == name for r in records)
        assert main(["decode", grown["checkpoint"], "--world", ws["world_dir"],
                     "--mode", "semantic", "--n", "2", "--out", str(tmp_path / "s")]) == 0

    def test_eval_reads_it(self, ws, grown, tmp_path):
        out = tmp_path / "ev"
        assert main(["eval", grown["checkpoint"], ws["world_dir"],
                     "--experiments", "episodic-recall", "--out", str(out)]) == 0
        report = json.loads((out / "report-episodic-recall.json").read_text(encoding="utf-8"))
        assert report["counts"]["unary"] > 0

    def test_training_resumes_from_it_and_keeps_its_vocabulary(self, ws, grown, tmp_path):
        run = tmp_path / "run"
        assert main(["train", ws["world_dir"], "--config", grown["train_cfg"],
                     "--checkpoint", grown["checkpoint"], "--out", str(run)]) == 0
        assert (run / "vocab.json").read_bytes() == Path(
            grown["dir"], "vocab.json").read_bytes()
        assert main(["eval", str(run / "model.json"), ws["world_dir"],
                     "--experiments", "episodic-recall", "--out", str(tmp_path / "ev")]) == 0

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc: doc["instances"].pop(), "checkpoint was saved against a different vocabulary"),
        (lambda doc: doc["instances"].append("e0000"), "{path}: duplicate symbol 'e0000'"),
        (lambda doc: doc["families"]["Age"].insert(0, "Old"),
         "{path}: family 'Age' lists 'Old' twice"),
    ], ids=["instance-dropped", "duplicate-name", "duplicate-family-member"])
    def test_a_tampered_vocabulary_is_data_error(self, ws, grown, tmp_path, tamper, message):
        """A vocab.json beside a checkpoint that lost a symbol, lists a name
        twice or lists a family member twice, is refused with one line; the
        duplicates' name the file."""
        shutil.copytree(grown["dir"], tmp_path / "ssl")
        path = tmp_path / "ssl" / "vocab.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        tamper(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        proc = _run_cli(["decode", str(tmp_path / "ssl" / "model.json"), "--world",
                         ws["world_dir"], "--mode", "semantic", "--n", "1",
                         "--out", str(tmp_path / "d")])
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and message.format(path=path) in lines[0], proc.stderr

    def test_a_chain_of_commands_grows_once(self, ws, grown, tmp_path, caplog):
        """`train` -> `ssl` (the `grown` fixture), then `ssl` -> `eval all` ->
        `decode` -> `train --checkpoint` -> `ssl`.  A grown checkpoint holds
        every unlabeled scene's instance, so each later `ssl` and `eval all`
        exits 3 with one line before it writes any output, and every other
        step exits 0.  At the growth the new vocabulary extends the old, and
        every block and column SSL does not train stays bitwise unchanged: all
        but the entity and instance columns."""
        world_dir, checkpoint = ws["world_dir"], grown["checkpoint"]

        def refused(args, out, says):
            code, errors = _main_errors([*args, "--out", str(out)], caplog)
            assert code == 3 and len(errors) == 1 and says in errors[0], errors
            assert not out.exists()

        refused(["ssl", checkpoint, world_dir], tmp_path / "ssl2",
                "no unlabeled scene is left to perceive")
        refused(["eval", checkpoint, world_dir, "--experiments", "all"], tmp_path / "ev",
                "ssl-before-after: the vocabulary holds every unlabeled scene's instance")
        assert main(["decode", checkpoint, "--world", world_dir, "--mode", "semantic",
                     "--n", "2", "--out", str(tmp_path / "d")]) == 0
        run = tmp_path / "run"
        assert main(["train", world_dir, "--config", grown["train_cfg"],
                     "--checkpoint", checkpoint, "--out", str(run)]) == 0
        refused(["ssl", str(run / "model.json"), world_dir], tmp_path / "ssl3",
                "no unlabeled scene is left to perceive")

        old_vocab = load_world(world_dir).vocab
        new_vocab = read_vocab(os.path.join(grown["dir"], "vocab.json"))
        assert new_vocab.extends(old_vocab) and len(new_vocab) > len(old_vocab)
        before = load_checkpoint(os.path.join(grown["run"], "model"), old_vocab).blocks()
        after = load_checkpoint(os.path.join(grown["dir"], "model"), new_vocab).blocks()
        old_cols, new_cols = ColumnMap(old_vocab), ColumnMap(new_vocab)
        kept = np.concatenate([group_cols(old_cols, "label"), group_cols(old_cols, "predicate")])
        moved = new_cols.cols_of(old_cols.ids[kept])
        assert before.keys() == after.keys()
        for name, block in before.items():
            if name == "emb":
                np.testing.assert_array_equal(after[name][:, moved], block[:, kept])
            else:
                np.testing.assert_array_equal(after[name], block)
