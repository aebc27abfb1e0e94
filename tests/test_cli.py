import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import signal
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rekpool import cli
from rekpool.cli import main
from rekpool.features import FEATURE_NAMES, load_dataset
from rekpool.forest import ForestParams
from rekpool.geometry import load_scene
from rekpool.pipeline import SPECTRUM_HEADER, loo_evaluate
from rekpool.pool import POOL_FORMAT_VERSION, Context, Pool, load_pool, pool_to_dict


def run(*argv):
    return main(list(argv))


#: List nestings from within to far beyond what Python's JSON decoder holds.
NESTING_DEPTHS = [500, 990, 3000, 100000]


def nested_json(depth):
    """JSON text of the number 1.5 inside `depth` nested lists."""
    return "[" * depth + "1.5" + "]" * depth


def with_nested(path, keys, depth):
    """The text of the JSON file at `path` with the value that `keys`
    leads to replaced by `nested_json(depth)`."""
    doc = json.loads(path.read_text())
    holder = doc
    for k in keys[:-1]:
        holder = holder[k]
    holder[keys[-1]] = "<nested>"
    return json.dumps(doc).replace('"<nested>"', nested_json(depth))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small end-to-end pipeline run shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    out = str(d)
    assert run("--seed", "3", "--out-dir", out, "--quiet", "scene-gen") == 0
    scene = os.path.join(out, "scene.json")
    assert run("--seed", "3", "--out-dir", out, "--quiet", "simulate",
               "--scene", scene, "--n-realizations", "10") == 0
    dataset = os.path.join(out, "dataset.csv")
    assert run("--seed", "3", "--out-dir", out, "--quiet", "learn",
               "--scene", scene, "--dataset", dataset,
               "--n-trees", "8", "--min-leaf", "2", "--max-depth", "6") == 0
    return d


class TestSceneGen:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("--seed", "5", "--out-dir", str(a), "--quiet", "scene-gen") == 0
        assert run("--seed", "5", "--out-dir", str(b), "--quiet", "scene-gen") == 0
        assert (a / "scene.json").read_bytes() == (b / "scene.json").read_bytes()

    def test_prints_los_table(self, tmp_path, capsys):
        assert run("--seed", "5", "--out-dir", str(tmp_path), "scene-gen") == 0
        out = capsys.readouterr().out
        assert out.count("NLOS") == 4
        assert out.count(" LOS") == 11


class TestSimulate:
    def test_row_count(self, workdir):
        with open(workdir / "dataset.csv") as f:
            n_rows = sum(1 for _ in f) - 1
        assert n_rows == 15 * 10

    def test_rerun_byte_identical(self, workdir, tmp_path):
        scene = str(workdir / "scene.json")
        assert run("--seed", "3", "--out-dir", str(tmp_path), "--quiet",
                   "simulate", "--scene", scene, "--n-realizations", "10") == 0
        assert (tmp_path / "dataset.csv").read_bytes() == \
            (workdir / "dataset.csv").read_bytes()

    def test_missing_scene_exit_1(self, tmp_path):
        assert run("--seed", "1", "--out-dir", str(tmp_path), "simulate",
                   "--scene", str(tmp_path / "nope.json")) == 1

    def test_missing_seed_exit_2(self, workdir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("--out-dir", str(tmp_path), "simulate",
                "--scene", str(workdir / "scene.json"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag,value,name", [
        ("--rx-jitter", "nan", "rx_jitter_sigma"), ("--rx-jitter", "inf", "rx_jitter_sigma"),
        ("--scatterer-jitter", "nan", "scatterer_jitter_sigma")])
    def test_unusable_jitter_exit_1(self, workdir, tmp_path, capsys, flag, value, name):
        assert run("--seed", "3", "--out-dir", str(tmp_path), "simulate",
                   "--scene", str(workdir / "scene.json"), "--n-realizations", "4",
                   flag, value) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]
        assert not (tmp_path / "dataset.csv").exists()

    def test_huge_jitter_exit_1(self, workdir, tmp_path, capsys):
        """A valid sigma that puts boxes too far apart for a float distance: one
        error line, and no overflow warning (pytest turns one into an error)."""
        assert run("--seed", "3", "--out-dir", str(tmp_path), "simulate",
                   "--scene", str(workdir / "scene.json"), "--n-realizations", "4",
                   "--scatterer-jitter", "1e155") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: realization 1 at position 1 has non-finite")
        assert not (tmp_path / "dataset.csv").exists()


class TestLearn:
    def test_spectrum_shape(self, workdir):
        with open(workdir / "spectrum.csv") as f:
            rows = list(csv.reader(f))
        assert tuple(rows[0]) == SPECTRUM_HEADER
        assert len(rows) == 1 + 15
        k_lvbd = rows[0].index("K_LVBD")
        for rec in rows[1:]:
            if rec[k_lvbd]:  # degenerate positions leave the columns empty
                assert float(rec[k_lvbd]) == pytest.approx(1.0)

    def test_pool_written(self, workdir):
        pool = load_pool(workdir / "pool.json")
        assert 1 <= len(pool.entries) <= pool.capacity


class TestPredict:
    def test_outputs(self, workdir, tmp_path):
        assert run("--out-dir", str(tmp_path), "--quiet", "predict",
                   "--scene", str(workdir / "scene.json"),
                   "--dataset", str(workdir / "dataset.csv"),
                   "--pool", str(workdir / "pool.json")) == 0
        with open(tmp_path / "summary.csv") as f:
            rows = list(csv.reader(f))
        methods = [r[0] for r in rows[1:]]
        assert methods == ["knn", "logdistance", "rekp"]
        with open(tmp_path / "cdf.csv") as f:
            cdf_rows = list(csv.reader(f))
        assert cdf_rows[0] == ["method", "error_db", "cum_fraction"]
        assert len(cdf_rows) == 1 + 3 * 15

    def test_missing_pool_exit_1(self, workdir, tmp_path):
        assert run("--out-dir", str(tmp_path), "predict",
                   "--scene", str(workdir / "scene.json"),
                   "--dataset", str(workdir / "dataset.csv"),
                   "--pool", str(tmp_path / "nope.json")) == 1

    @pytest.mark.parametrize("flag,value", [("--k", "0"), ("--k", "-2"), ("--tau", "nan"),
                                            ("--tau", "5"), ("--tau", "-1"), ("--tau", "0")])
    def test_bad_k_or_tau_exit_1(self, workdir, tmp_path, capsys, flag, value):
        assert run("--out-dir", str(tmp_path), "predict",
                   "--scene", str(workdir / "scene.json"),
                   "--dataset", str(workdir / "dataset.csv"),
                   "--pool", str(workdir / "pool.json"), flag, value) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "summary.csv").exists()

    @pytest.fixture(scope="class")
    def fallback_pool(self, workdir, tmp_path_factory):
        """A pool that answers no held-out position: every prediction falls back."""
        out = tmp_path_factory.mktemp("fallback")
        assert run("--seed", "3", "--out-dir", str(out), "--quiet", "learn",
                   "--scene", str(workdir / "scene.json"),
                   "--dataset", str(workdir / "dataset.csv"), "--n-trees", "3",
                   "--theta-low", "0.99", "--theta-high", "1.0") == 0
        scene, traj = load_scene(workdir / "scene.json")
        preds, _ = loo_evaluate(scene, traj, load_dataset(workdir / "dataset.csv"),
                                pool_template=load_pool(out / "pool.json"))
        assert all(p.fallback for p in preds if p.method == "rekp")
        return out / "pool.json"

    @pytest.mark.parametrize("tau", ["5", "nan"])
    def test_bad_tau_exit_1_when_every_prediction_falls_back(self, workdir, fallback_pool,
                                                              tmp_path, capsys, tau):
        assert run("--out-dir", str(tmp_path), "predict",
                   "--scene", str(workdir / "scene.json"),
                   "--dataset", str(workdir / "dataset.csv"),
                   "--pool", str(fallback_pool), "--tau", tau) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "summary.csv").exists()


class TestPoolCommand:
    def test_show(self, workdir, capsys):
        assert run("pool", "show", str(workdir / "pool.json")) == 0
        out = capsys.readouterr().out
        assert "entries" in out

    def test_evict(self, workdir, tmp_path):
        src = (workdir / "pool.json").read_bytes()
        target = tmp_path / "pool.json"
        target.write_bytes(src)
        assert run("pool", "evict", str(target), "--capacity", "1") == 0
        assert len(load_pool(target).entries) == 1

    def test_merge_identical_answers_existing(self, workdir, tmp_path, capsys):
        src = (workdir / "pool.json").read_bytes()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_bytes(src)
        b.write_bytes(src)
        assert run("pool", "merge", str(a), "--into", str(b)) == 0
        out = capsys.readouterr().out
        assert "AnsweredExisting" in out
        assert "GeneratedNew" not in out

    def test_evict_below_one_rejected(self, workdir, tmp_path, capsys):
        target = tmp_path / "pool.json"
        target.write_bytes((workdir / "pool.json").read_bytes())
        for capacity in ("0", "-1"):
            assert run("pool", "evict", str(target), "--capacity", capacity) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert target.read_bytes() == (workdir / "pool.json").read_bytes()

    def test_corrupt_pool_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("pool", "show", str(bad)) == 1


class TestGolden:
    """Byte-exact outputs of the seeded small run, predict included.

    A digest change is a change to the program's output and must be
    deliberate and recorded."""

    DIGESTS = {
        "dataset.csv": "49d02848761a1c0a98b1b6f60d629d06062107919b608df454286f5fa28b31f7",
        "spectrum.csv": "8336fc9291975b642169db2dbbd2f2f57bdba60fee40976665c8b101ccf087bb",
        "pool.json": "53fada48f5d2b1c978de0c81ace04b837552ef9b337238ab5305f64b46b2c469",
        "summary.csv": "7de504d0b3727837665a81429820b0ac143df3ffd8ce8eb9f0c0325caa01b039",
    }

    def test_output_digests(self, workdir, tmp_path):
        assert run("--out-dir", str(tmp_path), "--quiet", "predict",
                   "--scene", str(workdir / "scene.json"),
                   "--dataset", str(workdir / "dataset.csv"),
                   "--pool", str(workdir / "pool.json")) == 0
        got = {}
        for name in self.DIGESTS:
            path = tmp_path / name if name == "summary.csv" else workdir / name
            got[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == self.DIGESTS


class TestMalformedInput:
    """A malformed input file gives one `error:` line and exit code 1."""

    def assert_one_error_line(self, capsys, argv):
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    @pytest.mark.parametrize("doc", [
        {"version": 1},
        {"version": POOL_FORMAT_VERSION},
        {"version": POOL_FORMAT_VERSION, "forest_params": []},
    ])
    def test_pool(self, tmp_path, capsys, doc):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))
        self.assert_one_error_line(capsys, ["pool", "show", str(path)])

    @pytest.mark.parametrize("command", ["pool", "predict"])
    @pytest.mark.parametrize("case", ["child out of range", "trailing nodes",
                                      "unequal lengths", "feature >= 16", "no trees",
                                      "one tree more", "version 2", "version 3",
                                      "version 4"])
    def test_malformed_tree(self, workdir, tmp_path, capsys, command, case):
        doc = json.loads((workdir / "pool.json").read_text())
        model = doc["entries"][0]["model"]
        if case == "child out of range":  # the last right child lies past the end
            model["feature"].pop()
            model["value"].pop()
        elif case == "trailing nodes":  # an inner node and its left leaf end the sequence
            model["feature"] += [0, -1]
            model["threshold"].append(0.5)
            model["value"].append(0.0)
        elif case == "unequal lengths":  # one value more than there are leaves
            model["value"].append(0.0)
        elif case == "feature >= 16":
            model["feature"][0] = 16
        elif case == "no trees":
            for key in ("feature", "threshold", "value"):
                model[key] = []
        elif case == "one tree more":  # a whole leaf tree beyond n_trees
            model["feature"].append(-1)
            model["value"].append(0.0)
        else:
            doc["version"] = int(case[-1])
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))
        argv = ["pool", "show", str(path)]
        if command == "predict":
            argv = ["--out-dir", str(tmp_path), "predict", "--scene",
                    str(workdir / "scene.json"), "--dataset",
                    str(workdir / "dataset.csv"), "--pool", str(path)]

        def hung(signum, frame):
            raise AssertionError("command did not return")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)  # a tree walk that never ends fails instead of hanging
        try:
            self.assert_one_error_line(capsys, argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("case", ["duplicate entry_id", "next_entry_id not above",
                                      "narrow train_X", "no rows", "train_y length",
                                      "features_per_split 2.5", "n_trees 2.7",
                                      "integer too large for a float", "capacity 2.7",
                                      "scene_fingerprint 1.9", "los no", "created_at string",
                                      "utilization_count -5", "more entries than capacity"])
    def test_pool_invariants(self, workdir, tmp_path, capsys, case):
        doc = json.loads((workdir / "pool.json").read_text())
        first, second = doc["entries"][:2]
        if case == "duplicate entry_id":
            second["entry_id"] = first["entry_id"]
        elif case == "next_entry_id not above":
            doc["next_entry_id"] = max(e["entry_id"] for e in doc["entries"])
        elif case == "narrow train_X":
            first["train_X"] = [row[:-1] for row in first["train_X"]]
        elif case == "no rows":
            first["train_X"], first["train_y"] = [], []
        elif case == "train_y length":
            first["train_y"].pop()
        elif case == "integer too large for a float":
            doc["thresholds"]["theta_high"] = 10 ** 400
        elif case == "capacity 2.7":  # loaded as 2
            doc["capacity"] = 2.7
        elif case == "scene_fingerprint 1.9":  # loaded as 1
            first["context"]["scene_fingerprint"] = 1.9
        elif case == "los no":  # loaded as True
            first["context"]["los"] = "no"
        elif case == "created_at string":  # loaded as 3.0
            first["created_at"] = "3"
        elif case == "utilization_count -5":  # an evicting merge hit log1p(-5)
            first["utilization_count"] = -5
        elif case == "more entries than capacity":
            doc["capacity"] = len(doc["entries"]) - 1
        else:  # loading coerced these, and a fit later raised TypeError
            name, value = case.split()
            doc["forest_params"][name] = float(value)
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))
        self.assert_one_error_line(capsys, ["pool", "show", str(path)])
        self.assert_one_error_line(capsys, ["pool", "merge", str(workdir / "pool.json"),
                                            "--into", str(path)])
        assert json.loads(path.read_text()) == doc

    @pytest.mark.parametrize("value", [5, True, ["0" * 64], "A" * 64, "a" * 63, "a" * 65,
                                       "g" * 64, " " + "a" * 63, "format 6"],
                             ids=["int", "bool", "list", "upper", "63 digits", "65 digits",
                                  "not hex", "space", "format 6"])
    def test_source_sha256(self, workdir, tmp_path, capsys, value):
        """An entry's source digest is null or 64 lowercase hex digits, and a
        format-6 file, which stores none, is refused by its version."""
        doc = json.loads((workdir / "pool.json").read_text())
        if value == "format 6":
            doc["version"] = 6
            for e in doc["entries"]:
                del e["source_sha256"]
        else:
            doc["entries"][1]["source_sha256"] = value
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))
        for argv in (["pool", "show", str(path)],
                     ["--out-dir", str(tmp_path), "predict", "--scene",
                      str(workdir / "scene.json"), "--dataset",
                      str(workdir / "dataset.csv"), "--pool", str(path)]):
            assert run(*argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")
            assert ("version: 6" if value == "format 6" else "source_sha256") in err[0]
        assert not (tmp_path / "summary.csv").exists()

    def test_non_finite_pool_value(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "pool.json").read_text())
        doc["entries"][0]["weights"]["w_L"] = math.nan  # nothing else checks weights
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))  # json writes the NaN literal
        self.assert_one_error_line(capsys, [
            "--out-dir", str(tmp_path), "predict", "--scene", str(workdir / "scene.json"),
            "--dataset", str(workdir / "dataset.csv"), "--pool", str(path)])
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("weights", [(-3.0, 2.0, 1.0, 1.0), (0.5, 0.5, 0.5, 0.5)])
    def test_impossible_weights(self, workdir, tmp_path, capsys, weights):
        doc = json.loads((workdir / "pool.json").read_text())
        for entry in doc["entries"]:
            entry["weights"] = dict(zip(("w_L", "w_V", "w_B", "w_D"), weights))
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))
        self.assert_one_error_line(capsys, [
            "--out-dir", str(tmp_path), "predict", "--scene", str(workdir / "scene.json"),
            "--dataset", str(workdir / "dataset.csv"), "--pool", str(path)])
        assert not (tmp_path / "summary.csv").exists()

    def test_non_finite_scene_value(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "scene.json").read_text())
        doc["scatterers"][0]["reflection_loss_db"] = math.nan
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))  # json writes the NaN literal
        self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "simulate", "--scene", str(path)])
        assert not (tmp_path / "dataset.csv").exists()

    def test_non_finite_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "reflection_loss_db": NaN}')
        assert_usage_error(capsys, ["--config", str(cfg), "--out-dir", str(tmp_path),
                                    "--quiet", "scene-gen"])
        assert not (tmp_path / "scene.json").exists()

    @pytest.mark.parametrize("key", ["tx", "scatterers", "trajectory"])
    def test_scene(self, workdir, tmp_path, capsys, key):
        doc = json.loads((workdir / "scene.json").read_text())
        del doc[key]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "simulate", "--scene", str(path)])

    @pytest.mark.parametrize("case", ["id 1.9", "center strings", "tx true", "version true"])
    def test_scene_json_types(self, workdir, tmp_path, capsys, case):
        """A scene field must have the JSON type that `save_scene` writes."""
        doc = json.loads((workdir / "scene.json").read_text())
        if case == "id 1.9":
            doc["scatterers"][0]["id"] = 1.9
        elif case == "center strings":
            doc["scatterers"][1]["center"] = ["22.5", "-14", "8"]
        elif case == "tx true":
            doc["tx"][0] = True
        else:
            doc["version"] = True
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc))
        self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "simulate", "--scene", str(path)])
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("case", ["empty", "short row", "los 2", "los -1",
                                      "repeated row"])
    def test_dataset(self, workdir, tmp_path, capsys, case):
        text = ""
        lines = (workdir / "dataset.csv").read_text().splitlines(keepends=True)
        if case == "short row":
            text = lines[0] + ",".join(lines[1].split(",")[:5]) + "\n"
        elif case.startswith("los"):
            # position 1's realization 0; the los field is second to last
            fields = lines[1].split(",")
            assert fields[:2] == ["1", "0"]
            fields[-2] = case.split()[1]
            text = "".join([lines[0], ",".join(fields)] + lines[2:])
        elif case == "repeated row":
            text = "".join(lines[:2] + lines[1:])
        path = tmp_path / "dataset.csv"
        path.write_text(text)
        self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "learn",
            "--scene", str(workdir / "scene.json"), "--dataset", str(path)])


    def test_dataset_field_over_the_csv_limit(self, workdir, tmp_path, capsys):
        lines = (workdir / "dataset.csv").read_text().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[4] = "1" * 131_073  # one character over the csv module's field limit
        path = tmp_path / "dataset.csv"
        path.write_text("".join(lines[:2] + [",".join(fields)] + lines[3:]))
        err = self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "learn",
            "--scene", str(workdir / "scene.json"), "--dataset", str(path)])
        assert err.startswith("error: dataset line 3: field larger than field limit")
        assert not (tmp_path / "pool.json").exists()

    @pytest.mark.parametrize("depth", NESTING_DEPTHS)
    def test_deeply_nested_scene(self, workdir, tmp_path, capsys, depth):
        path = tmp_path / "scene.json"
        path.write_text(with_nested(workdir / "scene.json", ["trajectory"], depth))
        self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "simulate", "--scene", str(path)])
        assert not (tmp_path / "dataset.csv").exists()

    @pytest.mark.parametrize("keys", [["entries", 0, "train_X"],
                                      ["forest_params", "n_trees"]],
                             ids=["train_X", "n_trees"])
    @pytest.mark.parametrize("depth", NESTING_DEPTHS)
    def test_deeply_nested_pool(self, workdir, tmp_path, capsys, depth, keys):
        path = tmp_path / "pool.json"
        path.write_text(with_nested(workdir / "pool.json", keys, depth))
        self.assert_one_error_line(capsys, ["pool", "show", str(path)])

    @pytest.mark.parametrize("pid", ["0", "16"])
    def test_dataset_position_off_the_trajectory(self, workdir, tmp_path, capsys, pid):
        lines = (workdir / "dataset.csv").read_text().splitlines(keepends=True)
        moved = [pid + line[line.index(","):] if line.startswith("15,") else line
                 for line in lines]
        path = tmp_path / "dataset.csv"
        path.write_text("".join(moved))
        self.assert_one_error_line(capsys, [
            "--seed", "1", "--out-dir", str(tmp_path), "learn",
            "--scene", str(workdir / "scene.json"), "--dataset", str(path)])
        assert not (tmp_path / "pool.json").exists()

    @pytest.mark.parametrize("command", ["learn", "predict"])
    def test_header_only_dataset(self, workdir, tmp_path, capsys, command):
        header = (workdir / "dataset.csv").read_text().splitlines(keepends=True)[0]
        path = tmp_path / "dataset.csv"
        path.write_text(header)
        argv = ["--seed", "1", "--out-dir", str(tmp_path), command,
                "--scene", str(workdir / "scene.json"), "--dataset", str(path)]
        if command == "predict":
            argv += ["--pool", str(workdir / "pool.json")]
        self.assert_one_error_line(capsys, argv)
        assert not (tmp_path / "pool.json").exists()
        assert not (tmp_path / "summary.csv").exists()


@functools.cache
def fuzz_pools():
    """(target, source) pool files as text.  The target holds a generated
    and a transferred entry; the source's one entry is far from both, so
    merging it into the target fits a forest."""
    rng = np.random.default_rng(0)

    def pool_text(*contexts):
        pool = Pool(capacity=4, forest_params=ForestParams(n_trees=2, max_depth=2,
                                                           min_leaf=2, seed=1))
        for t, c in enumerate(contexts, start=1):
            X = rng.uniform(-1, 1, size=(6, len(FEATURE_NAMES)))
            pool.ingest(c, X, 2.0 * X[:, 0], now=float(t))
        return json.dumps(pool_to_dict(pool))
    return (pool_text(Context(1, 1, (0, 0, 1.5), True, 28e9),
                      Context(1, 2, (40, 0, 1.5), True, 28e9)),
            pool_text(Context(2, 3, (500, 0, 1.5), False, 3.5e9)))


def leaf_paths(doc, prefix=()):
    """Path of every value in a JSON document that is no object or list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from leaf_paths(v, prefix + (k,))
        else:
            yield prefix + (k,)


@functools.cache
def fuzz_leaves():
    """{leaf path with list indices as "*": the target's leaf paths of that
    shape}, so that each key is as likely as each row of train_X."""
    shapes = {}
    for path in leaf_paths(json.loads(fuzz_pools()[0])):
        shapes.setdefault(tuple("*" if isinstance(k, int) else k for k in path), []).append(path)
    return shapes


DELETE = "<delete>"


class TestPoolFileFuzz:
    """A pool file with one value of another JSON type, or one key or item
    fewer, is shown or merged into, or rejected with one `error:` line;
    no command raises."""

    @settings(max_examples=80, deadline=None)
    @given(shape=st.deferred(lambda: st.sampled_from(sorted(fuzz_leaves()))),
           pick=st.integers(0, 1000),
           new=st.one_of(st.integers(-3, 40), st.floats(-100, 100), st.sampled_from(
               ["", "x", "1.5"]), st.booleans(), st.none(), st.just(DELETE)))
    @example(shape=("forest_params", "features_per_split"), pick=0, new=2.5)
    def test_mutated_target(self, shape, pick, new):
        target_text, source_text = fuzz_pools()
        paths = fuzz_leaves()[shape]
        *parents, key = paths[pick % len(paths)]
        doc = json.loads(target_text)
        parent = functools.reduce(lambda d, k: d[k], parents, doc)
        if new == DELETE:
            del parent[key]
        else:
            parent[key] = new
        with tempfile.TemporaryDirectory() as d:
            target, source = os.path.join(d, "target.json"), os.path.join(d, "source.json")
            with open(target, "w") as f:
                json.dump(doc, f)
            with open(source, "w") as f:
                f.write(source_text)
            for argv in (["pool", "show", target],
                         ["pool", "merge", source, "--into", target]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
                lines = err.getvalue().splitlines()
                assert (code, lines) == (0, []) or (
                    code == 1 and len(lines) == 1 and lines[0].startswith("error: "))


def assert_usage_error(capsys, argv):
    """Exit code 2 with one `error:` line after the usage text."""
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


class TestUsage:
    @pytest.mark.parametrize("config", ["[1, 2]", '"seed"', '{"n_trees": "5"}',
                                        '{"n_trees": 1.5}', '{"theta_high": true}',
                                        '{"theta_high": "0.9"}', '{"n-tres": 5}',
                                        pytest.param('{"theta_high": 1%s}' % ("0" * 400),
                                                     id="integer too large for a float")])
    def test_bad_config_is_usage_error(self, workdir, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        assert_usage_error(capsys, [
            "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path), "--quiet",
            "learn", "--scene", str(workdir / "scene.json"),
            "--dataset", str(workdir / "dataset.csv")])
        assert not (tmp_path / "pool.json").exists()

    @pytest.mark.parametrize("depth", NESTING_DEPTHS)
    def test_deeply_nested_config_is_usage_error(self, workdir, tmp_path, capsys, depth):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_trees": %s}' % nested_json(depth))
        assert_usage_error(capsys, [
            "--config", str(cfg), "--seed", "1", "--out-dir", str(tmp_path), "--quiet",
            "learn", "--scene", str(workdir / "scene.json"),
            "--dataset", str(workdir / "dataset.csv")])
        assert not (tmp_path / "pool.json").exists()

    def test_config_numbers_take_the_option_type(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "spacing": 5, "frequency-hz": 28000000000, '
                       '"reflection_loss_db": null}')
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out-dir", str(out), "--quiet",
                   "scene-gen") == 0
        ref = tmp_path / "ref"
        assert run("--seed", "5", "--out-dir", str(ref), "--quiet",
                   "scene-gen") == 0
        assert (out / "scene.json").read_bytes() == (ref / "scene.json").read_bytes()

    def test_config_may_hold_other_commands_options(self, tmp_path):
        """One config file serves every stage: scene-gen ignores the options
        of learn, predict and pool."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 5, "n-trees": 4, "theta_high": 0.9, "k": 2, '
                       '"into": "other.json", "scene": "scene.json"}')
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out-dir", str(out), "--quiet",
                   "scene-gen") == 0
        ref = tmp_path / "ref"
        assert run("--seed", "5", "--out-dir", str(ref), "--quiet",
                   "scene-gen") == 0
        assert (out / "scene.json").read_bytes() == (ref / "scene.json").read_bytes()

    def test_config_sets_out_dir_and_quiet(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "out-dir": "elsewhere", "quiet": True}))
        assert run("--config", str(cfg), "scene-gen") == 0
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "scene.json").exists()
        ref = tmp_path / "ref"
        assert run("--seed", "5", "--out-dir", str(ref), "--quiet", "scene-gen") == 0
        assert (tmp_path / "elsewhere" / "scene.json").read_bytes() == \
            (ref / "scene.json").read_bytes()

    @pytest.mark.parametrize("config", ['{"quiet": 1}', '{"quiet": "yes"}',
                                        '{"out-dir": 3}', '{"out-dir": true}'])
    def test_bad_out_dir_or_quiet_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                 config):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        assert_usage_error(capsys, ["--config", str(cfg), "--seed", "5", "scene-gen"])
        assert list(tmp_path.iterdir()) == [cfg]

    def test_flags_override_config_out_dir_and_quiet(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "out-dir": "elsewhere", "quiet": False}))
        assert run("--config", str(cfg), "--out-dir", "here", "--quiet", "scene-gen") == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "here" / "scene.json").exists()
        assert not (tmp_path / "elsewhere").exists()

    def test_no_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_config_file_fills_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "out"
        assert run("--config", str(cfg), "--out-dir", str(out), "--quiet",
                   "scene-gen") == 0
        ref = tmp_path / "ref"
        assert run("--seed", "5", "--out-dir", str(ref), "--quiet",
                   "scene-gen") == 0
        assert (out / "scene.json").read_bytes() == (ref / "scene.json").read_bytes()


class TestOptionsReachTheLibrary:
    """The CLI passes the library only the options the user set, under the
    library's parameter names; the library's defaults stand for the rest."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Keyword arguments of each library constructor the CLI calls.  The
        stages' heavy work is stubbed out; the constructors run for real."""
        calls = {}

        def recorder(name, real):
            def record(*args, **kwargs):
                calls[name] = kwargs
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, record)
        for name in ("canonical_street_scene", "RealizationConfig", "ForestParams", "Pool"):
            recorder(name, getattr(cli, name))
        recorder("loo_evaluate", lambda *args, **kwargs: ([], {}))
        monkeypatch.setattr(cli, "simulate_trajectory", lambda *args: [])
        monkeypatch.setattr(cli, "learn_positions", lambda *args, **kwargs: [])
        monkeypatch.setattr(cli, "build_pool", lambda *args, **kwargs: None)
        return calls

    def argv(self, workdir, tmp_path, command):
        inputs = {"scene-gen": [],
                  "simulate": ["--scene", str(workdir / "scene.json")],
                  "learn": ["--scene", str(workdir / "scene.json"),
                            "--dataset", str(workdir / "dataset.csv")],
                  "predict": ["--scene", str(workdir / "scene.json"),
                              "--dataset", str(workdir / "dataset.csv"),
                              "--pool", str(workdir / "pool.json")]}[command]
        return ["--seed", "5", "--out-dir", str(tmp_path), "--quiet", command] + inputs

    #: command -> {constructor: keywords it always gets}
    REQUIRED = {"scene-gen": {"canonical_street_scene": {"seed"}},
                "simulate": {"RealizationConfig": {"seed"}},
                "learn": {"ForestParams": {"seed"}, "Pool": {"forest_params", "cache"}},
                "predict": {"loo_evaluate": {"pool_template"}}}

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_no_option_set_passes_only_required(self, workdir, tmp_path, calls, command):
        assert main(self.argv(workdir, tmp_path, command)) == 0
        assert {name: set(kw) for name, kw in calls.items()} == self.REQUIRED[command]

    @pytest.mark.parametrize("command,flag,value,name,param", [
        ("scene-gen", "--spacing", "4", "canonical_street_scene", "spacing_m"),
        ("scene-gen", "--frequency-hz", "3e9", "canonical_street_scene", "frequency_hz"),
        ("scene-gen", "--reflection-loss-db", "4", "canonical_street_scene",
         "reflection_loss_db"),
        ("simulate", "--n-realizations", "4", "RealizationConfig", "n_realizations"),
        ("simulate", "--scatterer-jitter", "0.3", "RealizationConfig",
         "scatterer_jitter_sigma"),
        ("simulate", "--rx-jitter", "0.1", "RealizationConfig", "rx_jitter_sigma"),
        ("learn", "--n-trees", "4", "ForestParams", "n_trees"),
        ("learn", "--max-depth", "3", "ForestParams", "max_depth"),
        ("learn", "--min-leaf", "2", "ForestParams", "min_leaf"),
        ("learn", "--features-per-split", "2", "ForestParams", "features_per_split"),
        ("learn", "--capacity", "7", "Pool", "capacity"),
        ("learn", "--theta-high", "0.9", "Pool", "theta_high"),
        ("learn", "--theta-low", "0.3", "Pool", "theta_low"),
        ("predict", "--tau", "0.8", "loo_evaluate", "tau"),
        ("predict", "--k", "2", "loo_evaluate", "knn_k"),
    ])
    def test_set_option_arrives_under_library_name(self, workdir, tmp_path, calls,
                                                   command, flag, value, name, param):
        assert main(self.argv(workdir, tmp_path, command) + [flag, value]) == 0
        kwargs = calls[name]
        assert set(kwargs) == self.REQUIRED[command][name] | {param}
        assert kwargs[param] == float(value)
