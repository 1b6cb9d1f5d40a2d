import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from autoeda.cli import _THREAD_VARS, main
from autoeda.env import ActionSpec, Trajectory, save_trajectories
from autoeda.evaluation import METRIC_COLUMNS
from autoeda.tabular import FilterPredicate, Grouping, load_dataset


def run(*argv):
    return main([str(a) for a in argv])


def input_names(manifest_path):
    """File names of a manifest's hashed inputs, sorted."""
    inputs = json.loads(Path(manifest_path).read_text())["inputs"]
    return sorted(Path(p).name for p in inputs)


def data_without(data_dir, dest, split):
    """A copy of `data_dir` that lacks every `<name>.<split>.json`."""
    dest.mkdir()
    for p in data_dir.iterdir():
        if not p.name.endswith(f".{split}.json"):
            (dest / p.name).write_bytes(p.read_bytes())
    return dest


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    config = out / "synth.json"
    config.write_text(json.dumps({
        "datasets": 2, "rows": 80, "trajectories": 6, "n_edges": 2,
        "n_patterns": 2,
    }))
    code = run("synth", "--config", config, "--seed", "3", "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = out / "train.json"
    config.write_text(json.dumps({
        "total_interactions": 64, "train_interval": 32, "horizon": 5,
        "batch_policy": 8, "batch_disc": 16, "bc_epochs": 2, "bc_batch": 8,
    }))
    code = run("train", "--data", data_dir, "--datasets", "ds1,ds2",
               "--config", config, "--seed", "4", "--out", out)
    assert code == 0
    return out


def test_synth_outputs(data_dir):
    for name in ("ds1", "ds2"):
        for suffix in (".csv", ".schema.json", ".train.json", ".eval.json"):
            assert (data_dir / f"{name}{suffix}").exists()
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert len(manifest["outputs"]) == 8
    assert len(manifest["generation"]) == 2


def test_synth_rerun_is_byte_identical(data_dir, tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "datasets": 2, "rows": 80, "trajectories": 6, "n_edges": 2,
        "n_patterns": 2,
    }))
    assert run("synth", "--config", config, "--seed", "3", "--out", tmp_path) == 0
    for name in ("ds1.csv", "ds1.train.json", "ds2.csv", "ds2.eval.json"):
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes()


# SHA-256 of every file `synth --seed 3` writes for 2 datasets x 200 rows
# and 10 sessions each; a change to the sampler, the CSV writer or the
# session files that moves a byte shows here
SYNTH_SEED3_SHA256 = {
    "ds1.csv": "2d9fa425c8b9c43c84464044ffce4a22fba2e3d7ac0c5f9a3aa60fc823d4f88b",
    "ds1.schema.json": "dded861c8b5e3ae57ecd51af1ff2f113294f648df0cb8fb8af3974c4b1e232b7",
    "ds1.train.json": "9199be572373661e880a69e00947831f91be99c76e91d474d464ca5fc1a8cf76",
    "ds1.eval.json": "bbd7f0be2d0915ba9bfcd426a4d75c0f6e776fccdb80c9a8e53433cc99165a1e",
    "ds2.csv": "694e37b24f72478507fdc1b394ab23aaf05f82964f29a7390b68c3ce414b3a27",
    "ds2.schema.json": "dded861c8b5e3ae57ecd51af1ff2f113294f648df0cb8fb8af3974c4b1e232b7",
    "ds2.train.json": "1495149d4f3fd247e5a93e69009571344765acc933f033b02916673889cb432b",
    "ds2.eval.json": "2d6596fa7f9500f273490743e45d30f889d37c51f3505d397d34e4143b8cf4f2",
}


def test_synth_bytes_are_pinned(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"datasets": 2, "rows": 200, "trajectories": 10}))
    out = tmp_path / "out"
    assert run("synth", "--config", config, "--seed", "3", "--out", out) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in SYNTH_SEED3_SHA256}
    assert got == SYNTH_SEED3_SHA256


def test_synth_split_ratio(data_dir):
    train = json.loads((data_dir / "ds1.train.json").read_text())
    evaluation = json.loads((data_dir / "ds1.eval.json").read_text())
    assert len(train["sessions"]) == 5
    assert len(evaluation["sessions"]) == 1


def test_train_outputs(run_dir):
    metrics = [json.loads(line)
               for line in (run_dir / "metrics.ndjson").read_text().splitlines()]
    assert len(metrics) == 2
    assert list(metrics[0]) == ["interval", "disc_acc", "mean_reward",
                                "mean_penalty", "mean_ep_len"]
    assert (run_dir / "checkpoint.json").exists()
    assert (run_dir / "bc_log.ndjson").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert str(run_dir / "checkpoint.json") in manifest["outputs"]
    assert input_names(run_dir / "manifest.json") == [
        "ds1.csv", "ds1.schema.json", "ds1.train.json",
        "ds2.csv", "ds2.schema.json", "ds2.train.json", "train.json"]


def test_train_no_penalty_flag(data_dir, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "total_interactions": 32, "train_interval": 16, "horizon": 4,
        "batch_policy": 8, "batch_disc": 8, "bc_epochs": 1, "bc_batch": 8,
    }))
    assert run("train", "--data", data_dir, "--datasets", "ds1",
               "--config", config, "--no-penalty", "--no-bc",
               "--out", tmp_path) == 0
    metrics = [json.loads(line)
               for line in (tmp_path / "metrics.ndjson").read_text().splitlines()]
    assert all(m["mean_penalty"] == 0.0 for m in metrics)
    assert not (tmp_path / "bc_log.ndjson").exists()


def test_train_leave_one_out(data_dir, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "total_interactions": 32, "train_interval": 16, "horizon": 4,
        "batch_policy": 8, "batch_disc": 8, "bc_epochs": 1, "bc_batch": 8,
    }))
    assert run("train", "--data", data_dir, "--datasets", "ds1,ds2",
               "--config", config, "--leave-one-out", "--out", tmp_path) == 0
    assert (tmp_path / "leave_out_ds1" / "checkpoint.json").exists()
    assert (tmp_path / "leave_out_ds2" / "checkpoint.json").exists()
    assert input_names(tmp_path / "manifest.json") == [
        "ds1.csv", "ds1.schema.json", "ds1.train.json",
        "ds2.csv", "ds2.schema.json", "ds2.train.json", "train.json"]


def test_failed_train_leaves_no_out(data_dir, tmp_path):
    """Every dataset and expert session file is read before --out is
    created, with or without --leave-one-out, so a bad input leaves no
    directory behind."""
    out = tmp_path / "a" / "b"
    no_train = data_without(data_dir, tmp_path / "no_train", "train")
    for args in (("--data", tmp_path / "nonexistent", "--datasets", "ds1"),
                 ("--data", data_dir, "--datasets", "ds1,nope"),
                 ("--data", no_train, "--datasets", "ds1"),
                 ("--data", data_dir, "--datasets", "ds1,nope", "--leave-one-out"),
                 ("--data", no_train, "--datasets", "ds1,ds2",
                  "--leave-one-out")):
        assert run("train", *args, "--out", out) == 2, args
        assert not out.exists() and not out.parent.exists(), args
    for args in (("--datasets", "ds1", "--leave-one-out"),
                 ("--datasets", "ds1,ds1", "--bc-only"),
                 ("--datasets", "ds1, ds2,ds1", "--leave-one-out")):
        assert run("train", "--data", data_dir, *args, "--out", out) == 1, args
        assert not out.parent.exists(), args


def test_generate_sessions_replay(run_dir, data_dir, tmp_path):
    out = tmp_path / "sessions.json"
    assert run("generate", "--checkpoint", run_dir / "checkpoint.json",
               "--dataset", data_dir / "ds1.csv", "--n", "3",
               "--mode", "sample", "--seed", "5", "--out", out) == 0
    from autoeda.env import load_trajectories, walk_displays
    from autoeda.tabular import load_dataset, load_schema_sidecar
    schema = {c: k.value for c, k in
              load_schema_sidecar(data_dir / "ds1.schema.json").items()}
    ds = load_dataset(data_dir / "ds1.csv", schema=schema)
    sessions = load_trajectories(out)
    assert len(sessions) == 3
    for traj in sessions:
        walk_displays(ds, traj.actions)
    assert input_names(out.with_name("sessions.manifest.json")) == [
        "checkpoint.json", "ds1.csv", "ds1.schema.json"]


def test_generate_greedy_deterministic(run_dir, data_dir, tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"g{i}.json"
        assert run("generate", "--checkpoint", run_dir / "checkpoint.json",
                   "--dataset", data_dir / "ds1.csv", "--n", "1",
                   "--mode", "greedy", "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_generate_schema_mismatch_is_data_error(run_dir, tmp_path):
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,x\n")
    code = run("generate", "--checkpoint", run_dir / "checkpoint.json",
               "--dataset", other)
    assert code == 2


def test_generate_out_is_the_session_file(run_dir, data_dir, tmp_path, capsys):
    """`generate --out` names the session file; a value that names a
    directory, an existing one or one ending in a separator, or that lies
    under an existing file, is refused before any file is read."""
    with pytest.raises(SystemExit):
        run("generate", "--help")
    assert "session file (default sessions.json)" in capsys.readouterr().out
    taken = tmp_path / "taken.txt"
    taken.write_text("kept")
    for out, message in ((tmp_path, "names a directory, not a file"),
                         (f"{tmp_path / 'new'}{os.sep}",
                          "names a directory, not a file"),
                         (taken / "s.json", f"{taken} is an existing file")):
        assert run("generate", "--checkpoint", tmp_path / "missing.json",
                   "--dataset", tmp_path / "missing.csv", "--out", out) == 1, out
        assert message in capsys.readouterr().err, out
    assert sorted(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "kept"


def test_measure_table(data_dir, capsys):
    assert run("measure", "--session", data_dir / "ds1.eval.json",
               "--dataset", data_dir / "ds1.csv", "--threshold", "0.8") == 0
    text = capsys.readouterr().out
    assert "A-INT" in text and "Peculiarity" in text
    assert "FILTER" in text


def test_measure_json_report(data_dir, tmp_path):
    ruleset = tmp_path / "rules.json"
    ruleset.write_text(json.dumps(
        {"rules": [{"match": {"kind": "GROUP"}, "score": 0.5}]}))
    assert run("measure", "--session", data_dir / "ds1.eval.json",
               "--dataset", data_dir / "ds1.csv", "--ruleset", ruleset,
               "--out", tmp_path) == 0
    assert input_names(tmp_path / "manifest.json") == [
        "ds1.csv", "ds1.eval.json", "ds1.schema.json", "rules.json"]
    report = json.loads((tmp_path / "measures.json").read_text())
    steps = report["sessions"][0]["steps"]
    assert {"step", "action", "raw", "normalized", "highlight"} <= set(steps[0])
    # constant series normalize to zero, never above a 0.7 highlight bar
    for step in steps:
        for name, value in step["normalized"].items():
            assert 0.0 <= value <= 1.0


def test_eval_self_scores_one(data_dir, capsys, tmp_path):
    assert run("eval", "--sessions", data_dir / "ds1.eval.json",
               "--data", data_dir, "--datasets", "ds1",
               "--out", tmp_path) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert rows[0]["dataset"] == "ds1"
    for key in ("precision", "tbleu1", "tbleu2", "tbleu3", "eda_sim"):
        assert rows[0][key] == pytest.approx(1.0), key
    text = capsys.readouterr().out
    assert "Precision" in text and "TBLEU-3" in text and "EDA-Sim" in text
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config == {"threshold": 0.9}


def test_eval_gold_file_with_a_repeated_view_scores_one(data_dir, tmp_path):
    """Gold and generated sessions are cut into views by one rule, so a gold
    file that re-applies a filter still scores 1.0 against itself."""
    for suffix in (".csv", ".schema.json"):
        (tmp_path / f"ds1{suffix}").write_bytes(
            (data_dir / f"ds1{suffix}").read_bytes())
    dataset = load_dataset(tmp_path / "ds1.csv")
    col = dataset.column_names[0]
    term = str(dataset.dictionaries[0][0])
    again = ActionSpec("FILTER", filter=FilterPredicate(col, "NEQ", term))
    group = ActionSpec("GROUP", group=Grouping(col, col, "COUNT"))
    gold = tmp_path / "ds1.eval.json"
    save_trajectories(gold, dataset, [
        Trajectory("ds1", (again, again, group)),
        Trajectory("ds1", (group, ActionSpec("BACK"), again, again))])
    assert run("eval", "--sessions", gold, "--data", tmp_path,
               "--datasets", "ds1", "--out", tmp_path / "out") == 0
    (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert {k: row[k] for k in METRIC_COLUMNS} == dict.fromkeys(METRIC_COLUMNS, 1.0)


def test_eval_with_checkpoint(run_dir, data_dir, tmp_path):
    assert run("eval", "--checkpoint", run_dir / "checkpoint.json",
               "--data", data_dir, "--datasets", "ds1,ds2",
               "--out", tmp_path) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [r["dataset"] for r in rows] == ["ds1", "ds2", "mean"]
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert lines[0].split() == ["Dataset", "Precision", "TBLEU-1", "TBLEU-2",
                                "TBLEU-3", "EDA-Sim"]
    assert [line.split()[0] for line in lines[2:]] == ["ds1", "ds2", "mean"]
    assert input_names(tmp_path / "manifest.json") == [
        "checkpoint.json", "ds1.csv", "ds1.eval.json", "ds1.schema.json",
        "ds2.csv", "ds2.eval.json", "ds2.schema.json"]
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert config == {"n": 1, "mode": "greedy", "threshold": 0.9}


def test_eval_checkpoint_sessions_do_not_depend_on_other_datasets(
        run_dir, data_dir, tmp_path):
    def rows(datasets, out):
        assert run("eval", "--checkpoint", run_dir / "checkpoint.json",
                   "--data", data_dir, "--datasets", datasets, "--n", "3",
                   "--mode", "sample", "--seed", "9", "--out", out) == 0
        return json.loads((out / "report.json").read_text())["rows"]

    both = rows("ds1,ds2", tmp_path / "both")
    assert both[:2] == rows("ds1", tmp_path / "one") + rows("ds2", tmp_path / "two")


def test_eval_checkpoint_matches_generated_sessions(run_dir, data_dir, tmp_path):
    sample = ("--n", "2", "--mode", "sample", "--seed", "9")
    sessions = tmp_path / "sessions.json"
    assert run("generate", "--checkpoint", run_dir / "checkpoint.json",
               "--dataset", data_dir / "ds2.csv", *sample, "--out", sessions) == 0
    assert run("eval", "--sessions", sessions, "--data", data_dir,
               "--datasets", "ds2", "--out", tmp_path / "files") == 0
    assert run("eval", "--checkpoint", run_dir / "checkpoint.json",
               "--data", data_dir, "--datasets", "ds2", *sample,
               "--out", tmp_path / "direct") == 0
    assert ((tmp_path / "direct" / "report.json").read_bytes()
            == (tmp_path / "files" / "report.json").read_bytes())
    assert input_names(tmp_path / "files" / "manifest.json") == [
        "ds2.csv", "ds2.eval.json", "ds2.schema.json", "sessions.json"]


def test_manifest_records_the_parsed_argv(data_dir, tmp_path, monkeypatch):
    """An in-process call records its own arguments, not the host's."""
    monkeypatch.setattr(sys, "argv", ["host", "--something"])
    argv = ["measure", "--session", str(data_dir / "ds1.eval.json"),
            "--dataset", str(data_dir / "ds1.csv"), "--out", str(tmp_path)]
    assert main(argv) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["argv"] == argv


def test_usage_errors_exit_one(run_dir, data_dir, tmp_path, capsys):
    assert run("train", "--data", "somewhere") == 1  # missing --datasets
    assert run("eval", "--data", "x", "--datasets", "ds1") == 1  # no source
    assert run("nonsense") == 1
    # only synth and train take a config file
    assert run("measure", "--session", tmp_path / "s.json", "--dataset",
               data_dir / "ds1.csv", "--config", "x.json") == 1
    assert run("generate", "--checkpoint", run_dir / "checkpoint.json",
               "--dataset", data_dir / "ds1.csv", "--config", "x.json") == 1
    assert run("eval", "--sessions", tmp_path / "s.json", "--data", data_dir,
               "--datasets", "ds1", "--config", "x.json") == 1
    for n in ("0", "-3"):
        assert run("generate", "--checkpoint", run_dir / "checkpoint.json",
                   "--dataset", data_dir / "ds1.csv", "--n", n,
                   "--out", tmp_path / "sessions.json") == 1, n
        assert run("eval", "--checkpoint", run_dir / "checkpoint.json",
                   "--data", data_dir, "--datasets", "ds1", "--n", n) == 1, n
    assert not (tmp_path / "sessions.json").exists()
    assert run("eval", "--sessions", data_dir / "ds1.eval.json", "--data",
               data_dir, "--datasets", "ds1,ds1") == 1
    # --n and --mode choose how a checkpoint generates; refused before any read
    for flag in (("--n", "7"), ("--mode", "sample")):
        assert run("eval", "--sessions", tmp_path / "missing.json", "--data",
                   tmp_path / "missing", "--datasets", "ds1", *flag,
                   "--out", tmp_path / "flag_out") == 1, flag
    assert not (tmp_path / "flag_out").exists()
    # a session file holds one dataset's sessions; refused before any read
    assert run("eval", "--sessions", tmp_path / "missing.json", "--data",
               tmp_path / "missing", "--datasets", "ds1,ds2") == 1
    for threshold in ("0", "-0.5", "1.5", "nan", "x"):
        assert run("eval", "--sessions", data_dir / "ds1.eval.json",
                   "--data", data_dir, "--datasets", "ds1",
                   "--threshold", threshold) == 1, threshold
    assert run("eval", "--sessions", data_dir / "ds1.eval.json", "--data",
               data_dir, "--datasets", "ds1", "--threshold", "1") == 0
    # measure's threshold is written to JSON, which has no nan or infinity
    for threshold in ("nan", "inf", "-inf"):
        out = tmp_path / "measure_out"
        assert run("measure", "--session", data_dir / "ds1.eval.json",
                   "--dataset", data_dir / "ds1.csv", "--threshold", threshold,
                   "--out", out) == 1, threshold
        assert not out.exists(), threshold
    # a synth config that is a JSON object but holds a bad value: no file
    # is written, not even the manifest
    config = tmp_path / "synth.json"
    for bad in ({"rows": 0}, {"rows": "10"}, {"rows": 2.5}, {"datasets": 0},
                {"datasets": True}, {"multiplier": 1}, {"multiplier": 1e999},
                {"n_patterns": 0}, {"n_edges": 0}, {"cap": 0},
                {"links_per_edge": 0}, {"trajectories": 0},
                {"train_fraction": 2}, {"train_fraction": -0.1},
                {"group_prob": 7}, {"group_prob": "half"},
                {"schema": [["a", "weird"]]}, {"schema": [["a", "numeric"]]},
                {"schema": [["a", "numeric"], ["a", "text"]]},
                {"schema": "numeric"}, {"colour": 1}):
        config.write_text(json.dumps(bad))
        out = tmp_path / "synth_out"
        assert run("synth", "--config", config, "--out", out) == 1, bad
        assert not out.exists(), bad
    # weights that overflow show only while sampling, still before any write
    config.write_text(json.dumps({"multiplier": 1e300, "n_edges": 8, "cap": 3,
                                  "links_per_edge": 9, "rows": 5}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("synth", "--config", config, "--out", out) == 1
    assert not out.exists()
    # a train config that is a JSON object but holds a bad value
    config = tmp_path / "train.json"
    for bad in ({"policy_hidden": []}, {"policy_hidden": [0]},
                {"policy_hidden": [8, 2.5]}, {"policy_hidden": 5},
                {"policy_hidden": "ab"},
                {"disc_hidden": [True]}, {"lr_bc": "x"}, {"lr_bc": -1},
                {"lr_bc": 0}, {"lr_adv": float("inf")},
                {"l2_coeff": float("nan")}, {"l2_coeff": -1e-3},
                {"bc_epochs": 1.5}, {"bc_batch": 0}, {"horizon": True},
                {"term_bins": 0}, {"buffer_capacity": "big"},
                {"gamma": True}, {"clip_eps": 0}, {"seed": -1},
                {"bc_only": 1}, {"bc_enabled": False, "bc_only": True},
                {"penalty_scope": "params"},
                {"batch_disc": 1}, {"batch_policy": 1}):
        config.write_text(json.dumps(bad))
        out = tmp_path / "train_out"
        assert run("train", "--data", data_dir, "--datasets", "ds1",
                   "--config", config, "--out", out) == 1, bad
        assert not out.exists(), bad
    for flags in (("--seed", "-1"), ("--no-bc", "--bc-only")):
        assert run("train", "--data", data_dir, "--datasets", "ds1",
                   *flags, "--out", out) == 1, flags
        assert not out.exists(), flags
    # a negative seed is refused by every command before any file is written
    out = tmp_path / "seed_out"
    for argv in (("synth",),
                 ("generate", "--checkpoint", run_dir / "checkpoint.json",
                  "--dataset", data_dir / "ds1.csv"),
                 ("eval", "--sessions", data_dir / "ds1.eval.json",
                  "--data", data_dir, "--datasets", "ds1")):
        assert run(*argv, "--seed", "-1", "--out", out) == 1, argv
        assert not out.exists(), argv
    # an output directory that is an existing file, or lies under one, is
    # refused by name before any work or output
    taken = tmp_path / "taken.txt"
    taken.write_text("kept")
    capsys.readouterr()
    for out in (taken, taken / "sub"):
        for argv in (("synth",),
                     ("train", "--data", data_dir, "--datasets", "ds1"),
                     ("measure", "--session", data_dir / "ds1.eval.json",
                      "--dataset", data_dir / "ds1.csv"),
                     ("eval", "--sessions", data_dir / "ds1.eval.json",
                      "--data", data_dir, "--datasets", "ds1")):
            assert run(*argv, "--out", out) == 1, (argv, out)
            captured = capsys.readouterr()
            assert captured.out == "", (argv, out)
            assert f"{taken} is an existing file" in captured.err, (argv, out)
    assert taken.read_text() == "kept"


def test_manifests_record_the_seed_the_run_used(data_dir, tmp_path):
    """A seed from the train config, or the checkpoint's seed that eval
    samples with, is recorded, not the absent --seed flag."""
    def seed_of(out):
        return json.loads((out / "manifest.json").read_text())["seed"]

    config = tmp_path / "train.json"
    config.write_text(json.dumps({"seed": 5, "bc_epochs": 1, "bc_batch": 8,
                                  "horizon": 5}))
    assert run("train", "--data", data_dir, "--datasets", "ds1", "--config",
               config, "--bc-only", "--out", tmp_path / "train") == 0
    assert seed_of(tmp_path / "train") == 5
    checkpoint = tmp_path / "train" / "checkpoint.json"
    for flags, seed in (((), 5), (("--seed", "8"), 8)):
        out = tmp_path / f"eval{seed}"
        assert run("eval", "--checkpoint", checkpoint, "--data", data_dir,
                   "--datasets", "ds1", "--mode", "sample", *flags,
                   "--out", out) == 0
        assert seed_of(out) == seed


_BLAS_THREADS = """
import ctypes, sys
from autoeda.cli import main
assert main(sys.argv[1:]) == 0
libs = sorted({line.split()[-1] for line in open("/proc/self/maps")
               if "openblas" in line.lower() and ".so" in line})
for path in libs:
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(path), name, None)
        if fn is not None:
            print(fn())
            sys.exit(0)
print("none")
"""


def test_deterministic_pins_blas_to_one_thread(tmp_path):
    """In a fresh interpreter, `--deterministic` leaves the OpenBLAS that
    numpy loaded at one thread, also when the process inherited a larger
    thread count."""
    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps to find the BLAS library")
    src = Path(__file__).resolve().parent.parent / "src"
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"datasets": 1, "rows": 5, "trajectories": 1}))
    clean = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    clean["PYTHONPATH"] = str(src)

    def threads(env, *flags):
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS, "synth", "--config",
             str(config), "--out", str(tmp_path / "out"), *flags],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]
        count = proc.stdout.split()[-1]
        if count == "none":
            pytest.skip("numpy loads no OpenBLAS")
        return int(count)

    assert threads(clean, "--deterministic") == 1
    assert threads({**clean, "OPENBLAS_NUM_THREADS": "2"}, "--deterministic") == 1
    if len(os.sched_getaffinity(0)) > 1:
        assert threads(clean) > 1


def test_importing_the_cli_loads_no_numpy():
    """`--deterministic` pins BLAS threads in `main` through environment
    variables, which only take effect while numpy is not yet loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, autoeda.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_failed_synth_leaves_no_file_it_wrote(tmp_path, monkeypatch):
    """The second dataset fails after the first one's files are written:
    those files and the directory the run made are gone, and files that
    were there before the run are left as they were."""
    from autoeda import synth
    populate = synth.populate_rows

    def fail_on_ds2(*args, name, **kwargs):
        if name == "ds2":
            raise ValueError("weights overflow")
        return populate(*args, name=name, **kwargs)

    monkeypatch.setattr(synth, "populate_rows", fail_on_ds2)
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"datasets": 2, "rows": 20, "trajectories": 2}))
    out = tmp_path / "new" / "out"
    assert run("synth", "--config", config, "--out", out) == 1
    assert not (tmp_path / "new").exists()

    kept = tmp_path / "kept"
    kept.mkdir()
    before = {"notes.txt": b"mine\n", "ds1.csv": b"a,b\n1,2\n",
              "manifest.json": b"{}\n"}
    for name, data in before.items():
        (kept / name).write_bytes(data)
    assert run("synth", "--config", config, "--out", kept) == 1
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_diverging_bc_exits_three(data_dir, tmp_path):
    """A BC loss that goes non-finite dumps a checkpoint and exits 3 instead
    of logging NaN."""
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"lr_bc": 1e300, "bc_epochs": 3}))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert run("train", "--data", data_dir, "--datasets", "ds1",
                   "--config", config, "--bc-only", "--out", out) == 3
    assert (out / "checkpoint.json").exists()
    assert not (out / "bc_log.ndjson").exists()
    assert not (out / "manifest.json").exists()


def test_non_finite_adversarial_training_exits_three(data_dir, tmp_path,
                                                    monkeypatch):
    """A policy that goes non-finite in an adversarial interval dumps a
    checkpoint and exits 3; no record of that interval is logged."""
    from autoeda import train

    ppo_update = train.ppo_update

    def poisoned(policy, *args):
        out = ppo_update(policy, *args)
        policy.flat[0] = np.nan
        return out

    monkeypatch.setattr(train, "ppo_update", poisoned)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"total_interactions": 64,
                                  "train_interval": 32, "horizon": 5}))
    out = tmp_path / "out"
    assert run("train", "--data", data_dir, "--datasets", "ds1",
               "--config", config, "--no-bc", "--out", out) == 3
    assert "NaN" in (out / "checkpoint.json").read_text()
    assert (out / "metrics.ndjson").read_text() == ""
    assert not (out / "manifest.json").exists()


def test_synth_accepts_the_edges_of_each_range(tmp_path):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({
        "datasets": 1, "rows": 1, "n_patterns": 1, "n_edges": 1,
        "links_per_edge": 1, "cap": 1, "multiplier": 1.5, "trajectories": 1,
        "train_fraction": 1, "group_prob": 0,
        "schema": [["a", "numeric"], ["b", "text"]]}))
    assert run("synth", "--config", config, "--out", tmp_path / "out") == 0
    evaluation = json.loads((tmp_path / "out" / "ds1.eval.json").read_text())
    assert evaluation["sessions"] == []


def test_data_errors_exit_two(tmp_path, data_dir):
    assert run("train", "--data", tmp_path, "--datasets", "nope",
               "--out", tmp_path) == 2
    assert run("measure", "--session", tmp_path / "missing.json",
               "--dataset", data_dir / "ds1.csv") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("train", "--data", data_dir, "--datasets", "ds1",
               "--config", bad, "--out", tmp_path) == 2
    # a config that is valid JSON but not an object
    for text in ("[1, 2]", "3", "null"):
        bad.write_text(text)
        assert run("train", "--data", data_dir, "--datasets", "ds1",
                   "--config", bad, "--out", tmp_path) == 2, text
        assert run("synth", "--config", bad, "--out", tmp_path / "s") == 2, text
    assert not (tmp_path / "s").exists()
    assert run("eval", "--sessions", tmp_path / "missing.json",
               "--data", data_dir, "--datasets", "ds1") == 2
    for malformed in ("{not json", "[]", '{"sessions": []}',
                      '{"dataset": "ds1", "sessions": [[{"action": {}}]]}',
                      '{"dataset": "ds1", "sessions": [[{"action": {"kind": "JUMP"}}]]}'):
        bad.write_text(malformed)
        assert run("measure", "--session", bad,
                   "--dataset", data_dir / "ds1.csv") == 2, malformed
        assert run("eval", "--sessions", bad,
                   "--data", data_dir, "--datasets", "ds1") == 2, malformed
    # a data directory without expert or without gold session files
    assert run("train", "--data", data_without(data_dir, tmp_path / "nt", "train"),
               "--datasets", "ds1", "--out", tmp_path) == 2
    assert run("eval", "--sessions", data_dir / "ds1.eval.json",
               "--data", data_without(data_dir, tmp_path / "ne", "eval"),
               "--datasets", "ds1") == 2
    # a malformed schema sidecar next to the dataset
    (tmp_path / "ds1.csv").write_bytes((data_dir / "ds1.csv").read_bytes())
    for malformed in ("{bad", '["c1"]', '{"c1": "weird"}'):
        (tmp_path / "ds1.schema.json").write_text(malformed)
        assert run("measure", "--session", data_dir / "ds1.eval.json",
                   "--dataset", tmp_path / "ds1.csv") == 2, malformed


def test_measure_bad_session_or_ruleset_exits_two(data_dir, tmp_path, capsys):
    """An empty session is a data error that names it, and so are sessions
    of another dataset and a ruleset file that is valid JSON but not a
    well-formed ruleset object."""
    assert run("measure", "--session", data_dir / "ds2.eval.json",
               "--dataset", data_dir / "ds1.csv", "--out", tmp_path / "m") == 2
    err = capsys.readouterr().err
    assert "'ds2'" in err and "'ds1'" in err
    assert not (tmp_path / "m").exists()
    gold = json.loads((data_dir / "ds1.eval.json").read_text())
    session = tmp_path / "s.json"
    session.write_text(json.dumps({"dataset": "ds1",
                                   "sessions": [gold["sessions"][0], []]}))
    assert run("measure", "--session", session,
               "--dataset", data_dir / "ds1.csv", "--out", tmp_path / "m") == 2
    assert f"session 2 of {session} is empty" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()
    ruleset = tmp_path / "rules.json"
    for text in ("[1, 2]", "3", "null", '{"filterable_columns": "c1"}'):
        ruleset.write_text(text)
        assert run("measure", "--session", data_dir / "ds1.eval.json",
                   "--dataset", data_dir / "ds1.csv",
                   "--ruleset", ruleset) == 2, text
        assert "malformed coherence ruleset" in capsys.readouterr().err, text


@pytest.mark.parametrize("field, value", [
    ("column", 5), ("op", None), ("term", 5), ("term", ["a"]),
    ("grp_col", 5), ("agg_col", {}), ("agg_func", 1.5)])
def test_non_string_action_fields_exit_two(data_dir, tmp_path, capsys, field,
                                           value):
    """A session, gold or expert file whose action holds a non-string field
    is a data error in measure, eval and train."""
    action = ({"kind": "FILTER", "column": "t1", "op": "CONTAINS", "term": "a"}
              if field in ("column", "op", "term") else
              {"kind": "GROUP", "grp_col": "c1", "agg_col": "n1",
               "agg_func": "SUM"})
    action[field] = value
    data = tmp_path / "data"
    data.mkdir()
    for name in ("ds1.csv", "ds1.schema.json"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    text = json.dumps({"dataset": "ds1", "sessions": [
        [{"step": 1, "action": action}, {"step": 2, "action": {"kind": "STOP"}}]]})
    for split in ("train", "eval"):
        (data / f"ds1.{split}.json").write_text(text)
    out = tmp_path / "out"
    assert run("measure", "--session", data / "ds1.eval.json",
               "--dataset", data / "ds1.csv", "--out", out) == 2
    assert run("eval", "--sessions", data_dir / "ds1.eval.json",
               "--data", data, "--datasets", "ds1", "--out", out) == 2
    assert run("train", "--data", data, "--datasets", "ds1", "--bc-only",
               "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count(f"action field {field!r} must be a string") == 3


def test_malformed_checkpoints_exit_two(run_dir, data_dir, tmp_path, capsys):
    good = json.loads((run_dir / "checkpoint.json").read_text())
    short = dict(good, policy={"shape": [len(good["policy"]["data"]) - 1],
                               "data": good["policy"]["data"][:-1]})
    for name, payload in (("version one", dict(good, format_version=1)),
                          ("policy one entry short", short),
                          ("network not an object", dict(good, policy=5)),
                          ("a list", [1, 2]), ("null", None), ("a string", "x")):
        bad = tmp_path / "ckpt.json"
        bad.write_text(json.dumps(payload))
        assert run("generate", "--checkpoint", bad,
                   "--dataset", data_dir / "ds1.csv",
                   "--out", tmp_path / "sessions.json") == 2, name
        assert run("eval", "--checkpoint", bad, "--data", data_dir,
                   "--datasets", "ds1") == 2, name
        err = capsys.readouterr().err
        assert err.count(f"data error: cannot load checkpoint {bad}") == 2, name
