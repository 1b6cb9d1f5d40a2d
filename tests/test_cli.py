import json

import pytest

from autoeda.cli import main


def run(*argv):
    return main([str(a) for a in argv])


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
    assert out.with_name("sessions.manifest.json").exists()


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


def test_usage_errors_exit_one():
    assert run("train", "--data", "somewhere") == 1  # missing --datasets
    assert run("eval", "--data", "x", "--datasets", "ds1") == 1  # no source
    assert run("nonsense") == 1


def test_data_errors_exit_two(tmp_path, data_dir):
    assert run("train", "--data", tmp_path, "--datasets", "nope",
               "--out", tmp_path) == 2
    assert run("measure", "--session", tmp_path / "missing.json",
               "--dataset", data_dir / "ds1.csv") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("train", "--data", data_dir, "--datasets", "ds1",
               "--config", bad, "--out", tmp_path) == 2
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
    # a split without session files, for expert and for gold sessions
    assert run("train", "--data", data_dir, "--datasets", "ds1",
               "--split", "nosuch", "--out", tmp_path) == 2
    assert run("eval", "--sessions", data_dir / "ds1.eval.json",
               "--data", data_dir, "--datasets", "ds1",
               "--gold-split", "nosuch") == 2
