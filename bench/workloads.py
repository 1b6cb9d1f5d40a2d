"""The three benchmark workloads: clone, imitate and analyze.

Each workload synthesizes its inputs from the run seed with `autoeda synth`
(its set-up), then repeats one fixed unit of CLI commands. Every unit of a
run does identical work on identical inputs, so its outputs must hash to the
same determinism digest. Commands run in-process through `autoeda.cli.main`,
so argument parsing, manifest hashing and file I/O are paid as users pay
them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

from autoeda import cli, env, nn, train
from autoeda.evaluation import METRIC_COLUMNS
from autoeda.synth import DEFAULT_SCHEMA
from autoeda.tabular import Dataset

WHY = {
    "clone": "train --bc-only with many epochs: network backward, Adam and the "
             "BC loop dominate; tabular/env appear only in expert replay",
    "imitate": "train --no-bc: short rollouts from a near-uniform policy build "
               "many fresh views, so tabular and env dominate and batch-1 "
               "network forwards stay small",
    "analyze": "generate, measure and eval on tables 4x larger: filter scans, "
               "histograms and KL over growing supports dominate; the only "
               "workload that loads large tables and scores sessions",
}

# Input sizes. "toy" keeps every code path and finishes in seconds.
SIZES = {
    "full": {
        "clone": {"synth": {"datasets": 3, "rows": 1000, "trajectories": 50},
                  "train": {"bc_epochs": 100}},
        "imitate": {"synth": {"datasets": 3, "rows": 1000, "trajectories": 50},
                    "train": {"total_interactions": 4096, "train_interval": 512}},
        "analyze": {"synth": {"datasets": 2, "rows": 4000, "trajectories": 50},
                    "sessions": 20},
    },
    "toy": {
        "clone": {"synth": {"datasets": 2, "rows": 150, "trajectories": 10},
                  "train": {"bc_epochs": 3}},
        "imitate": {"synth": {"datasets": 2, "rows": 150, "trajectories": 10},
                    "train": {"total_interactions": 128, "train_interval": 64}},
        "analyze": {"synth": {"datasets": 2, "rows": 300, "trajectories": 10},
                    "sessions": 3},
    },
}


def repeated_view_sessions(path: Path) -> int:
    """Sessions of a session file in which a FILTER/GROUP step shows the same
    view as the FILTER/GROUP step before it.

    `eval` collapses such repeats in gold sessions only, so a gold file that
    has them scores below 1.0 against itself on every column but precision.
    """
    count = 0
    for session in json.loads(path.read_text())["sessions"]:
        views = [s["fingerprint"] for s in session
                 if s["action"]["kind"] in ("FILTER", "GROUP")]
        count += any(a == b for a, b in zip(views, views[1:]))
    return count


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Failures:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def op(self, ok: bool, what: str, count: int = 1) -> bool:
        self.attempted += count
        if not ok:
            self.failed += count
            self.reasons.append(what)
        return ok

    def check(self, problems) -> None:
        """Fail an operation already counted as succeeded if any check fails."""
        problems = [p for p in problems if p]
        if problems:
            self.failed += 1
            self.reasons.append("; ".join(problems))


class Workload:
    """Set-up and unit of one workload; subclasses fill in the commands."""

    name = ""

    def __init__(self, root: Path, seed: int, size: str, ops: Failures):
        self.seed = seed
        self.sizes = SIZES[size][self.name]
        self.ops = ops
        self.work = root / ".bench_work" / f"{self.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.data = self.work / "data"
        self.names = [f"ds{i}" for i in range(1, self.sizes["synth"]["datasets"] + 1)]
        self._devnull = open(os.devnull, "w")

    def close(self):
        self._devnull.close()
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            self.work.parent.rmdir()

    def cli(self, *argv) -> tuple[bool, float]:
        """Run one CLI command; (succeeded, wall seconds)."""
        argv = [str(a) for a in argv] + ["--deterministic"]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self._devnull):
                code = cli.main(argv)
            error = f"exit code {code}"
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        return self.ops.op(code == 0, f"{argv[0]}: {error}"), seconds

    def write_json(self, path: Path, obj) -> Path:
        path.write_text(json.dumps(obj))
        return path

    # -- set-up ------------------------------------------------------------

    def setup(self, out: Path) -> float:
        """Synthesize the inputs into `out`; returns wall seconds."""
        cfg = self.write_json(self.work / "synth.json", self.sizes["synth"])
        gc.collect()  # every timed phase starts from a collected heap
        t0 = time.perf_counter()
        self.cli("synth", "--seed", self.seed, "--config", cfg, "--out", out)
        self.extra_setup(out)
        return time.perf_counter() - t0

    def extra_setup(self, out: Path) -> None:
        pass

    def setup_digest(self, out: Path) -> str:
        return sha256_files(sorted(p for p in out.iterdir() if p.name != "manifest.json"))

    def inspect_inputs(self) -> dict:
        """Sizes of the set-up's inputs, after any untimed checks on them."""
        trajectories = [t for n in self.names
                        for t in env.load_trajectories(self.data / f"{n}.train.json")]
        return {**self.sizes, "expert_sessions": len(trajectories),
                "expert_steps": sum(len(t.actions) for t in trajectories)}

    # -- checks shared by the training workloads ---------------------------

    def round_trip_problem(self, probes, out: Path) -> str:
        """Empty when the checkpoint reproduces the trained policy's forward
        pass bit for bit."""
        if len(probes.train_results) != 1:
            return "trained policy was not captured"
        policy = probes.train_results[0].policy
        loaded, _ = train.load_checkpoint(out / "checkpoint.json")
        states = np.random.default_rng(self.seed).random((64, policy.state_dim))
        ours, _ = policy.forward(states)
        theirs, _ = loaded.policy.forward(states)
        if all(np.array_equal(a, b) for a, b in zip(ours, theirs)):
            return ""
        return "checkpoint round trip changed the policy"


class Clone(Workload):
    name = "clone"
    work_unit = "BC samples"

    def run_unit(self, out: Path) -> dict:
        cfg = self.write_json(self.work / "train.json", self.sizes["train"])
        ok, seconds = self.cli("train", "--bc-only", "--data", self.data,
                               "--datasets", ",".join(self.names), "--config", cfg,
                               "--seed", self.seed, "--out", out)
        return {"ok": ok, "seconds": seconds}

    def check(self, out: Path, unit: dict, probes, sizes) -> dict:
        epochs = self.sizes["train"]["bc_epochs"]
        digest = ""
        if unit["ok"]:
            history = [json.loads(line)["nll"]
                       for line in (out / "bc_log.ndjson").read_text().splitlines()]
            self.ops.check([
                not (len(history) == epochs and all(map(math.isfinite, history))
                     and history[-1] < history[0]) and "BC NLL is not finite and falling",
                self.round_trip_problem(probes, out)])
            digest = sha256_files([out / "metrics.ndjson", out / "bc_log.ndjson"])
        return {**unit, "work": epochs * sizes["expert_steps"], "digest": digest}

    def named(self, units, shared) -> dict:
        return {"bc_samples_per_s": ("1/s", shared["throughput_per_s"])}


class Imitate(Workload):
    name = "imitate"
    work_unit = "environment interactions"

    def run_unit(self, out: Path) -> dict:
        cfg = self.write_json(self.work / "train.json", self.sizes["train"])
        ok, seconds = self.cli("train", "--no-bc", "--data", self.data,
                               "--datasets", ",".join(self.names), "--config", cfg,
                               "--seed", self.seed, "--out", out)
        return {"ok": ok, "seconds": seconds, "end": time.perf_counter()}

    def check(self, out: Path, unit: dict, probes, sizes) -> dict:
        ok = unit["ok"]
        n = self.sizes["train"]["total_interactions"]
        intervals = math.ceil(n / self.sizes["train"]["train_interval"])
        records = []
        if ok:
            records = [json.loads(line)
                       for line in (out / "metrics.ndjson").read_text().splitlines()]
        for i in range(intervals):
            finite = i < len(records) and all(math.isfinite(v) for v in records[i].values())
            self.ops.op(finite, f"training interval {i + 1} is missing or not finite")
        if ok:
            self.ops.check([self.round_trip_problem(probes, out)])
        # the timed phase is the adversarial phase, after expert replay
        adversarial = (unit["end"] - probes.expert_ready[-1]
                       if ok and probes.expert_ready else unit["seconds"])
        return {"ok": ok, "seconds": adversarial, "work": n,
                "digest": sha256_files([out / "metrics.ndjson"]) if ok else "",
                "mean_episode_len": (sum(r["mean_ep_len"] for r in records) / len(records)
                                     if records else 0.0)}

    def named(self, units, shared) -> dict:
        return {"interactions_per_s": ("1/s", shared["throughput_per_s"])}


class Analyze(Workload):
    name = "analyze"
    work_unit = "scored session steps (generated and gold)"

    def extra_setup(self, out: Path) -> None:
        """Checkpoint of a seeded, untrained policy (uniform heads)."""
        cfg = train.TrainConfig(seed=self.seed)
        schema = tuple(DEFAULT_SCHEMA)
        layout = env.HeadLayout(len(schema), cfg.term_bins)
        state_dim = env.state_vec_len(Dataset("schema", schema, []))
        rng = train.derive_rng(self.seed, train.STREAM_INIT)
        result = train.TrainResult(
            nn.PolicyNet(state_dim, layout.sizes, cfg.policy_hidden, rng),
            nn.ValueNet(state_dim, cfg.policy_hidden, rng),
            nn.DiscriminatorNet(state_dim + layout.action_dim, cfg.disc_hidden, rng),
            layout, schema)
        train.save_checkpoint(out / "checkpoint.json", result, cfg)

    def inspect_inputs(self) -> dict:
        """Gold sizes, and `eval` of each gold file against itself (untimed)."""
        gold = {n: env.load_trajectories(self.data / f"{n}.eval.json") for n in self.names}
        self.gold = {n: (len(g), sum(len(t.actions) for t in g)) for n, g in gold.items()}
        repeats = {}
        self.gold_self_eval = {}
        for name in self.names:
            path = self.data / f"{name}.eval.json"
            repeats[name] = repeated_view_sessions(path)
            out = self.work / f"eval-gold-{name}"
            ok, _ = self.cli("eval", "--sessions", path, "--data", self.data,
                             "--datasets", name, "--out", out)
            self.gold_self_eval[name] = self._metrics(
                out, ok, self.gold[name][0],
                perfect=("precision",) if repeats[name] else METRIC_COLUMNS)
        return {**self.sizes, "gold_sessions": sum(s for s, _ in self.gold.values()),
                "gold_steps": sum(k for _, k in self.gold.values()),
                "gold_sessions_with_repeated_view": sum(repeats.values()),
                "gold_self_eval": self.gold_self_eval}

    def _paths(self, out: Path, name: str) -> dict:
        return {"csv": self.data / f"{name}.csv", "gold": self.data / f"{name}.eval.json",
                "gen": out / f"{name}.sessions.json",
                "measure": out / f"measure-{name}", "measure-gold": out / f"measure-gold-{name}",
                "eval": out / f"eval-{name}"}

    def run_unit(self, out: Path) -> dict:
        out.mkdir()
        stage = {"generate": 0.0, "measure": 0.0, "eval": 0.0}
        ok = {}
        t0 = time.perf_counter()
        for name in self.names:
            p = self._paths(out, name)
            for key, stage_name, argv in (
                    ("gen", "generate", ("generate", "--checkpoint", self.data / "checkpoint.json",
                                         "--dataset", p["csv"], "--n", self.sizes["sessions"],
                                         "--mode", "sample", "--seed", self.seed,
                                         "--out", p["gen"])),
                    ("measure", "measure", ("measure", "--session", p["gen"],
                                            "--dataset", p["csv"], "--out", p["measure"])),
                    ("measure-gold", "measure", ("measure", "--session", p["gold"],
                                                 "--dataset", p["csv"],
                                                 "--out", p["measure-gold"])),
                    ("eval", "eval", ("eval", "--sessions", p["gen"], "--data", self.data,
                                      "--datasets", name, "--out", p["eval"]))):
                ok[name, key], seconds = self.cli(*argv)
                stage[stage_name] += seconds
        return {"seconds": time.perf_counter() - t0, "stage_s": stage, "ok": ok}

    def _scores(self, path: Path, ok: bool, expected: int) -> list:
        """Scored sessions of one measure report; each is an operation."""
        report = json.loads((path / "measures.json").read_text())["sessions"] if ok else []
        if len(report) < expected:
            self.ops.op(False, f"{path.name}: sessions not scored", expected - len(report))
        values = []
        for session in report:
            steps = [[s["raw"], s["normalized"]] for s in session["steps"]]
            self.ops.op(all(math.isfinite(r) and 0.0 <= z <= 1.0
                            for raw, norm in steps
                            for r, z in zip(raw.values(), norm.values())),
                        f"{path.name}: score outside [0, 1]")
            values.append(steps)
        return values

    def _metrics(self, path: Path, ok: bool, expected: int, perfect=()) -> dict:
        """Mean eval row; its sessions fail together when a column is outside
        [0, 1] or a column named in `perfect` is not 1.0."""
        row = json.loads((path / "report.json").read_text())["rows"][0] if ok else {}
        row = {k: v for k, v in row.items() if k != "dataset"}
        good = ok and all(0.0 <= v <= 1.0 for v in row.values())
        good = good and all(abs(row[k] - 1.0) < 1e-12 for k in perfect)
        self.ops.op(good, f"{path.name}: eval metric outside [0, 1], or "
                          f"not 1.0 on {', '.join(perfect) or 'no column'}", expected)
        return {k: round(v, 6) for k, v in row.items()}

    def check(self, out: Path, unit: dict, probes, sizes) -> dict:
        n = self.sizes["sessions"]
        ok = unit["ok"]
        outputs = []
        steps = 0
        for i, name in enumerate(self.names):
            p = self._paths(out, name)
            n_gold, gold_steps = self.gold[name]
            reloaded = env.load_trajectories(p["gen"]) if ok[name, "gen"] else []
            captured = probes.generated[i * n:(i + 1) * n]
            self.ops.op(len(reloaded) == n and len(captured) == n and all(
                a.actions == b.actions for a, b in zip(captured, reloaded)),
                f"{name}: generated sessions do not reload to the same actions", n)
            steps += sum(len(t.actions) for t in reloaded) + gold_steps
            outputs.append([
                p["gen"].read_text() if ok[name, "gen"] else "",
                self._scores(p["measure"], ok[name, "measure"], n),
                self._scores(p["measure-gold"], ok[name, "measure-gold"], n_gold),
                self._metrics(p["eval"], ok[name, "eval"], n)])
        return {"ok": all(ok.values()), "seconds": unit["seconds"],
                "stage_s": unit["stage_s"], "work": steps,
                "generated": n * len(self.names), "digest": sha256_json(outputs)}

    def named(self, units, shared) -> dict:
        stage = {s: sum(u["stage_s"][s] for u in units) for s in ("generate", "measure", "eval")}
        return {
            "generated_sessions_per_s": ("1/s", sum(u["generated"] for u in units)
                                         / stage["generate"]),
            "scored_steps_per_s": ("1/s", sum(u["work"] for u in units) / stage["measure"]),
            "evaluated_sessions_per_s": ("1/s", sum(u["generated"] for u in units)
                                         / stage["eval"]),
        }


WORKLOADS = {w.name: w for w in (Clone, Imitate, Analyze)}
