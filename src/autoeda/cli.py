"""Command-line pipeline: synth, train, generate, measure, eval.

Every command writes a run manifest (config snapshot, seeds, input/output
hashes) next to its outputs. With --deterministic the process pins BLAS and
OpenMP to one thread before numpy loads, so identical seeds give
byte-identical metrics logs and checkpoints.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class UsageError(Exception):
    exit_code = 1


class DataError(Exception):
    exit_code = 2


class NumericalError(Exception):
    exit_code = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    """Record of one command run, enough to reproduce it bit for bit in
    deterministic mode."""

    def __init__(self, command: str, args: argparse.Namespace, config: dict):
        self.data = {
            "command": command,
            "argv": sys.argv[1:],
            "seed": getattr(args, "seed", None),
            "deterministic": bool(getattr(args, "deterministic", False)),
            "config": config,
            "inputs": {},
            "outputs": {},
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }

    def add_input(self, path):
        path = Path(path)
        self.data["inputs"][str(path)] = _sha256(path)

    def add_output(self, path):
        path = Path(path)
        self.data["outputs"][str(path)] = _sha256(path)

    def write(self, path):
        self.data["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        with open(path, "w") as fh:
            json.dump(self.data, fh, indent=2)
            fh.write("\n")


def _read_json_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_sessions(path, what: str = "session file"):
    """Trajectories of a session file; an unreadable or malformed file is a
    data error."""
    from . import env as env_mod
    try:
        return env_mod.load_trajectories(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _load_dataset(path):
    from . import tabular
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file {path} does not exist")
    sidecar = path.with_suffix(".schema.json")
    schema = None
    if sidecar.exists():
        schema = {c: k.value for c, k in tabular.load_schema_sidecar(sidecar).items()}
    try:
        return tabular.load_dataset(path, schema=schema), sidecar if schema else None
    except ValueError as exc:
        raise DataError(str(exc)) from exc


# ---------------------------------------------------------------------------
# synth

SYNTH_DEFAULTS = {
    "datasets": 7,
    "rows": 1000,
    "n_patterns": 3,
    "n_edges": 3,
    "links_per_edge": 1,
    "cap": 2,
    "multiplier": 5.0,
    "trajectories": 50,
    "train_fraction": 0.8,
    "group_prob": 0.5,
    "schema": None,  # default: 3 categorical + 3 numeric + 2 text columns
}


def cmd_synth(args) -> int:
    from . import synth, tabular, env as env_mod
    from .train import (STREAM_SPLIT, STREAM_SYNTH, STREAM_TRAJECTORIES,
                        derive_rng)

    cfg = dict(SYNTH_DEFAULTS)
    overrides = _read_json_config(args.config)
    unknown = set(overrides) - set(cfg)
    if unknown:
        raise DataError(f"unknown synth config keys: {sorted(unknown)}")
    cfg.update(overrides)
    if cfg["schema"] is None:
        schema = synth.DEFAULT_SCHEMA
    else:
        schema = tuple((c, tabular.ColumnKind(k)) for c, k in cfg["schema"])

    out = _out_dir(args)
    manifest = Manifest("synth", args, cfg)
    if args.config:
        manifest.add_input(args.config)
    per_dataset = []
    for i in range(1, cfg["datasets"] + 1):
        name = f"ds{i}"
        pattern_rng = derive_rng(args.seed, STREAM_SYNTH, i)
        patterns = synth.generate_patterns(schema, cfg["n_patterns"], pattern_rng)
        dag = synth.generate_correlations(schema, patterns, pattern_rng,
                                          cap=cfg["cap"], n_edges=cfg["n_edges"],
                                          links_per_edge=cfg["links_per_edge"])
        dataset = synth.populate_rows(schema, patterns, dag, cfg["rows"],
                                      cfg["multiplier"], pattern_rng, name=name)
        trajectories = synth.generate_expert_trajectories(
            dataset, patterns, dag, derive_rng(args.seed, STREAM_TRAJECTORIES, i),
            n_trajectories=cfg["trajectories"], group_prob=cfg["group_prob"])
        train, evaluation = synth.split_trajectories(
            trajectories, derive_rng(args.seed, STREAM_SPLIT, i),
            cfg["train_fraction"])

        csv_path = out / f"{name}.csv"
        tabular.write_dataset(dataset, csv_path)
        tabular.write_schema_sidecar(dataset, out / f"{name}.schema.json")
        env_mod.save_trajectories(out / f"{name}.train.json", dataset, train)
        env_mod.save_trajectories(out / f"{name}.eval.json", dataset, evaluation)
        for suffix in (".csv", ".schema.json", ".train.json", ".eval.json"):
            manifest.add_output(out / f"{name}{suffix}")
        per_dataset.append(synth.generation_manifest(
            schema, patterns, dag, seed=args.seed, n_rows=cfg["rows"],
            m=cfg["multiplier"], n_trajectories=cfg["trajectories"]))
        print(f"{name}: {dataset.row_count} rows, {len(dag.edges)} correlations, "
              f"{len(train)}/{len(evaluation)} train/eval sessions")

    manifest.data["generation"] = per_dataset
    manifest.write(out / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# train

def _resolve_datasets(data_dir: Path, names):
    datasets = []
    sidecars = []
    for name in names:
        ds, sidecar = _load_dataset(data_dir / f"{name}.csv")
        datasets.append(ds)
        if sidecar:
            sidecars.append(sidecar)
    return datasets, sidecars


def _load_expert(data_dir: Path, names, split: str):
    trajectories = []
    paths = []
    for name in names:
        path = data_dir / f"{name}.{split}.json"
        trajectories.extend(_load_sessions(path, "expert sessions"))
        paths.append(path)
    return trajectories, paths


def _train_once(args, cfg, datasets, expert, out: Path, manifest: Manifest) -> None:
    from .train import save_checkpoint, train_gail

    metrics_path = out / "metrics.ndjson"
    ckpt_path = out / "checkpoint.json"
    holder = {}

    with open(metrics_path, "w") as metrics_fh:
        def sink(record):
            for key in ("disc_acc", "mean_reward", "mean_penalty"):
                if not _finite(record[key]):
                    save_checkpoint(ckpt_path, holder["result"], cfg)
                    raise NumericalError(
                        f"non-finite {key} at interval {record['interval']}; "
                        f"checkpoint dumped to {ckpt_path}")
            metrics_fh.write(json.dumps(record) + "\n")

        try:
            result = train_gail(cfg, datasets, expert, metrics_sink=sink,
                                result_callback=lambda r: holder.update(result=r))
        except ValueError as exc:
            raise DataError(str(exc)) from exc

    save_checkpoint(ckpt_path, result, cfg)
    if result.bc_history:
        with open(out / "bc_log.ndjson", "w") as fh:
            for epoch, nll in enumerate(result.bc_history, start=1):
                fh.write(json.dumps({"epoch": epoch, "nll": round(nll, 6)}) + "\n")
        manifest.add_output(out / "bc_log.ndjson")
    manifest.add_output(metrics_path)
    manifest.add_output(ckpt_path)


def _finite(x) -> bool:
    import math
    return isinstance(x, (int, float)) and math.isfinite(x)


def cmd_train(args) -> int:
    from .train import TrainConfig

    overrides = _read_json_config(args.config)
    if args.seed is not None:
        overrides["seed"] = args.seed
    overrides.setdefault("seed", 0)
    if args.no_bc:
        overrides["bc_enabled"] = False
    if args.no_penalty:
        overrides["penalty_enabled"] = False
    if args.bc_only:
        overrides["bc_only"] = True
    try:
        cfg = TrainConfig.from_dict(overrides)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad training config: {exc}") from exc

    data_dir = Path(args.data)
    names = [n.strip() for n in args.datasets.split(",") if n.strip()]
    if not names:
        raise UsageError("--datasets needs at least one dataset name")

    manifest = Manifest("train", args, cfg.to_dict())
    if args.config:
        manifest.add_input(args.config)
    out = _out_dir(args)

    if args.leave_one_out:
        if len(names) < 2:
            raise UsageError("--leave-one-out needs at least two datasets")
        for held_out in names:
            train_names = [n for n in names if n != held_out]
            datasets, _ = _resolve_datasets(data_dir, train_names)
            expert, paths = _load_expert(data_dir, train_names, args.split)
            for p in paths:
                manifest.add_input(p)
            sub = out / f"leave_out_{held_out}"
            sub.mkdir(parents=True, exist_ok=True)
            _train_once(args, cfg, datasets, expert, sub, manifest)
            print(f"trained without {held_out} -> {sub}")
    else:
        datasets, _ = _resolve_datasets(data_dir, names)
        expert, paths = _load_expert(data_dir, names, args.split)
        for p in paths:
            manifest.add_input(p)
        _train_once(args, cfg, datasets, expert, out, manifest)
        print(f"trained on {', '.join(names)} -> {out}")

    manifest.write(out / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# generate

def _check_checkpoint_schema(result, dataset):
    schema = tuple((c, k) for c, k in dataset.columns)
    if tuple(result.schema) != schema:
        raise DataError(
            f"checkpoint schema does not match dataset {dataset.name!r}")


def _policy_sessions(args, datasets):
    """(`args.n` sessions per dataset, seed, config) from `args.checkpoint`,
    loaded once. Each dataset draws from a fresh STREAM_GENERATE generator,
    so its sessions do not depend on the datasets listed before it."""
    from .evaluation import generate_session
    from .train import STREAM_GENERATE, derive_rng, load_checkpoint

    try:
        result, cfg = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError) as exc:
        raise DataError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    seed = args.seed if args.seed is not None else cfg.seed
    per_dataset = []
    for dataset in datasets:
        _check_checkpoint_schema(result, dataset)
        rng = derive_rng(seed, STREAM_GENERATE)
        per_dataset.append([generate_session(result.policy, dataset, result.layout,
                                             cfg.horizon, args.mode, rng)
                            for _ in range(args.n)])
    return per_dataset, seed, cfg


def cmd_generate(args) -> int:
    from . import env as env_mod

    dataset, _ = _load_dataset(args.dataset)
    (sessions,), seed, cfg = _policy_sessions(args, [dataset])
    out_path = Path(args.out or "sessions.json")
    if out_path.is_dir():
        out_path = out_path / "sessions.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    env_mod.save_trajectories(out_path, dataset, sessions)

    manifest = Manifest("generate", args, {"n": args.n, "mode": args.mode,
                                           "horizon": cfg.horizon})
    manifest.data["seed"] = seed
    manifest.add_input(args.checkpoint)
    manifest.add_input(args.dataset)
    manifest.add_output(out_path)
    manifest.write(out_path.with_name(out_path.stem + ".manifest.json"))
    print(f"wrote {args.n} session(s) to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# measure

_MEASURE_LABELS = {
    "a_int": "A-INT", "diversity": "Diversity", "coherence": "Coherence",
    "readability": "Readability", "peculiarity": "Peculiarity",
}


def _measure_table(actions, normalized, threshold: float) -> str:
    from .measures import MEASURE_NAMES
    headers = ["Step", "Action"] + [_MEASURE_LABELS[m] for m in MEASURE_NAMES]
    body = []
    for t, (action, scores) in enumerate(zip(actions, normalized), start=1):
        cells = [str(t), str(action)]
        for m in MEASURE_NAMES:
            v = scores.get(m)
            mark = "*" if v > threshold else " "
            cells.append(f"{v:.2f}{mark}")
        body.append(cells)
    widths = [max(len(h), *(len(b[i]) for b in body)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for b in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(b, widths)))
    return "\n".join(lines)


def cmd_measure(args) -> int:
    from . import env as env_mod
    from .measures import (EMPTY_RULESET, MEASURE_NAMES, CoherenceRuleset,
                           normalize_session, score_session)

    dataset, _ = _load_dataset(args.dataset)
    trajectories = _load_sessions(args.session)
    if not trajectories:
        raise DataError(f"{args.session} holds no sessions")
    ruleset = EMPTY_RULESET
    if args.ruleset:
        try:
            ruleset = CoherenceRuleset.from_json(args.ruleset)
        except (OSError, ValueError) as exc:
            raise DataError(str(exc)) from exc

    report = {"dataset": dataset.name, "threshold": args.threshold, "sessions": []}
    tables = []
    for traj in trajectories:
        try:
            raw = score_session(dataset, traj.actions, ruleset)
        except ValueError as exc:
            raise DataError(f"session does not replay: {exc}") from exc
        normalized = normalize_session(raw)
        steps = []
        for t, (action, r, z) in enumerate(zip(traj.actions, raw, normalized),
                                           start=1):
            steps.append({
                "step": t,
                "action": env_mod.action_to_json(action),
                "raw": {m: round(r.get(m), 6) for m in MEASURE_NAMES},
                "normalized": {m: round(z.get(m), 6) for m in MEASURE_NAMES},
                "highlight": [m for m in MEASURE_NAMES if z.get(m) > args.threshold],
            })
        report["sessions"].append({"steps": steps})
        tables.append(_measure_table(traj.actions, normalized, args.threshold))

    text = ("\n\n".join(tables)) + "\n"
    print(text, end="")
    manifest = Manifest("measure", args, {"threshold": args.threshold})
    manifest.add_input(args.session)
    manifest.add_input(args.dataset)
    if args.out:
        out = _out_dir(args)
        with open(out / "measures.json", "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        (out / "measures.txt").write_text(text)
        manifest.add_output(out / "measures.json")
        manifest.add_output(out / "measures.txt")
        manifest.write(out / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    from .evaluation import evaluate_sessions, report_text, METRIC_COLUMNS
    import numpy as np

    if bool(args.checkpoint) == bool(args.sessions):
        raise UsageError("provide exactly one of --checkpoint or --sessions")

    data_dir = Path(args.data)
    names = [n.strip() for n in args.datasets.split(",") if n.strip()]
    if not names:
        raise UsageError("--datasets needs at least one dataset name")

    manifest = Manifest("eval", args, {"gold_split": args.gold_split,
                                       "n": args.n, "mode": args.mode,
                                       "threshold": args.threshold})
    datasets, golds = [], []
    for name in names:
        datasets.append(_load_dataset(data_dir / f"{name}.csv")[0])
        gold_path = data_dir / f"{name}.{args.gold_split}.json"
        golds.append(_load_sessions(gold_path, "gold sessions"))
        manifest.add_input(gold_path)
    if args.checkpoint:
        generated, _, _ = _policy_sessions(args, datasets)
    else:
        pool = _load_sessions(args.sessions)
        generated = [[t for t in pool if t.dataset == ds.name] for ds in datasets]
        for name, sessions in zip(names, generated):
            if not sessions:
                raise DataError(f"{args.sessions} has no sessions for {name}")
    rows = []
    for name, dataset, gold, sessions in zip(names, datasets, golds, generated):
        try:
            metrics = evaluate_sessions(dataset, sessions, gold, args.threshold)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        rows.append({"dataset": name, **metrics})
    if len(rows) > 1:
        rows.append({"dataset": "mean",
                     **{k: float(np.mean([r[k] for r in rows]))
                        for k in METRIC_COLUMNS}})

    text = report_text(rows) + "\n"
    print(text, end="")
    if args.out:
        out = _out_dir(args)
        with open(out / "report.json", "w") as fh:
            json.dump({"rows": rows}, fh, indent=1)
            fh.write("\n")
        (out / "report.txt").write_text(text)
        manifest.add_output(out / "report.json")
        manifest.add_output(out / "report.txt")
        manifest.write(out / "manifest.json")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="autoeda",
                     description="Train and analyze EDA session policies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--deterministic", action="store_true",
                       help="single-threaded, byte-reproducible run")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("synth", help="generate datasets and expert sessions")
    common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a session policy")
    common(p)
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--datasets", required=True, help="comma-separated names")
    p.add_argument("--split", default="train", help="expert split suffix")
    p.add_argument("--no-bc", action="store_true",
                   help="skip behavioral-cloning pretraining")
    p.add_argument("--no-penalty", action="store_true",
                   help="drop incoherence penalties from rewards")
    p.add_argument("--bc-only", action="store_true",
                   help="stop after the pretraining phase")
    p.add_argument("--leave-one-out", action="store_true",
                   help="train once per dataset, holding it out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="roll sessions from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset csv path")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mode", choices=("greedy", "sample"), default="greedy")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("measure", help="per-step interestingness table")
    common(p)
    p.add_argument("--session", required=True, help="session JSON file")
    p.add_argument("--dataset", required=True, help="dataset csv path")
    p.add_argument("--ruleset", default=None, help="coherence ruleset JSON")
    p.add_argument("--threshold", type=float, default=0.7,
                   help="highlight normalized scores above this")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("eval", help="score sessions against gold sessions")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--sessions", default=None,
                   help="pre-generated sessions instead of a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--datasets", required=True, help="comma-separated names")
    p.add_argument("--gold-split", default="eval")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--mode", choices=("greedy", "sample"), default="greedy")
    p.add_argument("--threshold", type=float, default=0.9)
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--deterministic" in argv:
        # must happen before numpy is imported anywhere in this process
        for var in _THREAD_VARS:
            os.environ.setdefault(var, "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is None and args.fn in (cmd_synth,):
            args.seed = 0
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
