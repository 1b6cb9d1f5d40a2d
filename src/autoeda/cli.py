"""Command-line pipeline: synth, train, generate, measure, eval.

Every command writes a run manifest (config snapshot, seeds, input/output
hashes) next to its outputs. With --deterministic the process pins BLAS and
OpenMP to one thread before numpy loads, so identical seeds give
byte-identical metrics logs and checkpoints.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


class UsageError(Exception):
    exit_code, prefix = 1, "usage error"


class DataError(Exception):
    exit_code, prefix = 2, "data error"


class NumericalError(Exception):
    exit_code, prefix = 3, "numerical failure"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_at_least(text: str, least: int) -> int:
    n = int(text)
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    return n


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return x


def _fraction(text: str) -> float:
    x = float(text)
    if not 0 < x <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return x


def _refuse_files(paths) -> None:
    """Refuse the first of `paths` that exists and is not a directory."""
    for path in paths:
        if path.exists() and not path.is_dir():
            raise argparse.ArgumentTypeError(f"{path} is an existing file")


def _out_directory(text: str) -> str:
    """An output directory, refused before any work when it or a parent is
    an existing file."""
    path = Path(text)
    _refuse_files((path, *path.parents))
    return text


def _out_file(text: str) -> str:
    """An output file, refused before any work when it names a directory
    (an existing one, or one ending in a path separator) or a parent is an
    existing file."""
    path = Path(text)
    if text.endswith(os.sep) or path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} names a directory, not a file")
    _refuse_files(path.parents)
    return text


def _dataset_names(text: str) -> list[str]:
    """The names of a comma-separated --datasets value, each once."""
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise UsageError("--datasets needs at least one dataset name")
    if len(set(names)) != len(names):
        raise UsageError(f"--datasets repeats a name: {text!r}")
    return names


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
            "argv": list(args.argv),
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
        from .tabular import write_json
        write_json(path, self.data, indent=2)


def _read_json_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise DataError(f"config {path} is not a JSON object")
    return config


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_sessions(path, manifest: Manifest, what: str = "session file"):
    """Trajectories of a session file, recorded as a manifest input; an
    unreadable or malformed file is a data error."""
    from . import env as env_mod
    try:
        trajectories = env_mod.load_trajectories(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    manifest.add_input(path)
    return trajectories


def _load_dataset(path):
    """(dataset, its schema sidecar path or None when it has none)."""
    from . import tabular
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file {path} does not exist")
    sidecar = path.with_suffix(".schema.json")
    try:
        schema = (tabular.load_schema_sidecar(sidecar) if sidecar.exists()
                  else None)
        dataset = tabular.load_dataset(path, schema=schema)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load dataset {path}: {exc}") from exc
    return dataset, sidecar if schema is not None else None


def _load_datasets(paths, manifest: Manifest):
    """Datasets of CSV paths; each CSV and sidecar read is a manifest input."""
    datasets = []
    for path in paths:
        dataset, sidecar = _load_dataset(path)
        for p in (path, sidecar):
            if p is not None:
                manifest.add_input(p)
        datasets.append(dataset)
    return datasets


def _load_split(data_dir: Path, names, split: str, manifest: Manifest,
                what: str):
    """(datasets, sessions per dataset) of `<data_dir>/<name>.csv` and
    `<data_dir>/<name>.<split>.json` for each name; the CSVs and their
    sidecars are recorded as manifest inputs before the session files."""
    datasets = _load_datasets([data_dir / f"{n}.csv" for n in names], manifest)
    sessions = [_load_sessions(data_dir / f"{n}.{split}.json", manifest, what)
                for n in names]
    return datasets, sessions


def _write_report(out: Path, stem: str, payload: dict, text: str,
                  manifest: Manifest) -> None:
    """`<stem>.json`, `<stem>.txt` and the manifest, written under `out`."""
    from .tabular import write_json
    write_json(out / f"{stem}.json", payload, indent=1)
    (out / f"{stem}.txt").write_text(text)
    manifest.add_output(out / f"{stem}.json")
    manifest.add_output(out / f"{stem}.txt")
    manifest.write(out / "manifest.json")


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


def _synth_config(overrides: dict):
    """(config, schema): SYNTH_DEFAULTS updated by `overrides`, every value
    checked, so that a bad one is a usage error before any file is
    written."""
    from . import synth, tabular
    from .tabular import is_finite_number, is_int

    def bad(message):
        return UsageError(f"bad synth config: {message}")

    unknown = set(overrides) - set(SYNTH_DEFAULTS)
    if unknown:
        raise bad(f"unknown keys {sorted(unknown)}")
    cfg = dict(SYNTH_DEFAULTS, **overrides)
    for key in ("datasets", "rows", "n_patterns", "n_edges", "links_per_edge",
                "cap", "trajectories"):
        if not is_int(cfg[key]) or cfg[key] < 1:
            raise bad(f"{key} must be an integer >= 1, got {cfg[key]!r}")
    m = cfg["multiplier"]
    if not (is_finite_number(m) and m > 1):
        raise bad(f"multiplier must be a finite number > 1, got {m!r}")
    for key in ("train_fraction", "group_prob"):
        if not (is_finite_number(cfg[key]) and 0 <= cfg[key] <= 1):
            raise bad(f"{key} must be a number in [0, 1], got {cfg[key]!r}")
    if cfg["schema"] is None:
        return cfg, synth.DEFAULT_SCHEMA
    spec = cfg["schema"]
    kinds = [k.value for k in tabular.ColumnKind]
    if (not isinstance(spec, list) or len(spec) < 2
            or not all(isinstance(col, list) and len(col) == 2
                       and isinstance(col[0], str) and col[1] in kinds
                       for col in spec)):
        raise bad(f"schema must list at least two [name, kind] pairs with "
                  f"kinds {kinds}, got {spec!r}")
    if len({name for name, _ in spec}) != len(spec):
        raise bad(f"schema repeats a column name: {spec!r}")
    return cfg, tuple((c, tabular.ColumnKind(k)) for c, k in spec)


def _synth_dataset(args, cfg, schema, i: int, stage) -> dict:
    """Draw dataset `ds<i>` and its expert sessions, write its four files to
    the paths `stage(file name)` returns, and return its generation record."""
    from . import synth, tabular, env as env_mod
    from .train import (STREAM_SPLIT, STREAM_SYNTH, STREAM_TRAJECTORIES,
                        derive_rng)

    name = f"ds{i}"
    pattern_rng = derive_rng(args.seed, STREAM_SYNTH, i)
    patterns = synth.generate_patterns(schema, cfg["n_patterns"], pattern_rng)
    dag = synth.generate_correlations(schema, patterns, pattern_rng,
                                      cap=cfg["cap"], n_edges=cfg["n_edges"],
                                      links_per_edge=cfg["links_per_edge"])
    try:
        dataset = synth.populate_rows(schema, patterns, dag, cfg["rows"],
                                      cfg["multiplier"], pattern_rng, name=name)
    except ValueError as exc:  # a multiplier so large the weights overflow
        raise UsageError(f"bad synth config: {exc}") from exc
    trajectories = synth.generate_expert_trajectories(
        dataset, patterns, dag, derive_rng(args.seed, STREAM_TRAJECTORIES, i),
        n_trajectories=cfg["trajectories"], group_prob=cfg["group_prob"])
    train, evaluation = synth.split_trajectories(
        trajectories, derive_rng(args.seed, STREAM_SPLIT, i),
        cfg["train_fraction"])

    tabular.write_dataset(dataset, stage(f"{name}.csv"))
    tabular.write_schema_sidecar(dataset, stage(f"{name}.schema.json"))
    env_mod.save_trajectories(stage(f"{name}.train.json"), dataset, train)
    env_mod.save_trajectories(stage(f"{name}.eval.json"), dataset, evaluation)
    print(f"{name}: {dataset.row_count} rows, {len(dag.edges)} correlations, "
          f"{len(train)}/{len(evaluation)} train/eval sessions")
    return synth.generation_manifest(
        schema, patterns, dag, seed=args.seed, n_rows=cfg["rows"],
        m=cfg["multiplier"], n_trajectories=cfg["trajectories"])


def cmd_synth(args) -> int:
    """Each output is written under a hidden partial name and moved to its
    final name only once every dataset is drawn. A failure removes the
    partial files and the directories this run created, and leaves every
    file that was already there as it was."""
    cfg, schema = _synth_config(_read_json_config(args.config))
    out = Path(args.out or ".")
    new_dirs = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("synth", args, cfg)
    if args.config:
        manifest.add_input(args.config)
    staged = []  # (partial path, final path) of every file written

    def stage(file_name: str) -> Path:
        staged.append((out / f".{file_name}.partial", out / file_name))
        return staged[-1][0]

    try:
        per_dataset = [_synth_dataset(args, cfg, schema, i, stage)
                       for i in range(1, cfg["datasets"] + 1)]
    except BaseException:
        for partial, _ in staged:
            partial.unlink(missing_ok=True)
        for d in new_dirs:  # deepest first
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    for partial, final in staged:
        os.replace(partial, final)
        manifest.add_output(final)

    manifest.data["generation"] = per_dataset
    manifest.write(out / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# train

def _train_once(args, cfg, datasets, expert, out: Path, manifest: Manifest) -> None:
    from .train import save_checkpoint, train_gail

    metrics_path = out / "metrics.ndjson"
    ckpt_path = out / "checkpoint.json"
    holder = {}

    with open(metrics_path, "w") as metrics_fh:
        def sink(record):
            metrics_fh.write(json.dumps(record) + "\n")

        try:
            result = train_gail(cfg, datasets, expert, metrics_sink=sink,
                                result_callback=lambda r: holder.update(result=r))
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        except FloatingPointError as exc:  # training went non-finite
            save_checkpoint(ckpt_path, holder["result"], cfg)
            raise NumericalError(f"{exc}; checkpoint dumped to {ckpt_path}") from exc

    save_checkpoint(ckpt_path, result, cfg)
    if result.bc_history:
        with open(out / "bc_log.ndjson", "w") as fh:
            for epoch, nll in enumerate(result.bc_history, start=1):
                fh.write(json.dumps({"epoch": epoch, "nll": round(nll, 6)}) + "\n")
        manifest.add_output(out / "bc_log.ndjson")
    manifest.add_output(metrics_path)
    manifest.add_output(ckpt_path)


def cmd_train(args) -> int:
    from .train import TrainConfig

    names = _dataset_names(args.datasets)
    overrides = _read_json_config(args.config)
    if args.seed is not None:
        overrides["seed"] = args.seed
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
    if args.leave_one_out and len(names) < 2:
        raise UsageError("--leave-one-out needs at least two datasets")

    manifest = Manifest("train", args, cfg.to_dict())
    manifest.data["seed"] = cfg.seed
    if args.config:
        manifest.add_input(args.config)
    # every input is read before --out is created, so a data error leaves
    # no directory behind
    datasets, expert = _load_split(data_dir, names, "train", manifest,
                                   "expert sessions")
    out = _out_dir(args)

    if args.leave_one_out:
        for held_out in names:
            kept = [i for i, n in enumerate(names) if n != held_out]
            sub = out / f"leave_out_{held_out}"
            sub.mkdir(parents=True, exist_ok=True)
            _train_once(args, cfg, [datasets[i] for i in kept],
                        [t for i in kept for t in expert[i]], sub, manifest)
            print(f"trained without {held_out} -> {sub}")
    else:
        _train_once(args, cfg, datasets, [t for ts in expert for t in ts],
                    out, manifest)
        print(f"trained on {', '.join(names)} -> {out}")

    manifest.write(out / "manifest.json")
    return 0


# ---------------------------------------------------------------------------
# generate

def _policy_sessions(args, datasets, manifest: Manifest):
    """(`args.n` sessions per dataset, config) from `args.checkpoint`,
    loaded once and recorded as a manifest input with the seed it ran
    with. In sample mode each dataset draws from a fresh STREAM_GENERATE
    generator, so its sessions do not depend on the datasets listed before
    it."""
    from .evaluation import generate_session
    from .train import STREAM_GENERATE, derive_rng, load_checkpoint

    try:
        result, cfg = load_checkpoint(args.checkpoint)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot load checkpoint {args.checkpoint}: {exc}") from exc
    manifest.add_input(args.checkpoint)
    seed = args.seed if args.seed is not None else cfg.seed
    manifest.data["seed"] = seed
    per_dataset = []
    for dataset in datasets:
        if result.schema != dataset.columns:
            raise DataError(
                f"checkpoint schema does not match dataset {dataset.name!r}")
        rng = derive_rng(seed, STREAM_GENERATE) if args.mode == "sample" else None
        per_dataset.append([generate_session(result.policy, dataset,
                                             cfg.horizon, rng)
                            for _ in range(args.n)])
    return per_dataset, cfg


def cmd_generate(args) -> int:
    from . import env as env_mod

    manifest = Manifest("generate", args, {"n": args.n, "mode": args.mode})
    (dataset,) = _load_datasets([args.dataset], manifest)
    (sessions,), cfg = _policy_sessions(args, [dataset], manifest)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    env_mod.save_trajectories(out_path, dataset, sessions)

    manifest.data["config"]["horizon"] = cfg.horizon
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
    from .evaluation import text_table
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
    return text_table(headers, body)


def cmd_measure(args) -> int:
    from . import env as env_mod
    from .measures import (EMPTY_RULESET, MEASURE_NAMES, CoherenceRuleset,
                           normalize_session, score_session)

    manifest = Manifest("measure", args, {"threshold": args.threshold})
    (dataset,) = _load_datasets([args.dataset], manifest)
    trajectories = _load_sessions(args.session, manifest)
    if not trajectories:
        raise DataError(f"{args.session} holds no sessions")
    if trajectories[0].dataset != dataset.name:
        raise DataError(f"{args.session} holds sessions of dataset "
                        f"{trajectories[0].dataset!r}, not {dataset.name!r}")
    ruleset = EMPTY_RULESET
    if args.ruleset:
        try:
            with open(args.ruleset) as fh:
                ruleset = CoherenceRuleset.from_json(json.load(fh))
        except (OSError, ValueError) as exc:
            raise DataError(str(exc)) from exc
        manifest.add_input(args.ruleset)

    report = {"dataset": dataset.name, "threshold": args.threshold, "sessions": []}
    tables = []
    for i, traj in enumerate(trajectories, start=1):
        if not traj.actions:
            raise DataError(f"session {i} of {args.session} is empty")
        try:
            raw = score_session(dataset, traj.actions, ruleset)
        except ValueError as exc:
            raise DataError(f"session {i} of {args.session} does not replay: "
                            f"{exc}") from exc
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
    if args.out:
        _write_report(_out_dir(args), "measures", report, text, manifest)
    return 0


# ---------------------------------------------------------------------------
# eval

def cmd_eval(args) -> int:
    from .evaluation import evaluate_sessions, report_text, METRIC_COLUMNS
    import numpy as np

    if bool(args.checkpoint) == bool(args.sessions):
        raise UsageError("provide exactly one of --checkpoint or --sessions")

    data_dir = Path(args.data)
    names = _dataset_names(args.datasets)
    if args.sessions and len(names) > 1:
        raise UsageError("a --sessions file holds one dataset's sessions: "
                         "give --datasets one name")
    if args.sessions and (args.n, args.mode) != (None, None):
        raise UsageError("--n and --mode apply only with --checkpoint")
    config = {"threshold": args.threshold}
    if args.checkpoint:  # the defaults of `generate`
        args.n = 1 if args.n is None else args.n
        args.mode = args.mode or "greedy"
        config = {"n": args.n, "mode": args.mode, **config}

    manifest = Manifest("eval", args, config)
    datasets, golds = _load_split(data_dir, names, "eval", manifest,
                                  "gold sessions")
    if args.checkpoint:
        generated, _ = _policy_sessions(args, datasets, manifest)
    else:
        sessions = [t for t in _load_sessions(args.sessions, manifest)
                    if t.dataset == datasets[0].name]
        if not sessions:
            raise DataError(f"{args.sessions} has no sessions for {names[0]}")
        generated = [sessions]
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
        _write_report(_out_dir(args), "report", {"rows": rows}, text, manifest)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="autoeda",
                     description="Train and analyze EDA session policies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_directory=True):
        p.add_argument("--seed", type=_non_negative_int, default=None)
        p.add_argument("--deterministic", action="store_true",
                       help="single-threaded, byte-reproducible run")
        if out_directory:
            p.add_argument("--out", type=_out_directory, default=None,
                           help="output directory")

    p = sub.add_parser("synth", help="generate datasets and expert sessions")
    common(p)
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(fn=cmd_synth, seed=0)

    p = sub.add_parser("train", help="train a session policy")
    common(p)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--data", required=True, help="directory from `synth`")
    p.add_argument("--datasets", required=True, help="comma-separated names")
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
    common(p, out_directory=False)
    p.add_argument("--out", type=_out_file, default="sessions.json",
                   help="session file (default sessions.json); its manifest "
                        "is written beside it as <stem>.manifest.json")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset csv path")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--mode", choices=("greedy", "sample"), default="greedy")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("measure", help="per-step interestingness table")
    common(p)
    p.add_argument("--session", required=True, help="session JSON file")
    p.add_argument("--dataset", required=True, help="dataset csv path")
    p.add_argument("--ruleset", default=None, help="coherence ruleset JSON")
    p.add_argument("--threshold", type=_finite_float, default=0.7,
                   help="highlight normalized scores above this")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("eval", help="score sessions against gold sessions")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--sessions", default=None,
                   help="one dataset's pre-generated sessions instead of "
                        "a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--datasets", required=True, help="comma-separated names")
    p.add_argument("--n", type=_positive_int, default=None,
                   help="with --checkpoint: sessions per dataset (default 1)")
    p.add_argument("--mode", choices=("greedy", "sample"), default=None,
                   help="with --checkpoint: how heads are chosen "
                        "(default greedy)")
    p.add_argument("--threshold", type=_fraction, default=0.9)
    p.set_defaults(fn=cmd_eval)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser `main` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--deterministic" in argv:
        # must happen before numpy is imported anywhere in this process, and
        # must override a thread count the process inherited
        for var in _THREAD_VARS:
            os.environ[var] = "1"
    try:
        args = _parser().parse_args(argv)
        args.argv = argv
        return args.fn(args)
    except (UsageError, DataError, NumericalError) as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
