"""Benchmark for autoeda: three closed-loop workloads driven through its CLI.

    python3 bench/run.py --workload clone --seed 1 --seconds 15 --trace 0

Workloads are `clone`, `imitate` and `analyze` (see bench/README.md), or
`all`, which runs each in its own process and prints every metric by name.
`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced and
one traced unit and prints the per-layer metrics. `--toy` shrinks every
input so a run takes seconds. The last line of standard output is the
result object; the line before it is the run record.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere in this process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, Probes, Tracer  # noqa: E402  (imports no autoeda module)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3       # set-ups per untraced run; setup_s is their median
MIN_UNITS = 2    # units per untraced run, however short --seconds is
# least share of a traced unit's wall time that library spans must cover;
# toy inputs leave more of it to manifest hashing in the CLI
COVERAGE_FLOOR = {"full": 0.95, "toy": 0.8}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# span -> stats reported for it; self_s is in seconds, the rest are counts
SPAN_STATS = {
    "tabular.apply_filter": ("calls", "self_s", "rows_in", "rows_out"),
    "tabular.apply_group": ("calls", "self_s", "rows_in", "groups_out"),
    "tabular.Display.column_stats": ("calls", "self_s"),
    "tabular.column_histogram": ("calls", "self_s"),
    "tabular.display_fingerprint": ("calls", "self_s"),
    "tabular.load_dataset": ("calls", "self_s", "rows"),
    "tabular.write_dataset": ("self_s",),
    "env.EdaEnv.step": ("calls", "self_s"),
    "env.encode_display": ("calls", "computed", "self_s"),
    "env.action_from_heads": ("self_s",),
    "env.heads_from_action": ("self_s",),
    "env.encode_action": ("self_s",),
    "env.replay": ("calls", "self_s"),
    "env.walk_displays": ("calls", "self_s"),
    "env.save_trajectories": ("self_s",),
    "env.load_trajectories": ("self_s",),
    "measures.score_session": ("calls", "steps", "self_s"),
    "measures.kl_divergence": ("calls", "support", "self_s"),
    "measures.diversity": ("self_s",),
    "measures.coherence": ("self_s",),
    "nn.PolicyNet.forward": ("calls", "rows", "self_s"),
    "nn.PolicyNet.backward_logprob": ("calls", "self_s"),
    "nn.Adam.step": ("calls", "self_s"),
    "nn.l2_penalty": ("self_s",),
    "nn.DiscriminatorNet.forward": ("calls", "rows", "self_s"),
    "nn.sample_action": ("calls", "self_s"),
    "train.prepare_expert_steps": ("self_s",),
    "train.bc_pretrain": ("self_s",),
    "train.RolloutCollector.collect": ("steps", "self_s"),
    "train.update_discriminator": ("self_s",),
    "train.assemble_mixed_batch": ("self_s",),
    "train.ppo_update": ("self_s",),
    "train.value_update": ("self_s",),
    "train.incoherence_penalty": ("calls", "self_s"),
    "train.save_checkpoint": ("self_s",),
    "train.load_checkpoint": ("self_s",),
    "evaluation.generate_session": ("calls", "self_s"),
    "evaluation.views_from_actions": ("calls", "self_s"),
    "evaluation.tbleu": ("self_s",),
    "evaluation.eda_sim": ("self_s",),
    "synth.populate_rows": ("rows", "self_s"),
    "synth.generate_expert_trajectories": ("self_s",),
    "cli.main": ("self_s",),
}
LAYER_NAMES = ("cli",) + LAYERS
PER_LAYER = tuple(
    [(f"{span}.{stat}", "s" if stat == "self_s" else "count")
     for span, stats in SPAN_STATS.items() for stat in stats]
    + [("tabular.view_repeat_ratio", "ratio"), ("env.encode_redundant_ratio", "ratio")]
    + [(f"{layer}.unit_share", "ratio") for layer in LAYER_NAMES]
    + [("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio")])

# Functions each traced run must reach; zero calls means a wrapper missed a
# binding (or the workload stopped exercising the layer it exists for).
REACHED_IN_SETUP = (
    "cli.main", "synth.populate_rows", "synth.generate_expert_trajectories",
    "tabular.write_dataset", "env.save_trajectories", "env.walk_displays",
    "tabular.apply_filter", "tabular.apply_group", "env.EdaEnv.step")
_UNIT_COMMON = (
    "cli.main", "tabular.load_dataset", "tabular.apply_filter", "tabular.apply_group",
    "tabular.Display.column_stats", "tabular.column_histogram", "env.EdaEnv.step",
    "env.encode_display", "env.load_trajectories", "nn.PolicyNet.forward")
_UNIT_TRAIN = (
    "env.replay", "env.heads_from_action", "env.encode_action",
    "train.prepare_expert_steps", "train.incoherence_penalty", "nn.Adam.step",
    "train.save_checkpoint")
REACHED_IN_UNIT = {
    "clone": _UNIT_COMMON + _UNIT_TRAIN + (
        "train.bc_pretrain", "nn.PolicyNet.backward_logprob", "nn.l2_penalty"),
    "imitate": _UNIT_COMMON + _UNIT_TRAIN + (
        "train.RolloutCollector.collect", "env.action_from_heads", "nn.sample_action",
        "nn.DiscriminatorNet.forward", "train.update_discriminator",
        "train.assemble_mixed_batch", "train.ppo_update", "train.value_update"),
    "analyze": _UNIT_COMMON + (
        "train.load_checkpoint", "evaluation.generate_session", "env.action_from_heads",
        "nn.sample_action", "env.save_trajectories", "env.walk_displays",
        "tabular.display_fingerprint", "measures.score_session", "measures.kl_divergence",
        "measures.diversity", "measures.coherence", "evaluation.views_from_actions",
        "evaluation.tbleu", "evaluation.eda_sim"),
}


def import_autoeda():
    """Import autoeda from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import autoeda
    except ImportError:
        return None
    if Path(autoeda.__file__).resolve().parent != (src / "autoeda").resolve():
        return None
    return autoeda


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentiles(samples) -> dict:
    """Median and p90 with the sample count; p90 has at least ten samples
    beyond it only when there are at least 100."""
    return {"p50": statistics.median(samples),
            "p90": statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0],
            "samples": len(samples)}


# ---------------------------------------------------------------------------

def untraced(wl, probes, ops, seconds: float) -> tuple[dict, dict]:
    setups, digests = [], []
    for i in range(SETUPS):
        out = wl.data if i == 0 else wl.work / f"setup{i}"
        setups.append(wl.setup(out))
        digests.append(wl.setup_digest(out))
        if i:
            shutil.rmtree(out)
    ops.check([len(set(digests)) > 1 and "set-up outputs differ between set-ups"])
    sizes = wl.inspect_inputs()

    units, loads, score_ms = [], [], []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
        out = wl.work / f"unit{len(units)}"
        probes.clear()
        gc.collect()
        unit = wl.run_unit(out)
        units.append(wl.check(out, unit, probes, sizes))
        loads += probes.loads
        score_ms += probes.score_ms
        shutil.rmtree(out, ignore_errors=True)
    ops.check([len({u["digest"] for u in units}) > 1
               and "determinism digest differs between units of one seed"])

    shared = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(u["work"] / u["seconds"] for u in units),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: metric(shared[name], unit) for name, unit in END_TO_END}

    # each workload's own names: the gated numbers under specific names, and
    # rates that are recorded but not gated
    named = {name: metric(shared[name], unit) for name, unit in (
        ("setup_s", "s"), ("peak_rss_mb", "MB"))}
    if loads:
        named["load_rows_per_s"] = metric(
            sum(r for r, _ in loads) / sum(s for _, s in loads), "1/s")
    named["error_rate"] = metric(ops.failed / max(ops.attempted, 1), "ratio")
    named.update({k: metric(v, u) for k, (u, v) in wl.named(units, shared).items()})
    record = {
        "inputs": sizes, "work_unit": wl.work_unit,
        "setup_seconds": setups, "setup_digest": digests[0],
        "unit_seconds": [u["seconds"] for u in units],
        "digest": units[0]["digest"], "named_metrics": named,
    }
    if score_ms:
        latency = percentiles(score_ms)
        named["measure_session_ms.p50"] = metric(latency["p50"], "ms")
        named["measure_session_ms.p90"] = metric(latency["p90"], "ms")
        record["measure_session_ms_samples"] = latency["samples"]
    if "mean_episode_len" in units[0]:
        record["mean_episode_len"] = units[0]["mean_episode_len"]
    return metrics, record


def traced(wl, probes, ops, name: str, floor: float) -> tuple[dict, dict]:
    wl.setup(wl.data)
    sizes = wl.inspect_inputs()
    probes.clear()
    gc.collect()
    out = wl.work / "unit-untraced"
    base = wl.run_unit(out)
    base_digest = wl.check(out, base, probes, sizes)["digest"]

    tracer = Tracer()
    tracer.install()
    try:
        wl.setup(wl.work / "setup-traced")
        setup_calls = {k: s["calls"] for k, s in tracer.stats.items()}
        layers0, overhead0 = tracer.self_by_layer(), tracer.overhead_s
        probes.clear()
        gc.collect()
        out = wl.work / "unit-traced"
        unit = wl.run_unit(out)
        layers1, overhead1 = tracer.self_by_layer(), tracer.overhead_s
    finally:
        tracer.uninstall()
    digest = wl.check(out, unit, probes, sizes)["digest"]
    ops.check([digest != base_digest and "tracing changed the program's outputs"])

    stats = tracer.stats
    unit_calls = {k: s["calls"] - setup_calls.get(k, 0) for k, s in stats.items()}
    unit_self = {k: layers1[k] - layers0[k] for k in layers1}
    wall = unit["seconds"] - (overhead1 - overhead0)
    coverage = sum(v for k, v in unit_self.items() if k != "cli") / wall
    missed = ([f"{f} (set-up)" for f in REACHED_IN_SETUP if not setup_calls.get(f)]
              + [f for f in REACHED_IN_UNIT[name] if not unit_calls.get(f)])
    ops.check([missed and "traced run never reached " + ", ".join(missed),
               coverage < floor and f"trace coverage {coverage:.3f} is below {floor}"])

    values = {f"{span}.{stat}": stats[span][stat] if span in stats else 0
              for span, names in SPAN_STATS.items() for stat in names}
    values["tabular.view_repeat_ratio"] = tracer.views_repeated / max(tracer.views_built, 1)
    values["env.encode_redundant_ratio"] = (tracer.encodings_redundant
                                            / max(tracer.encodings_computed, 1))
    total = sum(unit_self.values())
    for layer in LAYER_NAMES:
        values[f"{layer}.unit_share"] = unit_self[layer] / total
    values["trace.overhead_ratio"] = unit["seconds"] / base["seconds"] - 1.0
    values["trace.coverage"] = coverage
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    record = {"inputs": sizes, "untraced_unit_s": base["seconds"],
              "traced_unit_s": unit["seconds"], "tracer_overhead_s": overhead1 - overhead0,
              "digest": digest, "missed": missed}
    return metrics, record


def run_workload(args) -> int:
    if import_autoeda() is None:
        print(f"error: cannot import autoeda from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WHY, WORKLOADS, Failures

    ops = Failures()
    size = "toy" if args.toy else "full"
    wl = WORKLOADS[args.workload](ROOT, args.seed, size, ops)
    probes = Probes()
    probes.install()
    try:
        if args.trace:
            metrics, record = traced(wl, probes, ops, args.workload, COVERAGE_FLOOR[size])
        else:
            metrics, record = untraced(wl, probes, ops, args.seconds)
    finally:
        probes.uninstall()
        wl.close()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "toy": args.toy, "why": WHY[args.workload], **environment(), **record,
              "failures": ops.reasons[:20]}
    for reason in ops.reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is its own), then one
    table of every workload's named metrics."""
    results, correct, attempted, failed = {}, True, 0, 0
    for name in ("clone", "imitate", "analyze"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        print(json.dumps({"record": record}))
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        shown = result["metrics"] if args.trace else record["named_metrics"]
        for metric_name, m in shown.items():
            results[f"{name}.{metric_name}"] = m
            print(f"{name:8s} {metric_name:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("clone", "imitate", "analyze", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
