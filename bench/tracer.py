"""Spans and probes installed around autoeda from outside the library.

A module-level `from .tabular import apply_filter` copies the binding into
the importing module, so a replacement is bound in every `autoeda.*`
namespace that holds the original object. Methods are replaced on their
class, which every call site resolves through.

`Probes` are the few timestamp and capture hooks the untraced runs need;
`Tracer` wraps every public function and method and records spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("tabular", "env", "measures", "nn", "train", "evaluation", "synth")

# Hot leaf helpers that run per cell or per head. Wrapping them would cost
# more than the work they do; their time stays in the caller's self time.
UNTRACED = frozenset({
    "tabular.parse_number", "tabular.canonical_number", "tabular.canonical_term",
    "tabular.Dataset.column_index", "tabular.Dataset.kind_of",
    "nn.softmax", "nn.log_softmax", "measures.sigmoid",
    "measures.MeasureScores.get", "evaluation.display_similarity",
})


def _autoeda_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "autoeda" or name.startswith("autoeda."))]


def resolve(target: str):
    """(owner, attribute, object) for "module.func" or "module.Class.method"."""
    parts = target.split(".")
    owner = importlib.import_module(f"autoeda.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Patches:
    """Replacements of autoeda functions and methods, undone last first."""

    def __init__(self):
        self._undo = []

    def wrap(self, target: str, make_wrapper):
        """Replace `target` with make_wrapper(original) wherever it is bound."""
        owner, attr, original = resolve(target)
        replacement = make_wrapper(original)
        if inspect.isclass(owner):
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
            return
        for mod in _autoeda_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, replacement)

    def undo(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Probes:
    """Light hooks for the untraced runs: dataset load timings, phase
    boundaries, and captured results for the output checks."""

    def __init__(self):
        self.loads = []          # (rows, seconds) per dataset load by the CLI
        self.train_results = []  # TrainResult objects returned by train_gail
        self.expert_ready = []   # perf_counter when expert replay finished
        self.generated = []      # trajectories returned by generate_session
        self.score_ms = []       # milliseconds per score_session call
        self._patches = Patches()

    def install(self):
        clock = time.perf_counter

        def timed_load(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self.loads.append((out[0].row_count, clock() - t0))
                return out
            return wrapper

        def capture(sink):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    sink.append(out)
                    return out
                return wrapper
            return make

        def stamp_after(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.expert_ready.append(clock())
                return out
            return wrapper

        def latency(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                self.score_ms.append((clock() - t0) * 1e3)
                return out
            return wrapper

        self._patches.wrap("cli._load_dataset", timed_load)
        self._patches.wrap("train.train_gail", capture(self.train_results))
        self._patches.wrap("train.prepare_expert_steps", stamp_after)
        self._patches.wrap("evaluation.generate_session", capture(self.generated))
        self._patches.wrap("measures.score_session", latency)

    def uninstall(self):
        self._patches.undo()

    def clear(self):
        for sink in (self.loads, self.train_results, self.expert_ready,
                     self.generated, self.score_ms):
            sink.clear()


def _rows(x) -> int:
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


class Tracer:
    """Spans around every public autoeda function and method.

    Each span records calls and self time (duration minus the time its child
    spans cover, tracer bookkeeping included). A few spans also count work:
    rows in and out of the display engine, batch rows of the networks, KL
    support sizes, and repeated views and encodings.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.overhead_s = 0.0
        self.views_built = 0
        self.views_repeated = 0
        self.encodings_computed = 0
        self.encodings_redundant = 0
        self._stack: list[list[float]] = []
        self._views = weakref.WeakKeyDictionary()    # dataset -> fingerprints built
        self._encoded = weakref.WeakKeyDictionary()  # dataset -> fingerprints encoded
        self._patches = Patches()
        self._fingerprint = None

    # -- targets -----------------------------------------------------------

    @staticmethod
    def targets() -> list[str]:
        """Public functions and methods of every layer module, plus cli.main."""
        names = ["cli.main"]
        for layer in LAYERS:
            mod = importlib.import_module(f"autoeda.{layer}")
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    names.append(f"{layer}.{name}")
                elif inspect.isclass(obj):
                    names.extend(f"{layer}.{name}.{m}" for m, f in vars(obj).items()
                                 if inspect.isfunction(f) and not m.startswith("_"))
        return [n for n in names if n not in UNTRACED]

    # -- counters ----------------------------------------------------------

    def _fp(self, display) -> str:
        """Fingerprint of a display without leaving it cached on the display."""
        cached = display._fp
        fp = self._fingerprint(display)
        if cached is None:
            display._fp = None
        return fp

    def _seen(self, memo, dataset, fp) -> bool:
        fps = memo.get(dataset)
        if fps is None:
            fps = memo[dataset] = set()
        seen = fp in fps
        fps.add(fp)
        return seen

    def _built(self, display):
        self.views_built += 1
        self.views_repeated += self._seen(self._views, display.dataset, self._fp(display))

    def _hooks(self):
        """span name -> after(stat, args, out, fresh), which counts work.

        `fresh` is true when encode_display found no cached encoding on the
        display before the call; other spans ignore it.
        """
        def built_filter(stat, args, out, _):
            stat["rows_in"] += args[0].row_count
            stat["rows_out"] += out.row_count
            self._built(out)

        def built_group(stat, args, out, _):
            stat["rows_in"] += args[0].row_count
            stat["groups_out"] += out.group_count
            self._built(out)

        def encoded(stat, args, out, fresh):
            if fresh:
                stat["computed"] += 1
                self.encodings_computed += 1
                self.encodings_redundant += self._seen(self._encoded, args[1],
                                                       self._fp(args[0]))

        def add(key, value):
            def after(stat, args, out, _):
                stat[key] += value(args, out)
            return after

        return {
            "tabular.apply_filter": built_filter,
            "tabular.apply_group": built_group,
            "tabular.initial_display": lambda stat, args, out, _: self._built(out),
            "tabular.load_dataset": add("rows", lambda a, out: out.row_count),
            "env.encode_display": encoded,
            "measures.score_session": add("steps", lambda a, out: len(out)),
            "measures.kl_divergence": add("support", lambda a, out: len(a[0].keys() | a[1].keys())),
            "nn.PolicyNet.forward": add("rows", lambda a, out: _rows(a[1])),
            "nn.DiscriminatorNet.forward": add("rows", lambda a, out: _rows(a[1])),
            "train.RolloutCollector.collect": add("steps", lambda a, out: len(out)),
            "synth.populate_rows": add("rows", lambda a, out: out.row_count),
        }

    # -- install -----------------------------------------------------------

    def install(self):
        self._fingerprint = resolve("tabular.display_fingerprint")[2]
        hooks = self._hooks()
        for name in self.targets():
            self._patches.wrap(name, lambda fn, name=name: self._span(name, fn, hooks.get(name)))

    def uninstall(self):
        self._patches.undo()

    def _span(self, name, fn, after):
        stat = self.stats.setdefault(name, _new_stat())
        stack = self._stack
        clock = time.perf_counter
        encoder = name == "env.encode_display"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            fresh = encoder and args[0]._vec is None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += (t1 - t0) - frame[0]
            if after:
                after(stat, args, out, fresh)
            t_out = clock()
            self.overhead_s += (t_out - t_in) - (t1 - t0)
            if stack:
                stack[-1][0] += t_out - t_in
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def self_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in ("cli",) + LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat["self_s"]
        return out


def _new_stat():
    stat = defaultdict(int)  # calls and work counts
    stat["self_s"] = 0.0
    return stat
