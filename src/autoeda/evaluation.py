"""Session-quality metrics: view precision, order-aware n-gram precision
(TBLEU-1/2/3), and a similarity score that counts nearly identical views as
hits under an order-preserving alignment.

Views are the displays produced by FILTER/GROUP steps, identified by their
operation fingerprint and carried with their feature encoding.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import nn
from .env import (DEFAULT_HORIZON, EdaEnv, Trajectory, decide, encode_display,
                  state_from_history, walk_displays)
from .tabular import Dataset, display_fingerprint

DEFAULT_SIM_THRESHOLD = 0.9
METRIC_COLUMNS = ("precision", "tbleu1", "tbleu2", "tbleu3", "eda_sim")


@dataclass(frozen=True)
class View:
    fingerprint: str
    vec: np.ndarray


def views_from_actions(dataset: Dataset, actions) -> list[View]:
    """Views of a session, gold or generated: one per FILTER/GROUP step
    (BACK and STOP add no view)."""
    return [View(display_fingerprint(cur), encode_display(cur, dataset))
            for _, action, cur in walk_displays(dataset, actions)
            if action.kind in ("FILTER", "GROUP")]


def precision(gen: list[View], gold: list[list[View]]) -> float:
    """Fraction of generated views (with multiplicity) that appear anywhere
    in the gold sessions."""
    if not gen:
        raise ValueError("generated session has no views")
    if not gold:
        raise ValueError("need at least one gold session")
    gold_fps = {v.fingerprint for session in gold for v in session}
    hits = sum(v.fingerprint in gold_fps for v in gen)
    return hits / len(gen)


def _ngrams(fps, n: int):
    return [tuple(fps[i:i + n]) for i in range(len(fps) - n + 1)]


def tbleu(gen: list[View], gold: list[list[View]], n: int) -> float:
    """Modified n-gram precision over view fingerprints with per-gram counts
    clipped to the best gold session, times the brevity penalty against the
    closest gold length. Orders are reported separately (no geometric mean).
    """
    if n not in (1, 2, 3):
        raise ValueError("n must be 1, 2 or 3")
    if not gold:
        raise ValueError("need at least one gold session")
    gen_fps = [v.fingerprint for v in gen]
    if len(gen_fps) < n:
        return 0.0
    counts = Counter(_ngrams(gen_fps, n))
    max_ref = Counter()
    for session in gold:
        ref = Counter(_ngrams([v.fingerprint for v in session], n))
        for gram in counts:
            max_ref[gram] = max(max_ref[gram], ref[gram])
    clipped = sum(min(c, max_ref[gram]) for gram, c in counts.items())
    prec = clipped / sum(counts.values())
    c = len(gen_fps)
    r = min((len(s) for s in gold), key=lambda L: (abs(L - c), L))
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * prec


def display_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """1 at identical encodings, 0 at the far corners of the unit box."""
    if a.shape != b.shape:
        raise ValueError("encodings must have equal length")
    max_dist = math.sqrt(a.shape[0])
    return 1.0 - float(np.linalg.norm(a - b)) / max_dist


def eda_sim(gen: list[View], gold: list[list[View]],
            threshold: float = DEFAULT_SIM_THRESHOLD) -> float:
    """Order-preserving alignment score, maximized over gold sessions.

    Views pair up without crossings when at least `threshold` similar; the
    maximum number of such pairs (a longest-common-subsequence style dynamic
    program) over max(len(gen), len(gold)) is the session score. Using the
    maximum matching keeps the score monotone under threshold relaxation,
    which a greedy earliest-match scan does not guarantee.

    Each distinct (generated, gold) pair of encodings, keyed by the vectors'
    bytes (one fingerprint can name two encodings), is tested once per call.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    if not gold:
        raise ValueError("need at least one gold session")
    gen_keys = [v.vec.tobytes() for v in gen]
    gold_keys = [[v.vec.tobytes() for v in session] for session in gold]
    gen_vecs = {v.vec.tobytes(): v.vec for v in gen}
    gold_vecs = {v.vec.tobytes(): v.vec for session in gold for v in session}
    hit = {(a, b): display_similarity(u, w) >= threshold
           for a, u in gen_vecs.items() for b, w in gold_vecs.items()}
    best = 0.0
    for keys in gold_keys:
        prev = [0] * (len(keys) + 1)
        for a in gen_keys:
            cur = [0]
            for j, b in enumerate(keys):
                cur.append(max(prev[j + 1], cur[j], prev[j] + hit[a, b]))
            prev = cur
        best = max(best, prev[-1] / max(len(gen_keys), len(keys), 1))
    return best


def generate_session(policy: nn.PolicyNet, dataset: Dataset,
                     horizon: int = DEFAULT_HORIZON,
                     rng: np.random.Generator | None = None) -> Trajectory:
    """One episode of the policy over a dataset, decided by `decide`: each
    head is sampled from `rng`, or takes its argmax without one."""
    env = EdaEnv(dataset, horizon)
    state = env.reset()
    while not state.done:
        svec = state_from_history(state.history)
        _, _, (action,) = decide(policy, svec[None], [state.current], rng)
        state = env.step(state, action)
    return Trajectory(dataset.name, state.action_history)


def evaluate_sessions(dataset: Dataset, sessions, gold_trajectories,
                      threshold: float = DEFAULT_SIM_THRESHOLD) -> dict:
    """Mean metrics of generated sessions against one dataset's gold set;
    each distinct session is scored once and counted at every repeat."""
    gold_views = [views_from_actions(dataset, t.actions)
                  for t in gold_trajectories]
    gold_views = [g for g in gold_views if g]
    if not gold_views:
        raise ValueError(f"gold sessions for {dataset.name!r} contain no views")
    scored = {}  # distinct action tuple -> its metrics
    for actions in dict.fromkeys(traj.actions for traj in sessions):
        gen = views_from_actions(dataset, actions)
        scored[actions] = {
            "precision": precision(gen, gold_views),
            "tbleu1": tbleu(gen, gold_views, 1),
            "tbleu2": tbleu(gen, gold_views, 2),
            "tbleu3": tbleu(gen, gold_views, 3),
            "eda_sim": eda_sim(gen, gold_views, threshold),
        } if gen else {k: 0.0 for k in METRIC_COLUMNS}
    rows = [scored[traj.actions] for traj in sessions]
    return {key: float(np.mean([r[key] for r in rows])) for key in METRIC_COLUMNS}


def text_table(headers, body) -> str:
    """Left-aligned text columns two spaces apart, the headers over a
    dashed rule; every cell is padded to its column's width."""
    widths = [max(len(h), *(len(b[i]) for b in body)) for i, h in enumerate(headers)]
    lines = [headers, ["-" * w for w in widths], *body]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths))
                     for line in lines)


def report_text(rows) -> str:
    """Aligned table with one row per dataset and the five metric columns."""
    headers = ("Dataset", "Precision", "TBLEU-1", "TBLEU-2", "TBLEU-3", "EDA-Sim")
    return text_table(headers, [[str(r["dataset"])]
                                + [f"{r[k]:.4f}" for k in METRIC_COLUMNS]
                                for r in rows])
