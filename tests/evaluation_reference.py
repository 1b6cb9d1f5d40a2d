"""Reference evaluation code: the EDA-Sim dynamic program that measured the
similarity of every cell's pair of encodings, and the session loop that
scored every generated session, repeats included, whose bits
`autoeda.evaluation.eda_sim` and `evaluate_sessions` must reproduce."""

import numpy as np

from autoeda.evaluation import (DEFAULT_SIM_THRESHOLD, METRIC_COLUMNS,
                                display_similarity, precision, tbleu,
                                views_from_actions)


def eda_sim(gen, gold, threshold=DEFAULT_SIM_THRESHOLD):
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    if not gold:
        raise ValueError("need at least one gold session")
    best = 0.0
    for session in gold:
        n, m = len(gen), len(session)
        prev = [0] * (m + 1)
        for i in range(1, n + 1):
            cur = [0] * (m + 1)
            for j in range(1, m + 1):
                hit = display_similarity(gen[i - 1].vec,
                                         session[j - 1].vec) >= threshold
                cur[j] = max(prev[j], cur[j - 1], prev[j - 1] + (1 if hit else 0))
            prev = cur
        best = max(best, prev[m] / max(n, m, 1))
    return best


def all_metrics(gen, gold, threshold=DEFAULT_SIM_THRESHOLD):
    return {
        "precision": precision(gen, gold),
        "tbleu1": tbleu(gen, gold, 1),
        "tbleu2": tbleu(gen, gold, 2),
        "tbleu3": tbleu(gen, gold, 3),
        "eda_sim": eda_sim(gen, gold, threshold),
    }


def evaluate_sessions(dataset, sessions, gold_trajectories,
                      threshold=DEFAULT_SIM_THRESHOLD):
    gold_views = [views_from_actions(dataset, t.actions)
                  for t in gold_trajectories]
    gold_views = [g for g in gold_views if g]
    if not gold_views:
        raise ValueError(f"gold sessions for {dataset.name!r} contain no views")
    rows = []
    for traj in sessions:
        gen_views = views_from_actions(dataset, traj.actions)
        if not gen_views:
            rows.append({k: 0.0 for k in METRIC_COLUMNS})
        else:
            rows.append(all_metrics(gen_views, gold_views, threshold))
    return {key: float(np.mean([r[key] for r in rows])) for key in METRIC_COLUMNS}
