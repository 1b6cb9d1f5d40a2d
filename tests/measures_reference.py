"""Reference measures code: the loop over value -> share dicts whose bits
the code-space `autoeda.measures.kl_divergence` must reproduce, a builder
of code-space histograms from such dicts, and the session scorer that kept
its own lists of seen views and prior actions, whose scores
`autoeda.measures.score_session` must reproduce."""

import math

import numpy as np

from autoeda.env import walk_displays
from autoeda.measures import (EMPTY_RULESET, a_int, coherence,
                              default_measure_specs, diversity, peculiarity,
                              readability)
from autoeda.tabular import Histogram, initial_display


def kl_divergence(p, q, eps=1e-6):
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")
    if not p and not q:
        return 0.0
    total = 0.0
    for value, mass in p.items():
        if mass <= 0:
            continue
        q_mass = q.get(value, 0.0)
        total += mass * math.log(mass / (q_mass if q_mass > 0 else eps))
    return total


def histograms(*dists):
    """One `Histogram` per value -> share dict, in the dict's order, all
    over one dictionary of their keys (in order of first appearance, then
    None)."""
    values = list(dict.fromkeys(v for dist in dists for v in dist))
    dictionary = np.array(values + [None], dtype=object)
    code = {v: k for k, v in enumerate(values)}
    return [Histogram(dictionary, np.array([code[v] for v in dist], dtype=int),
                      np.array(list(dist.values()), dtype=float))
            for dist in dists]


def score_session(dataset, actions, ruleset=EMPTY_RULESET):
    specs = default_measure_specs(dataset.row_count)
    initial = initial_display(dataset)
    scores = []
    seen = [initial]
    prior = []
    for prev, action, cur in walk_displays(dataset, actions):
        scores.append({
            "a_int": a_int(prev, cur, action, specs),
            "diversity": diversity(cur, seen),
            "coherence": coherence(prev, cur, action, prior, ruleset),
            "readability": readability(prev, cur, specs),
            "peculiarity": peculiarity(cur, initial, specs),
        })
        prior.append(action)
        if action.kind != "STOP":
            seen.append(cur)
    return scores
