"""Reference KL divergence: the loop over p whose bits the array-based
`autoeda.measures.kl_divergence` must reproduce."""

import math


def kl_divergence(p, q, eps=1e-6):
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not p and not q:
        return 0.0
    total = 0.0
    for value, mass in p.items():
        if mass <= 0:
            continue
        q_mass = q.get(value, 0.0)
        total += mass * math.log(mass / (q_mass if q_mass > 0 else eps))
    return total
