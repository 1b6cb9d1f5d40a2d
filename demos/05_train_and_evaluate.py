"""
Training and evaluating a session policy
========================================

End to end at toy scale: synthesize two training datasets plus a held-out
one, clone the expert sessions, fine-tune adversarially, then score
generated sessions against the held-out gold set. Expect a few minutes of
compute; the trained policy should clearly beat an untrained (uniform) one.
"""

from autoeda import nn, synth
from autoeda.evaluation import (evaluate_sessions, generate_session,
                                report_text)
from autoeda.env import state_vec_len
from autoeda.train import TrainConfig, derive_rng, train_gail


def build(seed, idx):
    rng = derive_rng(seed, 4, idx)
    patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, 2, rng)
    dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                      cap=2, n_edges=5, links_per_edge=2)
    dataset = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag, 1000,
                                  5.0, rng, name=f"ds{idx}")
    sessions = synth.generate_expert_trajectories(
        dataset, patterns, dag, derive_rng(seed, 5, idx), n_trajectories=60)
    train, evaluation = synth.split_trajectories(sessions, derive_rng(seed, 6, idx))
    return dataset, train, evaluation


SEED = 6
bundles = [build(SEED, i) for i in (1, 2, 3)]
train_datasets = [bundles[0][0], bundles[1][0]]
expert = bundles[0][1] + bundles[1][1]
held_out, _, gold = bundles[2]
print(f"training on {len(expert)} expert sessions from "
      f"{train_datasets[0].name} and {train_datasets[1].name}; "
      f"evaluating on {held_out.name}")

cfg = TrainConfig(total_interactions=5000, seed=SEED)
result = train_gail(cfg, train_datasets, expert,
                    metrics_sink=lambda r: print("  interval", r))
print("cloning loss per epoch (first/last):",
      f"{result.bc_history[0]:.3f} -> {result.bc_history[-1]:.3f}")

untrained = nn.PolicyNet(state_vec_len(held_out), result.layout.sizes,
                         cfg.policy_hidden, derive_rng(SEED, 0))

rows = []
for name, policy in (("trained", result.policy), ("uniform", untrained)):
    rng = derive_rng(SEED, 7)
    sessions = [generate_session(policy, held_out, cfg.horizon, rng)
                for _ in range(40)]
    metrics = evaluate_sessions(held_out, sessions, gold)
    rows.append({"dataset": name, **metrics})

print()
print(report_text(rows))
print("\na greedy session from the trained policy:")
for action in generate_session(result.policy, held_out, cfg.horizon).actions:
    print("   ", action)
