"""
Expert sessions from graph traversal
====================================

An analysis session is modeled as a depth-first walk of the correlation
graph: filter the source column to a pattern, expose the destination by a
second filter or a group-and-count, then retrace with BACK. Replaying the
actions through the episode environment yields the (state, action) pairs
that imitation learning consumes.
"""

from autoeda import synth
from autoeda.env import replay, walk
from autoeda.tabular import display_fingerprint
from autoeda.train import derive_rng

rng = derive_rng(3, 4, 1)
patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, 2, rng)
dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                  cap=2, n_edges=3)
dataset = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag, 1000, 5.0, rng)
sessions = synth.generate_expert_trajectories(dataset, patterns, dag,
                                              derive_rng(3, 5, 1),
                                              n_trajectories=2)

traj = sessions[0]
print(f"one expert session over {dataset.name} ({len(traj.actions)} actions):")
for action in traj.actions:
    print("   ", action)

records, final = replay(dataset, traj.actions)
print("\nreplay:")
print("  state vector length:", records[0].state.shape[0])
print("  action vector length:", records[0].action_vec.shape[0])
print("  display stack ends at the root:", len(final.display_stack) == 1)
print("  episode finished:", final.done)

# the stack trace: depth after each action
states = walk(dataset, traj.actions)
print("  stack depth trace:", [len(s.display_stack) for s in states[1:]])
print("  distinct views visited:",
      len({display_fingerprint(d) for d in states[-1].history}))
