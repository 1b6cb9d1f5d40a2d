"""
Synthetic datasets with injected correlations
=============================================

Every column gets weighted value patterns; an acyclic set of cross-column
links multiplies a destination pattern's weight whenever its source pattern
fired in the same row. The effect is measurable as a conditional lift.
"""

from collections import Counter

from autoeda import synth
from autoeda.train import derive_rng

rng = derive_rng(1, 4, 1)
patterns = synth.generate_patterns(synth.DEFAULT_SCHEMA, n_patterns=2, rng=rng)
dag = synth.generate_correlations(synth.DEFAULT_SCHEMA, patterns, rng,
                                  cap=2, n_edges=4, links_per_edge=1)
print("columns in generation order:", dag.columns)
print("correlations:")
for edge in dag.edges:
    print(f"  {edge.src_col} -> {edge.dst_col}  pattern links {edge.links}")

dataset = synth.populate_rows(synth.DEFAULT_SCHEMA, patterns, dag,
                              n_rows=5000, m=5.0, rng=rng)
print(f"\ngenerated {dataset.row_count} rows x {len(dataset.columns)} columns")
print("first row:", tuple(values[codes[0]]
                         for values, codes in zip(dataset.dictionaries, dataset.codes)))

# measure the lift of the first categorical-to-categorical link, if any
for edge in dag.edges:
    src_kind = dataset.kind_of(edge.src_col)
    dst_kind = dataset.kind_of(edge.dst_col)
    if src_kind.value != "categorical" or dst_kind.value != "categorical":
        continue
    si, di = edge.links[0]
    src_val = patterns[[c.column for c in patterns].index(edge.src_col)].patterns[si].value
    dst_val = patterns[[c.column for c in patterns].index(edge.dst_col)].patterns[di].value
    s_idx = dataset.column_index(edge.src_col)
    d_idx = dataset.column_index(edge.dst_col)
    # a row's cell is its column's dictionary entry at the row's code
    src_hit = dataset.dictionaries[s_idx][dataset.codes[s_idx]] == src_val
    dst_hit = dataset.dictionaries[d_idx][dataset.codes[d_idx]] == dst_val
    joint = Counter(zip(src_hit.tolist(), dst_hit.tolist()))
    p_hit = joint[(True, True)] / max(1, joint[(True, True)] + joint[(True, False)])
    p_other = joint[(False, True)] / max(1, joint[(False, True)] + joint[(False, False)])
    print(f"\nlink {edge.src_col}={src_val} boosts {edge.dst_col}={dst_val}:")
    print(f"  P(dst | src fired)     = {p_hit:.3f}")
    print(f"  P(dst | src not fired) = {p_other:.3f}")
    print(f"  lift                   = {p_hit / max(p_other, 1e-9):.2f}")
    break
else:
    print("\n(no categorical-to-categorical link this seed; rerun with another)")
