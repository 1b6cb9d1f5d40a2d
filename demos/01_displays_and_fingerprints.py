"""
Datasets, displays and fingerprints
===================================

A Display is what sits on screen after applying filters and a grouping to a
dataset. This walkthrough builds a small table, pushes a few operations and
shows how two routes to the same view share one canonical fingerprint.
"""

from autoeda.tabular import (ColumnKind, Dataset, FilterPredicate, Grouping,
                             apply_filter, apply_group, column_histogram,
                             display_fingerprint, initial_display)

orders = Dataset("orders", [
    ("region", ColumnKind.CATEGORICAL),
    ("amount", ColumnKind.NUMERIC),
    ("note", ColumnKind.TEXT),
], [
    ["north", 120.0, "rush order"],
    ["north", 80.0, "standard"],
    ["south", 200.0, "rush order"],
    ["south", 50.0, None],
    ["east", 75.0, "gift wrap"],
    ["east", 75.0, "standard"],
    ["north", None, "standard"],
])

d0 = initial_display(orders)
print("initial rows:", d0.row_count)
print("region histogram:", dict(column_histogram(d0, "region")))

# filter, then group: one group row per region with the amount total
narrowed = apply_filter(d0, FilterPredicate("amount", "NEQ", "50"))
grouped = apply_group(narrowed, Grouping("region", "amount", "SUM"))
print("\ngrouped view (region, total):")
for key, total in grouped.group_rows:
    print(f"  {key!r:10} {total}")
print("group sizes sum to the filtered row count:",
      sum(grouped.group_sizes) == narrowed.row_count)

# the same view reached in a different filter order fingerprints identically
p1 = FilterPredicate("region", "NEQ", "south")
p2 = FilterPredicate("amount", "EQ", "75")
route_a = apply_filter(apply_filter(d0, p1), p2)
route_b = apply_filter(apply_filter(d0, p2), p1)
print("\nfingerprints equal across filter orders:",
      display_fingerprint(route_a) == display_fingerprint(route_b))
print("fingerprint:", display_fingerprint(route_a))

# numeric terms canonicalize, so "75" and "75.0" are one predicate
alt = apply_filter(apply_filter(d0, p1),
                   FilterPredicate("amount", "EQ", "75.0"))
print("canonical decimal terms:",
      display_fingerprint(alt) == display_fingerprint(route_a))
