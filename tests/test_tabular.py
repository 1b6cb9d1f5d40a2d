import csv
import itertools
import math
from collections import Counter

import pytest

from autoeda import tabular
from autoeda.tabular import (ColumnKind, Dataset, FilterPredicate, Grouping,
                             apply_filter, apply_group, canonical_number,
                             column_histogram, display_fingerprint,
                             initial_display, load_dataset, load_schema_sidecar,
                             write_dataset, write_schema_sidecar)
from autoeda.env import ActionSpec, encode_display, walk
from row_engine import dataset_rows


def fp(column, op, term):
    return FilterPredicate(column, op, term)


def rows_of(display):
    """The display's rows as dataset row tuples."""
    rows = dataset_rows(display.dataset)
    return tuple(rows[i] for i in display.rows)


# ---------------------------------------------------------------------------
# loading and kind inference

def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_synthetic_shape(tmp_path, synthetic_dataset):
    csv_path = tmp_path / "ds1.csv"
    write_dataset(synthetic_dataset, csv_path)
    write_schema_sidecar(synthetic_dataset, tmp_path / "ds1.schema.json")
    schema = load_schema_sidecar(tmp_path / "ds1.schema.json")
    ds = load_dataset(csv_path, schema={c: k.value for c, k in schema.items()})
    assert ds.row_count == 1000
    kinds = Counter(k for _, k in ds.columns)
    assert kinds[ColumnKind.CATEGORICAL] == 3
    assert kinds[ColumnKind.NUMERIC] == 3
    assert kinds[ColumnKind.TEXT] == 2


def test_load_inference_matches_declared_kinds(tmp_path, synthetic_dataset):
    # inference alone recovers the synthetic schema (few categories, unique text)
    csv_path = tmp_path / "ds1.csv"
    write_dataset(synthetic_dataset, csv_path)
    ds = load_dataset(csv_path)
    assert tuple(ds.columns) == tuple(synthetic_dataset.columns)


def test_load_header_only(tmp_path):
    ds = load_dataset(_write(tmp_path, "a,b,c\n"))
    assert ds.row_count == 0
    assert ds.column_names == ("a", "b", "c")


def test_load_mixed_numeric_column_is_text(tmp_path):
    # oracle: not all cells parse as numbers, but some do -> messy text
    path = _write(tmp_path, "v\n1\n2\nx\n")
    ds = load_dataset(path)
    assert ds.kind_of("v") is ColumnKind.TEXT
    assert dataset_rows(ds)[0][0] == "1"


def test_load_inference_thresholds(tmp_path):
    rows = "\n".join(f"w{i % 4},u{i}" for i in range(100))
    ds = load_dataset(_write(tmp_path, "few,many\n" + rows + "\n"))
    assert ds.kind_of("few") is ColumnKind.CATEGORICAL
    assert ds.kind_of("many") is ColumnKind.TEXT


def test_load_errors(tmp_path):
    with pytest.raises(ValueError, match="row 2"):
        load_dataset(_write(tmp_path, "a,b\n1,2\n3\n"))
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(_write(tmp_path, "a,a\n1,2\n"))
    with pytest.raises(ValueError, match="header"):
        load_dataset(_write(tmp_path, ""))
    with pytest.raises(OSError):
        load_dataset(tmp_path / "missing.csv")
    # a schema naming a column the header does not, such as a misspelt one
    with pytest.raises(tabular.UnknownSchemaColumn,
                       match=r"^schema names column\(s\) not in the header: "
                             r"'zz', 'c'$"):
        load_dataset(_write(tmp_path, "a,b\n1,2\n"),
                     schema={"zz": "text", "a": "numeric", "c": "text"})


def test_nulls_load_as_none(tmp_path):
    ds = load_dataset(_write(tmp_path, "a,b\n1,\n,x\n"),
                      schema={"a": "numeric", "b": "text"})
    assert dataset_rows(ds) == ((1.0, None), (None, "x"))


def test_csv_round_trip(tmp_path, toy):
    write_dataset(toy, tmp_path / "toy.csv")
    write_schema_sidecar(toy, tmp_path / "toy.schema.json")
    schema = {c: k.value for c, k in
              load_schema_sidecar(tmp_path / "toy.schema.json").items()}
    back = load_dataset(tmp_path / "toy.csv", schema=schema)
    assert dataset_rows(back) == dataset_rows(toy)
    assert tuple(back.columns) == tuple(toy.columns)


def test_write_dataset_matches_a_row_by_row_writer(tmp_path, toy):
    """Dictionary entries formatted once and gathered by code give the bytes
    that formatting every cell of every row gives."""
    odd = Dataset("odd", [("n", ColumnKind.NUMERIC), ("t", ColumnKind.TEXT)], [
        [-0.0, 'say "hi", twice'], [0.0, "line\nbreak"], [2.5, None],
        [1e20, ""], [None, "a,b"], [-3.0, 'say "hi", twice']])
    for ds in (toy, odd):
        write_dataset(ds, tmp_path / "fast.csv")
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ds.column_names)
            for row in dataset_rows(ds):
                writer.writerow(["" if cell is None else
                                 canonical_number(cell) if kind is ColumnKind.NUMERIC
                                 else cell
                                 for cell, (_, kind) in zip(row, ds.columns)])
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes()), ds.name


# ---------------------------------------------------------------------------
# filtering

def test_filter_eq_no_match_is_empty(toy):
    d = apply_filter(initial_display(toy), fp("color", "EQ", "purple"))
    assert d.row_count == 0
    assert len(d.filters) == 1


def test_filter_neq_absent_value_keeps_rows(toy):
    d0 = initial_display(toy)
    d = apply_filter(d0, fp("color", "NEQ", "purple"))
    assert rows_of(d) == rows_of(d0)
    assert len(d.filters) == 1


def test_filter_contains_matches_brute_force(toy):
    d = apply_filter(initial_display(toy), fp("note", "CONTAINS", "alpha"))
    expected = tuple(r for r in dataset_rows(toy) if r[2] is not None and "alpha" in r[2])
    assert rows_of(d) == expected
    assert d.row_count == 3


@pytest.mark.parametrize("op,term,col,expected_fn", [
    ("EQ", "3", 1, lambda c: c == 3.0),
    ("NEQ", "3", 1, lambda c: c != 3.0),  # nulls satisfy NEQ
    ("STARTS_WITH", "be", 2, lambda c: c is not None and c.startswith("be")),
    ("ENDS_WITH", "nine", 2, lambda c: c is not None and c.endswith("nine")),
])
def test_filter_ops_against_row_scan(toy, op, term, col, expected_fn):
    d = apply_filter(initial_display(toy), fp(toy.column_names[col], op, term))
    rows = dataset_rows(toy)
    if op == "EQ":
        expected = tuple(r for r in rows if r[col] is not None and expected_fn(r[col]))
    elif op == "NEQ":
        expected = tuple(r for r in rows if r[col] is None or expected_fn(r[col]))
    else:
        expected = tuple(r for r in rows if expected_fn(r[col]))
    assert rows_of(d) == expected


def test_string_ops_on_numeric_use_canonical_text(toy):
    d = apply_filter(initial_display(toy), fp("score", "CONTAINS", "5"))
    assert {r[1] for r in rows_of(d)} == {5.0}
    d = apply_filter(initial_display(toy), fp("score", "STARTS_WITH", "3"))
    assert {r[1] for r in rows_of(d)} == {3.0}


def test_filter_unknown_column(toy):
    with pytest.raises(ValueError, match="unknown column"):
        apply_filter(initial_display(toy), fp("nope", "EQ", "x"))


def test_filter_idempotent(toy):
    pred = fp("color", "EQ", "red")
    once = apply_filter(initial_display(toy), pred)
    twice = apply_filter(once, pred)
    assert rows_of(twice) == rows_of(once)


def test_filter_order_commutes(toy):
    p1, p2 = fp("color", "NEQ", "red"), fp("score", "EQ", "3")
    d0 = initial_display(toy)
    a = apply_filter(apply_filter(d0, p1), p2)
    b = apply_filter(apply_filter(d0, p2), p1)
    assert sorted(map(repr, rows_of(a))) == sorted(map(repr, rows_of(b)))
    assert display_fingerprint(a) == display_fingerprint(b)


def test_filter_regroups_underlying_rows(toy):
    grouped = apply_group(initial_display(toy), Grouping("color", "score", "COUNT"))
    narrowed = apply_filter(grouped, fp("score", "EQ", "3"))
    assert narrowed.grouping == grouped.grouping
    assert sum(narrowed.group_sizes) == narrowed.row_count == 3
    assert narrowed.group_count == 2  # blue and green remain


# ---------------------------------------------------------------------------
# grouping

def test_group_single_value_column(toy):
    one = apply_filter(initial_display(toy), fp("color", "EQ", "red"))
    d = apply_group(one, Grouping("color", "score", "COUNT"))
    assert d.group_count == 1
    assert d.group_sizes == (one.row_count,)


def test_group_sum_matches_brute_force(toy):
    d = apply_group(initial_display(toy), Grouping("color", "score", "SUM"))
    expected = {}
    for color, score, _ in dataset_rows(toy):
        expected.setdefault(color, []).append(score)
    for key, agg in d.group_rows:
        nums = [s for s in expected[key] if s is not None]
        assert agg == pytest.approx(sum(nums)) if nums else agg is None


def test_group_mean_all_null_group(toy):
    # the blue/None row is the only score-null; isolate it
    d = apply_filter(initial_display(toy), fp("note", "CONTAINS", "four"))
    g = apply_group(d, Grouping("color", "score", "MEAN"))
    assert g.group_rows == (("blue", None),)


def test_group_sizes_sum_to_rowcount(toy):
    d = apply_filter(initial_display(toy), fp("score", "NEQ", "2"))
    g = apply_group(d, Grouping("color", "score", "MAX"))
    assert sum(g.group_sizes) == d.row_count


def test_group_replaces_previous_grouping(toy):
    d = apply_group(initial_display(toy), Grouping("color", "score", "COUNT"))
    d = apply_group(d, Grouping("note", "score", "COUNT"))
    assert d.grouping.grp_col == "note"


def test_group_null_keys_form_a_group(toy):
    d = apply_group(initial_display(toy), Grouping("color", "score", "COUNT"))
    assert d.group_keys[-1] is None
    assert d.group_sizes[-1] == 1


def test_group_numeric_agg_on_text_rejected(toy):
    with pytest.raises(ValueError, match="numeric"):
        apply_group(initial_display(toy), Grouping("color", "note", "SUM"))
    # COUNT is fine on any column
    apply_group(initial_display(toy), Grouping("color", "note", "COUNT"))


def test_min_max_aggregates(toy):
    d = apply_group(initial_display(toy), Grouping("color", "score", "MIN"))
    by_key = dict(d.group_rows)
    assert by_key["red"] == 1.0 and by_key["blue"] == 2.0
    d = apply_group(initial_display(toy), Grouping("color", "score", "MAX"))
    assert dict(d.group_rows)["red"] == 8.0


# ---------------------------------------------------------------------------
# row sets

def test_views_that_show_the_same_rows_share_one_row_set(toy):
    """A GROUP view and a FILTER view that keeps every row share their
    parent's row set; a FILTER that drops a row starts its own. A view's
    row filters are its filters without those that kept every row."""
    root = initial_display(toy)
    g = Grouping("color", "score", "SUM")
    grouped = apply_group(root, g)
    kept = apply_filter(root, fp("color", "NEQ", "purple"))
    dropped = apply_filter(root, fp("score", "NEQ", "1"))
    assert grouped._rowset is root._rowset
    assert kept._rowset is root._rowset
    assert apply_filter(grouped, fp("note", "NEQ", "x"))._rowset is root._rowset
    assert dropped.row_count == root.row_count - 1
    assert dropped._rowset is not root._rowset
    assert apply_group(dropped, g)._rowset is dropped._rowset
    emptied = apply_filter(root, fp("color", "EQ", "purple"))
    assert apply_filter(emptied, fp("score", "EQ", "1"))._rowset is emptied._rowset
    deeper = apply_filter(apply_filter(kept, fp("score", "NEQ", "1")),
                          fp("note", "NEQ", "x"))
    assert root.row_filters == grouped.row_filters == kept.row_filters == ()
    assert deeper.row_filters == dropped.row_filters == (fp("score", "NEQ", "1"),)
    assert len(deeper.filters) == 3
    assert deeper.rows.tolist() == dropped.rows.tolist()


def test_a_grouping_is_computed_once_per_row_set(toy, monkeypatch):
    """Retaking a grouping on a row set, at the root or through a FILTER
    that keeps every row, reads its group table; another grouping, and
    the same grouping on other rows, compute their own."""
    computed = []
    compute = tabular._compute_groups

    def counted(dataset, rows, grouping):
        computed.append(grouping)
        return compute(dataset, rows, grouping)

    monkeypatch.setattr(tabular, "_compute_groups", counted)
    root = initial_display(toy)
    by_sum, by_mean = (Grouping("color", "score", f) for f in ("SUM", "MEAN"))
    first = apply_group(root, by_sum)
    again = apply_group(root, by_sum)
    kept = apply_filter(first, fp("color", "NEQ", "purple"))
    apply_group(apply_filter(root, fp("note", "NEQ", "x")), by_sum)
    assert computed == [by_sum]
    assert again.group_rows == kept.group_rows == first.group_rows
    mean = apply_group(root, by_mean)
    assert mean.group_rows != first.group_rows
    apply_group(apply_filter(root, fp("color", "EQ", "red")), by_sum)
    assert computed == [by_sum, by_mean, by_sum]


def test_the_dataset_keeps_its_root_row_set(toy, monkeypatch):
    """Every root view shows the dataset's one row set, also when no view
    of the dataset is held between two calls, so a grouping taken at the
    root in two separate session walks is computed once."""
    assert initial_display(toy)._rowset is initial_display(toy)._rowset
    computed = []
    compute = tabular._compute_groups

    def counted(dataset, rows, grouping):
        computed.append(grouping)
        return compute(dataset, rows, grouping)

    monkeypatch.setattr(tabular, "_compute_groups", counted)
    group = ActionSpec("GROUP", group=Grouping("color", "score", "SUM"))
    walk(toy, [group])
    walk(toy, [group])
    assert computed == [group.group]


def test_cached_row_statistics_are_read_only(toy):
    """The summary arrays and the encoding a row set hands to every view
    that shares it cannot be written through any of them; a grouped view's
    own encoding, patched from a copy, cannot be written either."""
    d = apply_filter(initial_display(toy), fp("color", "NEQ", "red"))
    grouped = apply_group(d, Grouping("color", "score", "COUNT"))
    kept = apply_filter(d, fp("color", "NEQ", "purple"))
    assert grouped._summarize() is d._summarize()
    assert encode_display(kept, toy) is encode_display(d, toy)
    assert encode_display(grouped, toy) is not encode_display(d, toy)
    for array in (*d._summarize(), encode_display(d, toy),
                  encode_display(grouped, toy)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    _, counts, _ = d.column_stats(1)
    with pytest.raises(ValueError):
        counts[0] = 0


def same_histogram(a, b):
    """Equal dictionary (the same array), codes and shares, share by share
    in order and bit for bit."""
    return (a.dictionary is b.dictionary
            and repr((a.codes.tolist(), a.shares.tolist()))
            == repr((b.codes.tolist(), b.shares.tolist())))


def test_a_histogram_is_shared_by_the_views_of_its_row_set(toy):
    """A GROUP view, a FILTER that keeps every row and their parent give
    equal read-only histograms per column, except for the grouped column,
    whose histogram comes from the groups; a FILTER that drops rows gives
    its own."""
    root = initial_display(toy)
    grouped = apply_group(root, Grouping("color", "score", "SUM"))
    kept = apply_filter(grouped, fp("note", "NEQ", "x"))
    for col in ("score", "note"):
        hist = column_histogram(root, col)
        assert same_histogram(column_histogram(grouped, col), hist)
        assert same_histogram(column_histogram(kept, col), hist)
    by_value = column_histogram(root, "color")
    by_group = column_histogram(grouped, "color")
    assert by_group != by_value and not same_histogram(by_group, by_value)
    assert same_histogram(column_histogram(kept, "color"), by_group)
    assert same_histogram(column_histogram(root, "color"), by_value)
    dropped = apply_filter(root, fp("score", "NEQ", "1"))
    assert not same_histogram(column_histogram(dropped, "score"),
                              column_histogram(root, "score"))
    for hist in (by_value, column_histogram(dropped, "score"),
                 column_histogram(apply_filter(root, fp("color", "EQ", "purple")),
                                  "color")):
        with pytest.raises(TypeError):
            hist["red"] = 1.0
        with pytest.raises(TypeError):
            del hist[next(iter(hist), "red")]


# ---------------------------------------------------------------------------
# fingerprints

def test_fingerprint_filter_order_insensitive(toy):
    p1, p2 = fp("color", "EQ", "red"), fp("score", "NEQ", "3")
    a = apply_filter(apply_filter(initial_display(toy), p1), p2)
    b = apply_filter(apply_filter(initial_display(toy), p2), p1)
    assert display_fingerprint(a) == display_fingerprint(b)


def test_fingerprint_canonical_decimals(toy):
    a = apply_filter(initial_display(toy), fp("score", "EQ", "5"))
    b = apply_filter(initial_display(toy), fp("score", "EQ", "5.0"))
    assert display_fingerprint(a) == display_fingerprint(b)


def test_fingerprint_term_whitespace(toy):
    a = apply_filter(initial_display(toy), fp("color", "EQ", "red"))
    b = apply_filter(initial_display(toy), fp("color", "EQ", " red "))
    assert display_fingerprint(a) == display_fingerprint(b)


def test_fingerprint_agg_func_distinguishes(toy):
    a = apply_group(initial_display(toy), Grouping("color", "score", "SUM"))
    b = apply_group(initial_display(toy), Grouping("color", "score", "MEAN"))
    assert display_fingerprint(a) != display_fingerprint(b)


def test_fingerprint_count_ignores_agg_col(toy):
    a = apply_group(initial_display(toy), Grouping("color", "score", "COUNT"))
    b = apply_group(initial_display(toy), Grouping("color", "note", "COUNT"))
    assert a.group_rows == b.group_rows
    assert display_fingerprint(a) == display_fingerprint(b)


def test_fingerprint_injective_on_small_universe(toy):
    """Exhaustively: distinct normalized (filter set, grouping) -> distinct
    fingerprints."""
    preds = [fp("color", "EQ", "red"), fp("color", "NEQ", "red"),
             fp("score", "EQ", "3"), fp("note", "CONTAINS", "a")]
    groupings = [None, Grouping("color", "score", "SUM"),
                 Grouping("color", "score", "MEAN"),
                 Grouping("note", "score", "SUM")]
    seen = {}
    for r in range(3):
        for combo in itertools.permutations(preds, r):
            for g in groupings:
                d = initial_display(toy)
                for p in combo:
                    d = apply_filter(d, p)
                if g is not None:
                    d = apply_group(d, g)
                key = (frozenset(combo), g)
                fingerprint = display_fingerprint(d)
                if key in seen:
                    assert seen[key] == fingerprint
                else:
                    assert fingerprint not in set(seen.values())
                    seen[key] = fingerprint


# ---------------------------------------------------------------------------
# histograms

def test_histogram_uniform_pair():
    ds = Dataset("pair", [("c", ColumnKind.CATEGORICAL)],
                 [["a"], ["a"], ["b"], ["b"]])
    assert column_histogram(initial_display(ds), "c") == {"a": 0.5, "b": 0.5}


def test_histogram_empty_display(toy):
    d = apply_filter(initial_display(toy), fp("color", "EQ", "purple"))
    assert column_histogram(d, "color") == {}


def test_histogram_counting_oracle(synthetic_dataset):
    d = initial_display(synthetic_dataset)
    for col in synthetic_dataset.column_names:
        idx = synthetic_dataset.column_index(col)
        counter = Counter(r[idx] for r in dataset_rows(synthetic_dataset)
                          if r[idx] is not None)
        total = sum(counter.values())
        hist = column_histogram(d, col)
        assert hist == {v: c / total for v, c in counter.items()}
        assert math.isclose(sum(hist.values()), 1.0, abs_tol=1e-9)


def test_histogram_sums_to_one(toy):
    d = apply_filter(initial_display(toy), fp("score", "NEQ", "2"))
    for col in toy.column_names:
        hist = column_histogram(d, col)
        assert math.isclose(sum(hist.values()), 1.0, abs_tol=1e-9)


def test_histogram_grouped_column_uses_group_keys(toy):
    d = apply_group(initial_display(toy), Grouping("color", "score", "COUNT"))
    hist = column_histogram(d, "color")
    assert set(hist) == {"red", "blue", "green", None}
    assert all(math.isclose(v, 0.25) for v in hist.values())


# ---------------------------------------------------------------------------
# misc

def test_canonical_number():
    assert canonical_number(5.0) == "5"
    assert canonical_number(2.5) == "2.5"
    assert canonical_number(-0.0) == "0"
    assert float(canonical_number(0.1)) == 0.1


def test_dataset_invariants():
    with pytest.raises(ValueError, match="expected 2"):
        Dataset("bad", [("a", ColumnKind.TEXT), ("b", ColumnKind.TEXT)], [["x"]])
    with pytest.raises(ValueError, match="non-finite"):
        Dataset("bad", [("a", ColumnKind.NUMERIC)], [[float("inf")]])
    with pytest.raises(ValueError, match="numeric cell"):
        Dataset("bad", [("a", ColumnKind.NUMERIC)], [["text"]])
