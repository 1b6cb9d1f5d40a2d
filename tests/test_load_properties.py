"""Property tests: the columns-only loader and `Dataset` encoding against the
row-tuple reference in `tabular_reference.py`, and the array-based KL
divergence, on histograms built from value -> share dicts, against the
loop in `measures_reference.py` over those dicts, compared bit for bit."""

import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import measures_reference
import tabular_reference as ref
from autoeda.env import walk
from autoeda.measures import kl_divergence
from autoeda.tabular import (ColumnKind, Dataset, canonical_number,
                             column_histogram, load_dataset)

# strings that parse to one number ("1", "1.0", "01", " 1"; "0", "-0"; "1e3",
# "1000"), strings that do not ("inf", "nan"), and text with a comma, a
# newline or quotes that the writer has to quote
CSV_CELLS = ["", "1", "1.0", "01", " 1", "1 ", "0", "-0", "-0.0", "1e3", "1000",
             "2.5", "inf", "nan", "a", "b", "A", " ", "a,b", "x\ny", 'say "hi"']
NAMES = ["a", "b", "c", ""]
KINDS = [k.value for k in ColumnKind]


def outcome(fn):
    """("ok", value) or ("error", message) of a call that may raise
    ValueError."""
    try:
        return "ok", fn()
    except ValueError as exc:
        return "error", str(exc)


def observed(ds):
    """Kinds, dictionaries by repr (so 0.0 and -0.0 and "1" and 1.0 differ),
    codes, row count and dictionary texts by repr of a `Dataset`."""
    return (ds.columns, [list(map(repr, d.tolist())) for d in ds.dictionaries],
            ds.codes.tolist(), ds.row_count,
            [list(map(repr, t.tolist())) for t in ds.texts])


def expected(encoded):
    """`observed` of the reference encoding; an entry's text is its
    `canonical_number` in a numeric column, the string itself otherwise,
    and "" for null."""
    columns, dictionaries, codes, n_rows = encoded
    texts = [["" if v is None else canonical_number(v)
              if kind is ColumnKind.NUMERIC else v for v in d]
             for (_, kind), d in zip(columns, dictionaries)]
    return (columns, [list(map(repr, d)) for d in dictionaries], codes, n_rows,
            [list(map(repr, t)) for t in texts])


@st.composite
def csv_texts(draw):
    """CSV text written by `csv.writer`, sometimes with a row one cell short
    or long, or raw text over a few characters that matter to the parser."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet='a1-0.e,"\n\r ', max_size=40))
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(st.sampled_from(CSV_CELLS), min_size=width,
                                  max_size=width), max_size=14))
    if rows and draw(st.integers(0, 5)) == 0:
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["1"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


LOAD_CASES = st.tuples(
    csv_texts(),
    st.one_of(st.none(), st.dictionaries(st.sampled_from(NAMES + ["zz"]),
                                         st.sampled_from(KINDS), max_size=3)),
    st.sampled_from([1, 2, 20]),
    st.sampled_from([0.05, 0.5]))


def load_both(text, schema=None, max_categorical=20, categorical_fraction=0.05):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, newline="")
        kwargs = dict(schema=schema, max_categorical=max_categorical,
                      categorical_fraction=categorical_fraction)
        return (outcome(lambda: observed(load_dataset(path, **kwargs))),
                outcome(lambda: expected(ref.load_dataset(path, **kwargs))))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(LOAD_CASES)
@example(("a,b\n", None, 20, 0.05))
@example(("", None, 20, 0.05))
@example(("\n", None, 20, 0.05))
@example(("n,m\n0,-0\n-0,0\n0,-0\n", None, 20, 0.05))
@example(("a,b\n1,1\n2,x\ny,3\n", {"a": "numeric", "b": "numeric"}, 20, 0.05))
def test_load_matches_row_reference(case):
    """Kinds, dictionaries, codes, row count and every error message equal
    the row-tuple loader's, with and without a schema."""
    got, want = load_both(*case)
    assert got == want


def test_load_keeps_the_first_zero_in_row_order():
    assert load_both("n\n0\n-0\n")[0][1][1] == [["0.0", "None"]]
    assert load_both("n\n-0\n0\n")[0][1][1] == [["-0.0", "None"]]
    got, _ = load_both('n\n1\n1.0\n01\n 1\n1e3\n1000\n""\n')
    assert got[1][1:3] == ([["1.0", "1000.0", "None"]], [[0, 0, 0, 0, 1, 1, 2]])


def test_an_oversized_field_names_its_row():
    """A field over the csv module's size limit is a ValueError naming its
    row, as the reference's is; a row before it that is one cell short is
    reported first, and one after it is not."""
    big = "x" * (csv.field_size_limit() + 1)
    reason = f"field larger than field limit ({csv.field_size_limit()})"
    for text, message in (
            (f"{big}\n1\n", f"the header row: {reason}"),
            (f"a\n1\n{big}\n", f"row 2: {reason}"),
            (f"a,b\n1,2\n3,{big}\n4\n", f"row 2: {reason}"),
            (f"a,b\n1\n3,{big}\n", "row 1 has 1 cells, expected 2")):
        got, want = load_both(text)
        assert got == want == ("error", message)


def test_load_error_names_the_first_bad_row_then_column():
    got, want = load_both("a,b\n1,1\n2,x\ny,3\n", {"a": "numeric", "b": "numeric"})
    assert got == want
    assert got[1].endswith("row 2, column 'b': non-numeric cell 'x' in numeric column")


TYPED_CELLS = [None, 0.0, -0.0, 1.0, 1, 2.5, -3.0, True, math.nan, math.inf,
               "a", "b", "-0", ""]


@st.composite
def typed_tables(draw):
    kinds = draw(st.lists(st.sampled_from(list(ColumnKind)), min_size=1, max_size=3))
    columns = [(f"c{i}", k) for i, k in enumerate(kinds)]
    rows = draw(st.lists(st.lists(st.sampled_from(TYPED_CELLS), min_size=len(kinds),
                                  max_size=len(kinds)), max_size=12))
    if rows and draw(st.integers(0, 5)) == 0:
        rows[-1] = rows[-1][:-1]
    return columns, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(typed_tables())
@example(([("n", ColumnKind.NUMERIC)], [[-0.0], [0.0], [None], [0.0]]))
@example(([("n", ColumnKind.NUMERIC), ("n", ColumnKind.TEXT)], [[1.0, "a"]]))
def test_dataset_encoding_matches_row_reference(table):
    """`Dataset(name, columns, rows)` gives the row-tuple dictionaries and
    codes, and raises the same errors for the same first cell."""
    columns, rows = table
    got = outcome(lambda: observed(Dataset("t", columns, rows)))
    want = outcome(lambda: expected(ref.encode("t", columns, rows)))
    assert got == want


# ---------------------------------------------------------------------------
# KL divergence

KEYS = st.one_of(st.text(alphabet="ab1.", max_size=2),
                 st.sampled_from([0.0, 1.0, 2.5, -1.0]))
MASSES = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-12, 1e-3),
                   st.floats(-1.0, 0.0))
HISTOGRAMS = st.dictionaries(KEYS, MASSES, max_size=60)


def both_kl(p, q, eps):
    got = outcome(lambda: kl_divergence(*measures_reference.histograms(p, q), eps))
    want = outcome(lambda: measures_reference.kl_divergence(p, q, eps))
    return repr(got), repr(want)  # repr tells every float's bits apart


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(HISTOGRAMS, st.one_of(HISTOGRAMS, st.just({})),
       st.sampled_from([1e-6, 1e-3, 0.5, 2.0]))
@example({}, {"a": 1.0}, 1e-6)
@example({"a": 0.0, 1.0: -0.5}, {}, 1e-6)
@example({"a": 0.5, 1.0: 0.5}, {"1.0": 0.5, "b": 0.5}, 1e-6)
def test_kl_matches_the_loop_bit_for_bit(p, q, eps):
    """Zero and negative masses, disjoint supports, empty sides and mixed
    str/float keys give the loop's value, bit for bit."""
    got, want = both_kl(p, q, eps)
    assert got == want
    got, want = both_kl(q, p, eps)
    assert got == want


def test_kl_matches_the_loop_on_expert_views(synthetic_bundle):
    """Every column's histogram pair of every step of the synthetic expert
    sessions, both directions."""
    ds, _, _, trajectories = synthetic_bundle
    for traj in trajectories:
        states = list(walk(ds, traj.actions))
        for before, after in zip(states, states[1:]):
            for col in ds.column_names:
                p = column_histogram(before.current, col)
                q = column_histogram(after.current, col)
                assert kl_divergence(p, q) == measures_reference.kl_divergence(p, q)
                assert kl_divergence(q, p) == measures_reference.kl_divergence(q, p)
