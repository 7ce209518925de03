import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import letor_reference as ref
from plrank import data, errors
from plrank import (
    ParseError,
    ValidationError,
    dense_features,
    format_dataset,
    load_dataset,
    parse_dataset,
)


def assert_same_dataset(a, b):
    """Same table, grades and groups, bit for bit (-0.0 included)."""
    for x, y in ((a.features, b.features), (a.grades, b.grades)):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
    assert [(g.query_id, g.doc_ids.tolist()) for g in a.groups] == \
        [(g.query_id, g.doc_ids.tolist()) for g in b.groups]


def test_basic_line():
    ds = parse_dataset("2 qid:10 1:0.5 7:1.0")
    assert len(ds.groups) == 1
    group = ds.groups[0]
    assert group.query_id == 10
    assert group.relevances().tolist() == [2]
    assert ds.features.tolist() == [[0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]
    assert ds.max_feature_index == 7
    assert ds.max_grade == 2


def test_comment_and_negative_value():
    ds = parse_dataset("0 qid:1 3:-2.5 # doc-A")
    assert ds.grades.tolist() == [0]
    assert ds.features.tolist() == [[0.0, 0.0, -2.5]]


def test_empty_input():
    ds = parse_dataset("")
    assert ds.groups == []
    assert ds.max_feature_index == 0
    assert ds.max_grade == 0


def test_blank_and_comment_only_lines_skipped():
    ds = parse_dataset("\n# header comment\n1 qid:1 1:1.0\n\n")
    assert ds.num_documents == 1


def test_document_count_matches_lines():
    text = "\n".join(f"{i % 3} qid:{i % 2} 1:{i}.0" for i in range(10))
    ds = parse_dataset(text)
    assert ds.num_documents == 10


def test_noncontiguous_qid_blocks_merge():
    text = "1 qid:1 1:1.0\n0 qid:2 1:2.0\n2 qid:1 1:3.0\n"
    ds = parse_dataset(text)
    assert [g.query_id for g in ds.groups] == [1, 2]
    g1 = ds.groups[0]
    assert ds.features[g1.doc_ids, 0].tolist() == [1.0, 3.0]
    assert g1.doc_ids.tolist() == [0, 2]  # original line order retained


def test_crlf_lines():
    ds = parse_dataset(iter(["1 qid:1 1:1.0\r\n", "0 qid:1 2:2.0\r\n"]))
    assert ds.num_documents == 2
    assert ds.max_feature_index == 2


@pytest.mark.parametrize(
    "line",
    ["x qid:1 1:1.0", "1 qid:x 1:1.0", "1 1:1.0", "1 qid:1 1:abc", "1 qid:1 5",
     # int and float read "_" and non-ASCII digits: "1_0:0_5" once stored 5.0 in feature 10.
     "1 qid:1 1_0:0_5", "\u0663 qid:1 1:1.0", "1 qid:\u0661 1:1.0", "1\u2003qid:1 2:\uff15"],
)
def test_malformed_lines_raise_parse_error_with_lineno(line):
    with pytest.raises(ParseError) as exc:
        parse_dataset("0 qid:1 1:1.0\n" + line)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "line",
    [
        "-1 qid:1 1:1.0",       # negative grade
        "32 qid:1 1:1.0",       # grade above the cap
        "1 qid:1 0:1.0",        # feature index below 1
        "1 qid:1 2:1.0 2:3.0",  # duplicate feature index
        "1 qid:1 1:nan",        # non-finite value
    ],
)
def test_invalid_values_raise_validation_error(line):
    with pytest.raises(ValidationError):
        parse_dataset(line)


def test_round_trip():
    text = (
        "2 qid:10 1:0.5 7:1.0 # first\n"
        "0 qid:3 2:-0.25\n"
        "1 qid:10 4:1.5\n"
        "3 qid:3\n"
    )
    ds = parse_dataset(text)
    again = parse_dataset(format_dataset(ds))
    assert_same_dataset(again, ds)
    assert format_dataset(again) == format_dataset(ds)


def test_dense_features_fill():
    ds = parse_dataset("1 qid:1 1:0.5")
    mat = dense_features(ds.groups[0], 3)
    assert mat.tolist() == [[0.5, 0.0, 0.0]]


def test_dense_features_two_docs():
    ds = parse_dataset("0 qid:1\n1 qid:1 2:1.0")
    mat = dense_features(ds.groups[0], 2)
    assert mat.tolist() == [[0.0, 0.0], [0.0, 1.0]]


def test_dense_features_zero_width():
    ds = parse_dataset("0 qid:1")
    mat = dense_features(ds.groups[0], 0)
    assert mat.shape == (1, 0)


def test_dense_features_width_too_small():
    ds = parse_dataset("0 qid:1 4:1.0")
    with pytest.raises(ValidationError):
        dense_features(ds.groups[0], 3)


def test_dense_features_exact_sparsity():
    rng = np.random.default_rng(5)
    lines = []
    expected = []
    for i in range(20):
        feats = {int(j): float(rng.normal()) for j in rng.choice(9, size=4, replace=False) + 1}
        lines.append("1 qid:1 " + " ".join(f"{j}:{v!r}" for j, v in sorted(feats.items())))
        expected.append(feats)
    ds = parse_dataset("\n".join(lines))
    mat = dense_features(ds.groups[0], 9)
    for row, feats in zip(mat, expected):
        for j in range(1, 10):
            assert row[j - 1] == feats.get(j, 0.0)


def test_dense_features_dataset_and_groups_share_one_table():
    ds = parse_dataset("1 qid:2 2:0.5\n0 qid:1 1:-1.0\n2 qid:2 3:4.0\n")
    full = dense_features(ds, 5)
    assert full.tolist() == [[0.0, 0.5, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 4.0, 0.0, 0.0]]
    for group in ds.groups:
        assert dense_features(group, 5).tolist() == full[group.doc_ids].tolist()
    # The width check reads the dataset's max feature index, for groups too.
    with pytest.raises(ValidationError):
        dense_features(ds.groups[1], 2)


def test_dense_features_of_a_dataset_at_its_width_is_its_table_read_only():
    ds = parse_dataset("1 qid:2 2:0.5\n0 qid:1 1:-1.0\n")
    same = dense_features(ds, 2)
    assert np.shares_memory(same, ds.features) and same.tolist() == ds.features.tolist()
    with pytest.raises(ValueError, match="read-only"):
        same[0, 0] = 1.0
    assert ds.features.flags.writeable
    wider = dense_features(ds, 3)
    assert not np.shares_memory(wider, ds.features) and wider.flags.writeable
    assert not np.shares_memory(dense_features(ds.groups[0], 2), ds.features)


def test_dense_features_pads_a_dataset_with_one_copy_of_its_table():
    """A dataset read wider than its table is copied once, into the result,
    not first gathered through its row ids."""
    rng = np.random.default_rng(11)
    lines = [f"{i % 3} qid:{i // 20} " + " ".join(f"{j}:{v!r}" for j, v in
                                                  enumerate(rng.normal(size=40).tolist(), 1))
             for i in range(2000)]
    ds = parse_dataset("\n".join(lines))
    tracemalloc.start()
    try:
        wider = dense_features(ds, 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wider[:, :40].tobytes() == ds.features.tobytes() and not wider[:, 40].any()
    assert peak <= 1.2 * wider.nbytes


def test_load_dataset_reads_universal_newlines(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes(b"1 qid:1 1:1.0\r\n0 qid:1 2:2.0\r0 qid:2 1:3.0\n")
    ds = load_dataset(str(path))
    assert ds.features.tolist() == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]
    assert [g.doc_ids.tolist() for g in ds.groups] == [[0, 1], [2]]


@pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\x85", "\u2028", "\r", "\r\n"],
                         ids=["FF", "FS", "NEL", "LS", "CR", "CRLF"])
@pytest.mark.parametrize("template", [
    "1 qid:1 1:0.5{}2:0.25\n0 qid:1 1:0.1\n",  # inside a row
    "1 qid:1 1:0.5{}0 qid:1 2:0.25\n",  # between rows
], ids=["in-row", "between-rows"])
def test_string_and_file_split_lines_alike(tmp_path, separator, template):
    """A string splits at \\n, \\r and \\r\\n only, as a file does; other
    Unicode line breaks once split a string but not the same file's bytes."""
    text = template.format(separator)
    path = tmp_path / "data.txt"
    path.write_bytes(text.encode("utf-8"))
    from_file, from_string = _outcome(load_dataset, str(path)), _outcome(parse_dataset, text)
    assert from_string == from_file
    if from_file is None:
        assert_same_dataset(parse_dataset(text), load_dataset(str(path)))


def test_load_dataset_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes(b"1 qid:1 1:1.0\n0 qid:1 1:2.0 # caf\xe9\n")
    with pytest.raises(ParseError) as exc:
        load_dataset(str(path))
    assert exc.value.line == 2


@pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"], ids=["LF", "CR", "CRLF"])
def test_utf8_error_counts_every_line_end(tmp_path, newline):
    path = tmp_path / "data.txt"
    lines = [b"1 qid:1 1:1.0", b"0 qid:1 1:2.0", b"0 qid:1 1:3.0 # caf\xe9", b""]
    path.write_bytes(newline.join(lines))
    with pytest.raises(ParseError, match="is not UTF-8 text") as exc:
        load_dataset(str(path))
    assert exc.value.line == 3


def _universal_line(prefix: bytes) -> int:
    """The line a byte after ``prefix`` lies on, as a universal-newline reader counts."""
    return io.StringIO(prefix.decode("utf-8"), newline=None).read().count("\n") + 1


@pytest.mark.parametrize("block", [1, 2, 3, 5, 8])
def test_utf8_error_names_its_line_across_read_blocks(tmp_path, monkeypatch, block):
    """Short read blocks split \r\n pairs and multi-byte characters."""
    monkeypatch.setattr(errors, "_BLOCK", block)
    lines = [b"1 qid:1 1:1.0 # \xc3\xa9t\xc3\xa9", b"", b"0 qid:1 1:2.0 # \xe2\x82\xac", b"# x"]
    good = b"\r\n".join(lines) + b"\r" + b"\n".join(lines) + b"\r\r\n"
    path = tmp_path / "data.txt"
    path.write_bytes(good)
    assert load_dataset(str(path)).num_documents == 4
    for cut in range(len(good) + 1):
        if good[cut:cut + 1] and 0x80 <= good[cut] < 0xC0:
            continue  # inside a character
        for bad in (b"\xff", b"\xe2\x82"):  # a bad byte; a character cut short
            path.write_bytes(good[:cut] + bad + good[cut:])
            with pytest.raises(ParseError, match="is not UTF-8 text") as exc:
                load_dataset(str(path))
            assert exc.value.line == _universal_line(good[:cut]), (cut, bad)


def test_utf8_error_past_the_first_read_block(tmp_path):
    row = "0 qid:1 " + " ".join(f"{j}:0.5" for j in range(1, 47))
    text = ("\r\n".join([row] * 2000) + "\r\n").encode()
    assert len(text) > 2 * errors._BLOCK
    path = tmp_path / "data.txt"
    path.write_bytes(text + b"1 qid:1 1:0.5 # caf\xe9\r\n")
    with pytest.raises(ParseError, match="is not UTF-8 text") as exc:
        load_dataset(str(path))
    assert exc.value.line == 2001


def test_utf8_error_wins_over_an_earlier_malformed_line(tmp_path):
    """Every byte is checked before the first line is parsed."""
    path = tmp_path / "data.txt"
    path.write_bytes(b"x qid:1 1:1.0\n1 qid:1 1:2.0 # \xff\n")
    with pytest.raises(ParseError, match="is not UTF-8 text") as exc:
        load_dataset(str(path))
    assert exc.value.line == 2


@pytest.mark.parametrize("block", [1, 2, data._BLOCK_CHARS])
def test_malformed_line_wins_over_an_unallocatable_table(monkeypatch, block):
    """Every line is checked before the table is allocated, whatever the block size."""
    monkeypatch.setattr(data, "_BLOCK_CHARS", block)
    text = f"1 qid:1 {10**30}:0.5 2:1.0\n0 qid:1 1:0.25\n"
    with pytest.raises(ValidationError, match=f"2 documents x {10**30} features"):
        parse_dataset(text)
    with pytest.raises(ParseError) as exc:
        parse_dataset(text + "1 qid:1 1:x\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_chunked_parse_matches_one_chunk(monkeypatch, block):
    """Blocks down to one line each, and line 5's indices out of order."""
    text = ("2 qid:10 1:0.5 7:1.0 # first\n0 qid:3 2:-0.25\n\n3 qid:3\n"
            "1 qid:10 4:1.5 2:-0.0 3:5e-324\n0 qid:4 9:2.5\n1 qid:3\n")
    whole = parse_dataset(text)
    monkeypatch.setattr(data, "_BLOCK_CHARS", block)
    assert_same_dataset(parse_dataset(text), whole)


def test_block_of_uneven_lines_is_not_read_as_dense():
    """Its indices run 1 2 1 2 1 2, as three lines listing 1..2 would."""
    text = "1 qid:1 1:1 2:2\n1 qid:1 1:1 2:2 1:3\n1 qid:1 2:4\n"
    with pytest.raises(ValidationError, match="duplicate feature index 1") as exc:
        parse_dataset(text)
    assert exc.value.line == 2


def _parse_counting_refusals(text):
    """``parse_dataset(text)``, and how many blocks the block reader turned down."""
    read_block, refused = data._read_block, []

    def spy(lines):
        fields = read_block(lines)
        refused.append(fields is None)
        return fields

    with mock.patch.object(data, "_read_block", spy):
        return parse_dataset(text), sum(refused)


@pytest.mark.parametrize("bad_at", [5, 6, 7], ids=["first-in-block", "second", "third"])
@pytest.mark.parametrize("reader", ["block", "line"])
def test_malformed_line_after_a_block_boundary_names_its_line(monkeypatch, bad_at, reader):
    good = "1 qid:1 1:0.5 2:0.25\n"
    monkeypatch.setattr(data, "_BLOCK_CHARS", 2 * len(good))  # two lines a block
    if reader == "line":
        monkeypatch.setattr(data, "_read_block", lambda lines: None)
    lines = [good] * 8
    lines[bad_at - 1] = "1 qid:1 1:0.5 2:0.2x\n"  # as long as a good line
    assert [n for n, _ in data._blocks(lines)] == [1, 3, 5, 7]
    with pytest.raises(ParseError, match="bad feature token '2:0.2x'") as exc:
        parse_dataset("".join(lines))
    assert exc.value.line == bad_at


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("lead", ["", "   ", "# 1 qid:1 2:x"], ids=["blank", "spaces", "comment"])
def test_block_that_starts_with_a_blank_or_comment_line(monkeypatch, newline, lead):
    rows = ["2 qid:1 1:0.5 3:-0.0", "0 qid:2 2:1e-300", "1 qid:1 1:1 2:2 3:3"]
    lines = [rows[0], lead, rows[1], lead, lead, rows[2]]
    # A lead line alone is short of a block; a row ends one.
    monkeypatch.setattr(data, "_BLOCK_CHARS", len(lead + newline) + 1)
    blocks = list(data._blocks([line + newline for line in lines]))
    assert [len(block) for n, block in blocks] == [1, 2, 2, 1]
    assert [n for n, block in blocks if block[0] == lead + newline] == [2, 4]
    for source in ("string", "lines"):
        text = newline.join(lines) + newline
        ds, refused = _parse_counting_refusals(
            text if source == "string" else iter(text.splitlines(keepends=True)))
        assert refused == 0
        assert ds.features.tolist() == [[0.5, 0.0, -0.0], [0.0, 1e-300, 0.0], [1.0, 2.0, 3.0]]
        assert [(g.query_id, g.doc_ids.tolist()) for g in ds.groups] == [(1, [0, 2]), (2, [1])]
    lines[4] = "1 qid:1 1:0.5 1:0.5"  # a duplicate index, in a block led by line 4
    with pytest.raises(ValidationError, match="duplicate feature index 1") as exc:
        parse_dataset(newline.join(lines))
    assert exc.value.line == 5


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_crlf_file_is_read_a_block_at_a_time(tmp_path, newline):
    row = "0 qid:{} " + " ".join(f"{j}:0.{j}" for j in range(1, 47))
    rows = [row.format(i // 10).encode() for i in range(300)]
    path = tmp_path / "data.txt"
    path.write_bytes(newline.join(rows) + newline)
    with open(path, newline="") as lines, mock.patch.object(data, "_BLOCK_CHARS", 1000):
        ds, refused = _parse_counting_refusals(lines)
    assert refused == 0
    assert ds.features.shape == (300, 46) and len(ds.groups) == 30
    assert ds.features[7].tolist() == [float(f"0.{j}") for j in range(1, 47)]


def test_load_dataset_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    """Each block's rows are held as floats until the table is filled, not as Python objects."""
    rng = np.random.default_rng(3)
    fmt = "%d qid:%d " + " ".join(f"{j}:%.6f" for j in range(1, 47))
    rows = [fmt % (g, 1 + i // 60, *x) for i, (g, x) in
            enumerate(zip(rng.integers(0, 3, 3000).tolist(), rng.random((3000, 46)).tolist()))]
    path = tmp_path / "data.txt"
    path.write_text("\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        ds = load_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (3000, 46)
    assert peak <= 4 * ds.features.nbytes


@pytest.mark.parametrize("width, share", [(46, 1.0), (700, 0.05)], ids=["dense", "sparse"])
def test_parse_holds_at_most_two_and_a_half_tables(tmp_path, width, share):
    """Block rows plus the table, whatever share of the features a line lists."""
    rng = np.random.default_rng(5)
    listed = rng.random((3000, width)) < share
    listed[0, -1] = True  # the table is ``width`` wide
    rows = [f"{i % 3} qid:{1 + i // 60} " + " ".join(f"{j + 1}:{v:.6f}" for j, v in
                                                    zip(np.flatnonzero(m), rng.random(m.sum())))
            for i, m in enumerate(listed)]
    path = tmp_path / "data.txt"
    path.write_text("\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        ds = load_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.shape == (3000, width)
    assert peak <= 2.5 * ds.features.nbytes


def test_repeat_in_a_block_too_wide_to_allocate_names_its_line():
    """The block reader refuses rows it cannot allocate; the line reader still checks them."""
    text = f"1 qid:1 {10**15}:0.5 2:1.0\n0 qid:1 1:0.25 1:0.5\n"
    assert len(list(data._blocks(text.splitlines(keepends=True)))) == 1
    with pytest.raises(ValidationError, match="duplicate feature index 1") as exc:
        parse_dataset(text)
    assert exc.value.line == 2


def test_block_rows_that_cannot_be_allocated_leave_no_table(monkeypatch):
    """Rows refused for one block are never left out of a table that fits."""
    monkeypatch.setattr(data, "_scatter", lambda counts, indices, values, width: None)
    with pytest.raises(ValidationError, match="2 documents x 3 features cannot be allocated"):
        parse_dataset("1 qid:1 1:0.5 2:1.0 3:2.0\n0 qid:1 3:0.25\n")


@pytest.mark.parametrize("index", [10**15, 10**30])
def test_unallocatable_table_raises_validation_error(index):
    with pytest.raises(ValidationError, match=f"1 documents x {index} features"):
        parse_dataset(f"1 qid:1 {index}:0.5")


# Values the table must carry bit for bit: signed zeros, subnormals, extremes.
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
)
PLAIN_FILLER = ["", "   ", "# a comment", "\t# 1 qid:1 2:3"]
FILLER = st.sampled_from([*PLAIN_FILLER, "# 1_0 \u0663"])


@st.composite
def document_lines(draw, plain=False, dense=None):
    """One data line: absent features, any index order, maybe a comment.

    A ``plain`` line is ASCII without "_", as the block reader needs; a
    ``dense`` one lists 1..dense.
    """
    grade = draw(st.integers(0, 31))
    qid = draw(st.integers(0, 4))
    if dense is not None:
        indices = list(range(1, dense + 1))
    else:
        indices = draw(st.lists(st.integers(1, 9), unique=True, max_size=6))
    spell = draw(st.sampled_from([repr, lambda v: f"{v:.17g}", lambda v: f"{v:e}"]))
    tokens = [str(grade), f"qid:{qid}", *(f"{i}:{spell(draw(VALUES))}" for i in indices)]
    comments = ["", " # doc", "#x 1:2", *([] if plain else [" # 1_0:\u0663"])]
    comment = draw(st.sampled_from(comments))
    separators = [" ", "\t", "  ", *([] if plain else ["\u2003"])]
    return draw(st.sampled_from(separators)).join(tokens) + comment


# A line that breaks one rule, or two at once: the first in token order wins,
# and within a token the parse, index, duplicate and finiteness checks in turn.
BAD = [
    "x qid:1 1:1.0", "-1 qid:1 1:1.0", "32 qid:1", "1.5 qid:1", "1", "1 1:1.0",
    "1 qid:x", "1 QID:1 1:1.0", "1 qid:1 5", "1 qid:1 1:2:3", "1 qid:1 :5",
    "1 qid:1 a:1", "1 qid:1 1:", "1 qid:1 1:abc", "1 qid:1 0:1.0", "1 qid:1 -3:1.0",
    "1 qid:1 2:1.0 2:3.0", "1 qid:1 1:nan", "1 qid:1 2:inf", "1 qid:1 3:-inf",
    "1 qid:1 4:1e309", "1 qid:1 1:nan 2:x", "1 qid:1 1:0.5 1:x", "1 qid:1 2:x 1:nan",
    "1 qid:1 0:x", "1 qid:1 3:1.0 0:1.0 3:2.0", "1 qid:1 2:1.0 2:nan",
    # int and float read "_" between digits and non-ASCII digits; the format does not.
    "1_0 qid:1", "\u0663 qid:1 1:1.0", "1 qid:1_0 1:1.0", "1 qid:\u0661 1:1.0",
    "1 qid:1 1_0:0.5", "1 qid:1 1:0_5", "1 qid:1 1:\u0665", "1 qid:1\u20031:\uff15",
    "1 qid:1 1:nan 2:1_0", "1 qid:1 2:1_0 1:nan", "1 qid:1 1:0.5 1:\u0665 # n_\xe9",
    # Colons and spaces out of turn, repeats out of order, an overflow: lines the
    # block reader must refuse.
    "1 qid:1 1:0.5 2::3", "1 qid:1 1 :0.5", "1 qid:1 1: 0.5", "1 qid:1 1:0.5: 2:1",
    "1 qid: 1:0.5", "qid:1 1:0.5", "1 qid:1 2:0.5 1:0.5 1:0.5", "1 qid:1 1:0.5 2:1e400",
    "1 qid:1 3:0.5 1:0.5 2:0.5 3:0.5",
]
PLAIN_BAD = [line for line in BAD if line.isascii() and "_" not in line]


@st.composite
def letor_texts(draw, malformed=False, plain=False):
    """LETOR text; ``plain`` text is all plain lines, and sometimes dense ones."""
    if plain:
        dense = draw(st.one_of(st.none(), st.integers(1, 9)))
        filler = st.sampled_from(PLAIN_FILLER)
        rows = document_lines(plain=True, dense=dense)
    else:
        filler, rows = FILLER, document_lines()
    lines = draw(st.lists(st.one_of(rows, filler), max_size=20))
    if malformed:
        bad = draw(st.sampled_from(PLAIN_BAD if plain else BAD))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@pytest.mark.parametrize("bad", PLAIN_BAD)
def test_plain_block_with_a_malformed_line_raises_as_dict_parser(bad):
    text = "1 qid:1 1:0.5 2:0.25\n" * 3 + bad + "\n0 qid:2 2:1 1:2\n"
    expected = _outcome(ref.parse_dataset, text)
    assert expected is not None and expected[1] == 4
    assert _outcome(parse_dataset, text) == expected


# Block sizes from one line a block up to the default.
BLOCKS = st.sampled_from([1, 3, 40, 200, data._BLOCK_CHARS])


def assert_parses_as_dict_parser(text, ds):
    oracle = ref.parse_dataset(text)
    table = ref.feature_table(oracle)
    assert (ds.features.dtype, ds.features.shape) == (np.float64, table.shape)
    assert ds.features.tobytes() == table.tobytes()
    assert ds.grades.tolist() == ref.grades(oracle).tolist()
    assert (ds.max_feature_index, ds.max_grade, ds.num_documents) == \
        (oracle.max_feature_index, oracle.max_grade, oracle.num_documents)
    assert [(g.query_id, g.doc_ids.tolist()) for g in ds.groups] == \
        [(g.query_id, g.doc_ids) for g in oracle.groups]
    width = ds.max_feature_index + 2
    for group, expected in zip(ds.groups, oracle.groups):
        assert dense_features(group, width).tobytes() == \
            ref.dense_features(expected, width).tobytes()


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(letor_texts(), letor_texts(plain=True)))
def test_parse_matches_dict_parser(text):
    assert_parses_as_dict_parser(text, parse_dataset(text))


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(letor_texts(), letor_texts(plain=True)), block=BLOCKS)
def test_plain_text_is_read_a_block_at_a_time(text, block):
    """Unicode separators and comments with "_" or non-ASCII digits too."""
    with mock.patch.object(data, "_BLOCK_CHARS", block):
        ds, refused = _parse_counting_refusals(text)
    assert refused == 0
    assert_parses_as_dict_parser(text, ds)


def _outcome(parse, text):
    try:
        parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), exc.line, str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(letor_texts(malformed=True), letor_texts(malformed=True, plain=True)),
       block=BLOCKS)
def test_malformed_text_raises_as_dict_parser(text, block):
    expected = _outcome(ref.parse_dataset, text)
    assert expected is not None
    with mock.patch.object(data, "_BLOCK_CHARS", block):
        assert _outcome(parse_dataset, text) == expected


@settings(max_examples=100, deadline=None)
@given(text=st.one_of(letor_texts(malformed=True), letor_texts(malformed=True, plain=True)))
def test_line_reader_raises_as_dict_parser(text):
    expected = _outcome(ref.parse_dataset, text)
    assert expected is not None
    with mock.patch.object(data, "_read_block", lambda lines: None):
        assert _outcome(parse_dataset, text) == expected


@settings(max_examples=100, deadline=None)
@given(text=letor_texts())
def test_format_parse_round_trip_is_bit_exact(text):
    ds = parse_dataset(text)
    formatted = format_dataset(ds)
    again = parse_dataset(formatted)
    assert_same_dataset(again, ds)
    assert format_dataset(again) == formatted
