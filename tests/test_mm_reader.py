"""The SciPy-backed MatrixMarket reader against the line-by-line reference.

Valid files must give the identical matrix.  A file with one mutation must
raise the same error type at the same line as the reference, except for
the dialect the reader enforces more strictly: nothing after the declared
entries, one entry per line, no extra fields, no leading '+' sign on a
value (SciPy's number syntax) and only ASCII in an entry.  For those the
reader must raise ``MatrixMarketError`` at the mutated line.
"""

import io
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgkit import MatrixMarketError, NotPositiveDefiniteError
from cgkit.problems_io import read_matrix_market, read_vector_file
from mm_reference import read_reference

HEADER = "%%MatrixMarket matrix {fmt} {field} {symmetry}"
FLOAT_FORMATS = (repr, "{:.17g}".format, "{:.10e}".format, "{:.3E}".format)
GARBAGE = ("Q", "1.0x", "2,5", "0x10", "1d0", "2.5D+01", "--1", "1-2", "e5", ".",
           "1.2.3", "1..5", "2.5e", "1e+", "1e5e", "1ee5", "1e5.0", "1nan", "infin",
           "-", ".e5", "-.", "infinityy", "-infinity1")
# bytes a number may hold, for fields that are numbers or nearly so
NUMBER_BYTES = "0123456789+-.eEinfatyINFATY"
NUMBER_LIKE = r"[+-]?([0-9]*\.?[0-9]*|inf|infinity|nan)([eE][+-]?[0-9]*)?"
DECORATIONS = ("", "   ", "%", "% a comment", "\t% indented comment")


@dataclass
class MMFile:
    """A MatrixMarket file as logical lines (line i is ``lines[i - 1]``)."""

    lines: list
    fmt: str
    n: int
    size_index: int
    data_indices: list
    eol: str
    final_eol: bool

    def text(self, lines=None) -> str:
        body = self.eol.join(self.lines if lines is None else lines)
        return body + self.eol if self.final_eol else body


def _spd_entries(draw, n, integer):
    """Symmetric, strictly diagonally dominant, so SPD whatever the format."""
    if integer:
        value = st.integers(-9, 9)
    else:
        value = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i):
            if draw(st.booleans()):
                a[i, j] = a[j, i] = draw(value)
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + draw(st.integers(1, 5))
    return a


@st.composite
def mm_files(draw):
    fmt = draw(st.sampled_from(("coordinate", "array")))
    field = draw(st.sampled_from(("real", "integer")))
    symmetry = draw(st.sampled_from(("symmetric", "general")))
    n = draw(st.integers(1, 6))
    a = _spd_entries(draw, n, field == "integer")
    fmt_value = str if field == "integer" else draw(st.sampled_from(FLOAT_FORMATS))

    def number(v):
        return fmt_value(int(v)) if field == "integer" else fmt_value(float(v))

    if fmt == "coordinate":
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if a[i, j] != 0.0 and (symmetry == "general" or j <= i)]
        pairs = draw(st.permutations(pairs))
        records = [[str(i + 1), str(j + 1), number(a[i, j])] for i, j in pairs]
        size = [str(n), str(n), str(len(records))]
    else:
        records = [[number(a[i, j])] for j in range(n) for i in range(n)
                   if symmetry == "general" or i >= j]
        size = [str(n), str(n)]

    gap = st.sampled_from((" ", "  ", "\t", " \t"))
    margin = st.sampled_from(("", " ", "\t"))

    def render(fields):
        out = draw(margin)
        for k, f in enumerate(fields):
            out += (draw(gap) if k else "") + f
        return out + draw(margin)

    def decorations():
        return draw(st.lists(st.sampled_from(DECORATIONS), max_size=2))

    lines = [HEADER.format(fmt=fmt, field=field, symmetry=symmetry)]
    lines += decorations()
    size_index = len(lines)
    lines.append(render(size))
    data_indices = []
    for rec in records:
        lines += decorations()
        data_indices.append(len(lines))
        lines.append(render(rec))
    lines += decorations()
    return MMFile(lines=lines, fmt=fmt, n=n, size_index=size_index,
                  data_indices=data_indices,
                  eol=draw(st.sampled_from(("\n", "\r\n"))),
                  final_eol=draw(st.booleans()))


def outcome(reader, text):
    try:
        m = reader(text)
    except Exception as err:  # the reference may raise plain ValueError
        return ("error", type(err), getattr(err, "line", None))
    return ("ok", m.storage, m.to_dense().tolist())


def read_new(text):
    return read_matrix_market(io.StringIO(text))


def replace_field(line, k, new):
    fields = line.split()
    fields[k] = new
    return " ".join(fields)


@st.composite
def same_verdict_mutations(draw, f):
    """One mutation on which both readers must agree."""
    lines = list(f.lines)
    kinds = ["header", "size", "comment"]
    if f.data_indices:
        kinds += ["garbage", "delete"]
        if f.fmt == "coordinate":
            kinds.append("index")
    kind = draw(st.sampled_from(kinds))
    if kind == "header":
        word = draw(st.integers(2, 4))
        bad = draw(st.sampled_from(("complex", "pattern", "hermitian",
                                    "skew-symmetric", "vector")))
        lines[0] = replace_field(lines[0], word, bad)
    elif kind == "size":
        i = f.size_index
        change = draw(st.sampled_from(("float", "plus", "underscore", "drop", "extra",
                                       "rectangular", "ideographic-space")))
        if change == "float":
            lines[i] = replace_field(lines[i], 0, f"{f.n}.0")
        elif change == "plus":  # int reads '+n' and 'n_0': not a whole number here
            lines[i] = replace_field(lines[i], 0, f"+{f.n}")
        elif change == "underscore":
            lines[i] = replace_field(lines[i], 1, f"{f.n}_0")
        elif change == "drop":
            lines[i] = " ".join(lines[i].split()[:-1])
        elif change == "extra":
            lines[i] += " 1"
        elif change == "ideographic-space":  # not an entry's separator: one field
            lines[i] = "\u3000".join(lines[i].split())
        else:
            lines[i] = replace_field(lines[i], 1, str(f.n + 1))
    elif kind == "comment":
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, draw(st.sampled_from(DECORATIONS)))
    elif kind == "garbage":
        i = draw(st.sampled_from(f.data_indices))
        k = draw(st.integers(0, len(lines[i].split()) - 1))
        lines[i] = replace_field(lines[i], k, draw(st.sampled_from(GARBAGE)))
    elif kind == "delete":
        del lines[draw(st.sampled_from(f.data_indices))]
    else:
        i = draw(st.sampled_from(f.data_indices))
        k = draw(st.integers(0, 1))
        lines[i] = replace_field(lines[i], k, draw(st.sampled_from(("0", str(f.n + 1)))))
    return f.text(lines)


@st.composite
def stricter_mutations(draw, f):
    """One mutation the reader rejects at a line where the reference may
    not: returns the text and that line."""
    lines = list(f.lines)
    kinds = ["zero_order"]
    if f.data_indices:
        kinds += ["trailing", "extra_field", "plus_sign"]
        if f.fmt == "array" and len(f.data_indices) >= 2:
            kinds.append("joined")
    kind = draw(st.sampled_from(kinds))
    if kind == "zero_order":
        i = f.size_index
        lines[i] = replace_field(replace_field(lines[i], 0, "0"), 1, "0")
    elif kind == "trailing":
        i = len(lines)
        lines.append(lines[draw(st.sampled_from(f.data_indices))])
    elif kind == "extra_field":
        i = draw(st.sampled_from(f.data_indices))
        lines[i] += " 7"
    elif kind == "plus_sign":
        i = draw(st.sampled_from(f.data_indices))
        fields = lines[i].split()
        if fields[-1].startswith("-"):
            fields[-1] = fields[-1][1:]
        lines[i] = " ".join(fields[:-1] + ["+" + fields[-1]])
    else:
        pos = draw(st.integers(0, len(f.data_indices) - 2))
        i, j = f.data_indices[pos], f.data_indices[pos + 1]
        lines[i] += " " + lines[j]
        del lines[j]
    return f.text(lines), i + 1


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(mm_files())
    def test_valid_files_give_identical_matrices(self, f):
        text = f.text()
        expected = outcome(read_reference, text)
        assert expected[0] == "ok"
        assert outcome(read_new, text) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_files_fail_alike(self, data):
        text = data.draw(same_verdict_mutations(data.draw(mm_files())))
        assert outcome(read_new, text) == outcome(read_reference, text)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_stricter_rejections_name_the_line(self, data):
        text, line = data.draw(stricter_mutations(data.draw(mm_files())))
        with pytest.raises(MatrixMarketError) as info:
            read_new(text)
        assert info.value.line == line

    @settings(max_examples=300, deadline=None)
    @given(st.from_regex(NUMBER_LIKE, fullmatch=True)
           | st.text(NUMBER_BYTES, min_size=1, max_size=10))
    def test_a_value_is_read_whole_or_rejected_at_its_line(self, value):
        """SciPy gives the value float() gives, or the reader rejects it at
        its line; a leading '+' is rejected whatever follows."""
        text = ARRAY + "1 1\n" + value + "\n"
        expected = outcome(read_reference, text)
        if value.startswith("+"):
            expected = ("error", MatrixMarketError, 3)
        assert outcome(read_new, text) == expected


ARRAY = "%%MatrixMarket matrix array real general\n"
COORD = "%%MatrixMarket matrix coordinate real general\n"


class TestRegressions:
    """Inputs SciPy alone crashes on, misreads or reads without complaint."""

    @pytest.mark.parametrize("size", ["0 2", "0 0", "-1 -1"])
    def test_array_file_of_order_zero(self, size):
        # scipy.io.mmread dies with SIGFPE on "0 2": run in a child process
        code = ("import io, sys\n"
                "from cgkit import MatrixMarketError\n"
                "from cgkit.problems_io import read_matrix_market\n"
                "try:\n"
                "    read_matrix_market(io.StringIO(sys.stdin.read()))\n"
                "except MatrixMarketError as err:\n"
                "    print(err.line)\n")
        done = subprocess.run([sys.executable, "-c", code], input=ARRAY + size + "\n",
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "2\n"), done.stderr

    def test_truncated_array(self):
        # SciPy fills the missing values with zeros
        with pytest.raises(MatrixMarketError) as info:
            read_new(ARRAY + "2 2\n2.0\n0.0\n% done\n")
        assert info.value.line == 5

    def test_extra_field(self):
        with pytest.raises(MatrixMarketError) as info:
            read_new(COORD + "1 1 1\n1 1 2.0 7\n")
        assert info.value.line == 3

    def test_data_line_after_the_declared_count(self):
        with pytest.raises(MatrixMarketError) as info:
            read_new(COORD + "1 1 1\n1 1 2.0\n\n1 1 3.0\n")
        assert info.value.line == 5

    def test_fewer_entries_than_the_order(self):
        # 74 bytes declaring order 2e6: an SPD matrix stores every diagonal
        # entry, so the file is refused before a matrix of that order is built
        text = ("%%MatrixMarket matrix coordinate real symmetric\n"
                "2000000 2000000 1\n"
                "1 1 2.0\n")
        assert len(text) == 74
        read_new(COORD + "1 1 1\n1 1 2.0\n")  # imports are not counted
        tracemalloc.start()
        try:
            with pytest.raises(NotPositiveDefiniteError, match="^line 2: "):
                read_new(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_two_values_on_one_array_line(self):
        with pytest.raises(MatrixMarketError) as info:
            read_new(ARRAY + "2 2\n2.0\n0.0 0.0\n1.0\n")
        assert info.value.line == 4

    @pytest.mark.parametrize("value", ["2,5", "2.5D+01", "0.1-100", "2.0abc", "1_0",
                                       "1.2.3", "1..5", "2.5e", "1e5e", "1nan",
                                       "infinityy"])
    def test_number_prefix_not_taken_for_the_value(self, value):
        with pytest.raises(MatrixMarketError) as info:
            read_new(ARRAY + "1 1\n" + value + "\n")
        assert info.value.line == 3

    def test_integer_field_keeps_fractions(self):
        m = read_new("%%MatrixMarket matrix array integer general\n1 1\n2.5\n")
        assert m.to_dense().tolist() == [[2.5]]

    def test_scipy_line_numbers_count_comments(self):
        text = (COORD + "% c\n2 2 2\n\n% c\n1 1 2.0\n%\n2 3 1.0\n")
        with pytest.raises(MatrixMarketError) as info:
            read_new(text)
        assert info.value.line == 8
        assert outcome(read_reference, text)[1:] == (MatrixMarketError, 8)

    def test_malformed_number_named_in_the_message(self):
        with pytest.raises(MatrixMarketError, match="'2 1 1.2.3'") as info:
            read_new(COORD + "2 2 2\n1 1 2.0\n2 1 1.2.3\n")
        assert info.value.line == 4

    @pytest.mark.parametrize("head, size", [
        (COORD, "+2 2 2"), (COORD, "2_0 2_0 2"), (COORD, "2 2 0_2"),
        (ARRAY, "+2 2"), (ARRAY, "2_0 2_0"), (ARRAY, "2 0_2")],
        ids=["coordinate-plus", "coordinate-underscore", "coordinate-count-underscore",
             "array-plus", "array-underscore", "array-columns-underscore"])
    def test_size_line_fields_are_whole_numbers(self, head, size):
        # int reads them as order 2, order 20, or 2 entries (columns)
        body = "1 1 2.0\n2 2 2.0\n" if head == COORD else "2.0\n0\n0\n2.0\n"
        with pytest.raises(MatrixMarketError) as info:
            read_new(head + "% c\n" + size + "\n" + body)
        assert str(info.value) == f"line 3: malformed number in {size!r}"

    @pytest.mark.parametrize("head, size, message", [
        (COORD, "2 2 2.0", "bad size line: invalid literal for int() with base 10: '2.0'"),
        (ARRAY, "2 2.0", "bad size line: invalid literal for int() with base 10: '2.0'"),
        (COORD, "-1 -1 3", "matrix order must be at least 1, got -1"),
        (ARRAY, "-1 -1", "matrix order must be at least 1, got -1"),
        (COORD, "2 3 4", "matrix must be square, got 2x3"),
        (ARRAY, "2 3", "matrix must be square, got 2x3")],
        ids=["coordinate-float", "array-float", "coordinate-negative", "array-negative",
             "coordinate-rectangular", "array-rectangular"])
    def test_size_line_refusals_keep_their_texts(self, head, size, message):
        with pytest.raises(MatrixMarketError) as info:
            read_new(head + size + "\n1\n")
        assert str(info.value) == f"line 2: {message}"

    @pytest.mark.parametrize("separator", ["\u3000", "\u00a0", "\x0c"],
                             ids=["ideographic-space", "no-break-space", "form-feed"])
    @pytest.mark.parametrize("head, size, entry", [
        (COORD, "1 1{}1", "1 1{}2.0"), (ARRAY, "1{}1", "2.0{}")],
        ids=["coordinate", "array"])
    def test_size_line_splits_at_an_entry_s_separators_only(self, separator, head, size,
                                                            entry):
        # str.split would read '1 1\u30001' as three fields; the same bytes
        # in an entry line are refused there too (the reference reads them)
        size, entry = size.format(separator), entry.format(separator)
        text = head + "% c\n" + size + "\n" + entry + "\n"
        assert outcome(read_reference, text)[1:] == (MatrixMarketError, 3)
        for text, line in ((text, 3), (head + "% c\n" + size.replace(separator, " ")
                                       + "\n" + entry + "\n", 4)):
            with pytest.raises(MatrixMarketError) as info:
                read_new(text)
            assert info.value.line == line
        with pytest.raises(MatrixMarketError) as info:
            read_new(head + size + "\n")
        layout = "rows cols nnz" if head == COORD else "rows cols"
        assert str(info.value) == f"line 2: {head.split()[2]} size line must be '{layout}'"

    def test_header_splits_at_an_entry_s_separators_only(self):
        text = COORD.replace(" ", "\u00a0", 1) + "1 1 1\n1 1 2.0\n"
        assert outcome(read_reference, text)[1:] == (MatrixMarketError, 1)
        with pytest.raises(MatrixMarketError, match="^line 1: header must read"):
            read_new(text)

    @pytest.mark.parametrize("blank", ["\u00a0", " \u3000\t"],
                             ids=["no-break-space", "ideographic-space"])
    def test_a_line_of_other_spaces_is_not_blank(self, blank):
        # refused before the size line as after it, where it is an entry
        for text, line in ((COORD + blank + "\n1 1 1\n1 1 2.0\n", 2),
                           (COORD + "1 1 1\n" + blank + "\n1 1 2.0\n", 3)):
            with pytest.raises(MatrixMarketError) as info:
                read_new(text)
            assert info.value.line == line
        assert outcome(read_reference, COORD + blank + "\n1 1 1\n1 1 2.0\n")[1:] == (
            MatrixMarketError, 2)
        assert read_new(COORD + " \t\r\n1 1 1\n1 1 2.0\n").to_dense().tolist() == [[2.0]]

    @pytest.mark.parametrize("index", ["1.0", "1e0", "inf", "1.2.3"])
    def test_index_fields_take_integers_only(self, index):
        with pytest.raises(MatrixMarketError) as info:
            read_new(COORD + "1 1 1\n" + index + " 1 2.0\n")
        assert info.value.line == 3


class TestNonAscii:
    """A byte outside ASCII is skipped in a comment and rejected at its
    line in an entry, from a text stream, a binary stream or a path."""

    TEXT = COORD + "% caf\u00e9\n1 1 1\n%\u00a0\n1 1 2.0\n"
    BAD = COORD + "1 1 1\n% ok\n1 1 2.0\u00e9\n"

    def test_comment_in_a_text_stream(self):
        assert read_new(self.TEXT).to_dense().tolist() == [[2.0]]

    def test_entry_in_a_text_stream(self):
        with pytest.raises(MatrixMarketError) as info:
            read_new(self.BAD)
        assert info.value.line == 4

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_comment_in_a_file(self, tmp_path, encoding):
        path = tmp_path / "a.mtx"
        path.write_bytes(self.TEXT.encode(encoding))
        assert read_matrix_market(path).to_dense().tolist() == [[2.0]]
        with open(path, "rb") as stream:
            assert read_matrix_market(stream).to_dense().tolist() == [[2.0]]

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_entry_in_a_file(self, tmp_path, encoding):
        path = tmp_path / "a.mtx"
        path.write_bytes(self.BAD.encode(encoding))
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(path)
        assert info.value.line == 4

    @pytest.mark.parametrize("entry, quoted", [
        ("2.0\u00e9", "'1 1 2.0\u00e9'"),  # printable: the character itself
        ("2.0\u200b", "'1 1 2.0\\u200b'"),  # not printable: its escape
        ("2.0\ud800", "'1 1 2.0\\ud800'"),  # a lone surrogate
    ], ids=["printable", "zero-width-space", "surrogate"])
    def test_entry_in_a_text_stream_is_quoted_as_written(self, entry, quoted):
        with pytest.raises(MatrixMarketError) as info:
            read_new(COORD + "1 1 1\n1 1 " + entry + "\n")
        assert str(info.value) == f"line 3: malformed number in {quoted}"

    @pytest.mark.parametrize("encoding, replaced", [("utf-8", 2), ("latin-1", 1)])
    def test_entry_in_a_file_is_quoted_as_read(self, tmp_path, encoding, replaced):
        # each byte outside ASCII is read as U+FFFD, and quoted as that character
        path = tmp_path / "a.mtx"
        path.write_bytes(self.BAD.encode(encoding))
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(path)
        assert str(info.value) == ("line 4: malformed number in "
                                   f"'1 1 2.0{chr(0xFFFD) * replaced}'")

    def test_vector_entry_is_quoted_as_written(self, tmp_path):
        # float reads an Arabic-Indic digit; the vector-file syntax does not
        with pytest.raises(MatrixMarketError) as info:
            read_vector_file(io.StringIO("1\n\u0661\n"))
        assert str(info.value) == "line 2: malformed number in '\u0661'"
        path = tmp_path / "b.txt"
        path.write_bytes("1\n\u0661\n".encode())
        with pytest.raises(MatrixMarketError) as info:
            read_vector_file(path)
        assert str(info.value) == ("line 2: bad vector entry: could not convert "
                                   "string to float: '\ufffd\ufffd'")

    def test_vector_file(self, tmp_path):
        path = tmp_path / "b.txt"
        path.write_bytes("% caf\u00e9\n1.5\n".encode())
        assert read_vector_file(path).tolist() == [1.5]
        path.write_bytes("1.5\n2.5\u00e9\n".encode())
        with pytest.raises(MatrixMarketError) as info:
            read_vector_file(path)
        assert info.value.line == 2
