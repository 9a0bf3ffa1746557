"""Unit tests for edge-list and event-stream I/O."""

import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.streams import (
    add_edge,
    add_vertex,
    delete_edge,
    delete_vertex,
    read_edge_columns,
    read_edge_list,
    read_event_stream,
    read_event_stream_raw,
    write_edge_list,
    write_event_stream,
)
from repro.streams.io import _int_edge_columns


class TestEdgeList:
    def test_roundtrip_via_path(self, tmp_path):
        edges = [(1, 2), (3, 4), ("a", "b")]
        path = tmp_path / "graph.edges"
        assert write_edge_list(edges, path) == 3
        assert read_edge_list(path) == edges

    def test_roundtrip_via_file_object(self):
        buffer = io.StringIO()
        write_edge_list([(1, 2)], buffer)
        buffer.seek(0)
        assert read_edge_list(buffer) == [(1, 2)]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n1 2\n# mid\n3 4\n"
        assert read_edge_list(io.StringIO(text)) == [(1, 2), (3, 4)]

    def test_self_loop_raises_when_strict(self):
        # Same policy as the event-stream readers: a self-loop is
        # malformed input, not something to drop silently.
        with pytest.raises(StreamError, match=r":1:.*self-loop"):
            read_edge_list(io.StringIO("1 1\n1 2\n"))

    def test_self_loop_skipped_and_counted_when_not_strict(self):
        errors = []
        edges = read_edge_list(
            io.StringIO("1 1\n1 2\n"), strict=False, errors=errors
        )
        assert edges == [(1, 2)]
        assert len(errors) == 1
        assert "self-loop" in errors[0] and ":1:" in errors[0]

    def test_extra_columns_tolerated(self):
        # SNAP files sometimes carry timestamps in a third column.
        assert read_edge_list(io.StringIO("1 2 1234567\n")) == [(1, 2)]

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(StreamError, match=":2:"):
            read_edge_list(io.StringIO("1 2\njunk\n"))

    def test_malformed_line_is_still_a_value_error(self):
        # Back-compat: StreamError subclasses ValueError.
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("junk\n"))

    def test_path_context_in_error(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("1 2\njunk\n")
        with pytest.raises(StreamError, match="bad.edges:2"):
            read_edge_list(bad)

    def test_non_strict_skips_and_counts(self):
        errors = []
        edges = read_edge_list(
            io.StringIO("1 2\njunk\n3 4\nalso-junk\n"),
            strict=False,
            errors=errors,
        )
        assert edges == [(1, 2), (3, 4)]
        assert len(errors) == 2
        assert ":2:" in errors[0] and ":4:" in errors[1]


def _outcome(source, strict):
    """What ``read_edge_list`` makes of ``source``: the edges (with
    label types) and error messages, or the error it raises."""
    errors = []
    try:
        edges = read_edge_list(source, strict=strict, errors=errors)
    except StreamError as error:
        return ("raised", str(error))
    return ("read", [(type(u), u, type(v), v) for u, v in edges], errors)


_INT_TOKENS = st.integers(-(10**6), 10**6).flatmap(
    lambda x: st.sampled_from([str(x), f"+{x}" if x >= 0 else str(x), f"00{abs(x)}"])
)
_TOKENS = st.one_of(
    _INT_TOKENS,
    st.sampled_from(["-0", "+0", "+5", "007"]),
    st.integers(2**63 - 2, 2**70).map(str),
    st.integers(2**63 - 2, 2**70).map(lambda x: f"-{x}"),
    st.sampled_from(["\u0663", "\uff11\uff12", "1_000", "1+2", "+", "-", "0x1f"]),
    st.text(alphabet="abcxyz_", min_size=1, max_size=4),
)
_BLANKS = st.sampled_from([" ", "\t", "  ", " \t"])


@st.composite
def _edge_line(draw, plain):
    shape = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
    if shape == "blank":
        return draw(st.sampled_from(["", " ", "\t "]))
    if shape == "comment":
        return draw(st.sampled_from(["#", "# c", "  # c 1 2", "#1 2"]))
    if plain:
        tokens = draw(st.lists(_INT_TOKENS, min_size=2, max_size=4, unique=True))
    else:
        tokens = draw(st.lists(_TOKENS, min_size=1, max_size=4))
        if len(tokens) >= 2 and draw(st.booleans()):
            tokens[1] = tokens[0]  # a self-loop
    line = draw(st.sampled_from(["", " ", "\t"]))
    for index, token in enumerate(tokens):
        line += (draw(_BLANKS) if index else "") + token
    tails = ["", " ", " # trailing", "\t#x"] + ([] if plain else ["#glued"])
    return line + draw(st.sampled_from(tails))


@st.composite
def _edge_file(draw):
    """Edge-list bytes: half of them plain enough for the fast path
    (whose tokens ``int`` reads differently stay distinct), the rest
    anything the line parser must sort out."""
    plain = draw(st.booleans())
    lines = draw(st.lists(_edge_line(plain), max_size=12))
    ends = ["\n", "\r\n"] + ([] if plain else ["\r"])
    data = b"".join(
        line.encode("utf-8") + draw(st.sampled_from(ends)).encode("ascii")
        for line in lines
    )
    if draw(st.booleans()) and data.endswith(b"\n"):
        data = data[:-1]  # no final line end
    if not plain and draw(st.integers(0, 4)) == 0:
        data += b"\xff\xfe 3\n1 2\n"  # a line that is not UTF-8
    return data


class TestColumnarEdgeList:
    """The columnar front end reads exactly what the line parser reads.

    A path goes through the bytes-to-int64 fast path whenever the file
    is plain; a text handle on the same file always takes the line
    parser. Both must agree on every file, malformed or not.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=_edge_file())
    def test_matches_line_parser(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.edges")
            with open(path, "wb") as handle:
                handle.write(data)
            for strict in (True, False):
                with open(
                    path, encoding="utf-8", errors="surrogateescape"
                ) as text:
                    expected = _outcome(text, strict)
                assert _outcome(path, strict) == expected

    @pytest.mark.parametrize("text", [
        "# header\n\n1 2\n  # indented comment\n3 4 # trailing\n",
        "1 2\r\n3 4\r\n",
        "1\t2\n\t3 \t 4\t\n",
        "+5 -0\n007 8\n",
        "1 2 1234567\n3 4 5 6 7\n",
        "9223372036854775807 -9223372036854775808\n",
        "",
    ])
    def test_plain_files_take_the_fast_path(self, text, tmp_path):
        data = text.encode("ascii")
        columns = _int_edge_columns(data)
        assert columns is not None
        assert isinstance(columns.us, np.ndarray)
        path = tmp_path / "g.edges"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as handle:
            assert read_edge_list(path) == read_edge_list(handle)

    @pytest.mark.parametrize("text", [
        "1 2#glued\n",     # the line parser keeps '2#glued' as a label
        "1 2\r3 4\n",     # a lone CR ends a line
        "1\n",            # too few ids
        "1 1\n",          # self-loop
        "1 9223372036854775808\n",  # beyond int64
        "a b\n",
        "1_000 2\n",      # int() reads underscores
        "\u0663 4\n",     # and non-ASCII digits
    ])
    def test_other_files_are_left_to_the_line_parser(self, text):
        assert _int_edge_columns(text.encode("utf-8")) is None

    def test_dev_null(self):
        assert read_edge_list(os.devnull) == []
        assert len(read_edge_columns(os.devnull)) == 0

    def test_int_labels_come_back_as_arrays(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\njunk\n3 4\n")
        columns = read_edge_columns(path, strict=False, errors=[])
        assert columns.us.dtype == np.int64
        assert columns.to_events() == [
            (add_edge(1, 2).kind, 1, 2), (add_edge(3, 4).kind, 3, 4)
        ]


class TestInvalidUtf8:
    DATA = b"1 2\n\xff\xfe 3\n2 3\n"

    def test_edge_list_strict(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(self.DATA)
        with pytest.raises(StreamError, match=r"bad\.edges:2: invalid UTF-8"):
            read_edge_list(path)

    def test_edge_list_skips_and_counts(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_bytes(self.DATA)
        errors = []
        assert read_edge_list(path, strict=False, errors=errors) == [(1, 2), (2, 3)]
        assert errors == [f"{path}:2: invalid UTF-8"]

    def test_event_stream_strict(self, tmp_path):
        path = tmp_path / "bad.events"
        path.write_bytes(b"+ 1 2\n+ \xff 3\n")
        with pytest.raises(StreamError, match=r"bad\.events:2: invalid UTF-8"):
            list(read_event_stream_raw(path))

    def test_event_stream_skips_and_counts(self, tmp_path):
        path = tmp_path / "bad.events"
        path.write_bytes(b"+ 1 2\n# \xff\n+ 2 3\n")
        errors = []
        events = list(read_event_stream(path, strict=False, errors=errors))
        assert events == [add_edge(1, 2), add_edge(2, 3)]
        assert errors == [f"{path}:2: invalid UTF-8"]

    def test_valid_multibyte_labels_still_read(self, tmp_path):
        path = tmp_path / "ok.edges"
        path.write_text("caf\u00e9 na\u00efve\n", encoding="utf-8")
        assert read_edge_list(path) == [("caf\u00e9", "na\u00efve")]


class TestEventStream:
    def test_roundtrip(self, tmp_path):
        events = [
            add_vertex(7),
            add_edge(1, 2),
            delete_edge(1, 2),
            delete_vertex(7),
        ]
        path = tmp_path / "stream.events"
        assert write_event_stream(events, path) == 4
        assert list(read_event_stream(path)) == events

    def test_string_vertices_roundtrip(self):
        buffer = io.StringIO()
        write_event_stream([add_edge("alice", "bob")], buffer)
        buffer.seek(0)
        assert list(read_event_stream(buffer)) == [add_edge("alice", "bob")]

    def test_lazy_reading(self):
        buffer = io.StringIO("+ 1 2\n+ 3 4\n")
        iterator = read_event_stream(buffer)
        assert next(iterator) == add_edge(1, 2)

    def test_unknown_op_raises(self):
        with pytest.raises(StreamError, match=":1:"):
            list(read_event_stream(io.StringIO("* 1 2\n")))

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            list(read_event_stream(io.StringIO("+ 1\n")))

    def test_non_strict_skips_and_counts(self):
        errors = []
        events = list(read_event_stream(
            io.StringIO("+ 1 2\n* what\n- 1 2\n+ 3 3\n"),
            strict=False,
            errors=errors,
        ))
        assert events == [add_edge(1, 2), delete_edge(1, 2)]
        assert len(errors) == 2  # unknown op + self-loop

    def test_comments_skipped(self):
        buffer = io.StringIO("# stream\n+ 1 2\n")
        assert list(read_event_stream(buffer)) == [add_edge(1, 2)]


class TestInterningReader:
    def test_interned_stream_equals_plain(self):
        from repro.streams import read_event_stream_raw

        text = "+ a b\n+ a c\n- a b\n+v d\n+ 10 20\n"
        plain = list(read_event_stream_raw(io.StringIO(text)))
        interned = list(read_event_stream_raw(io.StringIO(text), intern=True))
        assert interned == plain

    def test_repeated_tokens_share_one_object(self):
        from repro.streams import read_event_stream_raw

        text = "+ hub leaf1\n+ hub leaf2\n+ hub leaf3\n"
        events = list(read_event_stream_raw(io.StringIO(text), intern=True))
        hubs = [event[1] for event in events]
        assert hubs[0] is hubs[1] is hubs[2]

    def test_batches_forward_intern(self):
        from repro.streams import read_event_batches

        text = "+ x y\n+ x z\n+ y z\n"
        batches = list(
            read_event_batches(io.StringIO(text), 2, intern=True)
        )
        assert [len(b) for b in batches] == [2, 1]
        assert batches[0][0][1] is batches[0][1][1]  # "x" shared
