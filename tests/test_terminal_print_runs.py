"""The run print path against the per-character reference.

``Emulator._print_run`` writes a run of narrow characters a row chunk at a
time; ``Emulator._print`` is the per-character definition it must match.
The reference emulator below routes every run (and REP) through
``_print``, so any state difference is a fault of the run path.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.terminal.emulator import Emulator


class PerCharEmulator(Emulator):
    """The reference: every run printed one character at a time."""

    def _print_run(self, text: str) -> None:
        for ch in text:
            self._print(ch)


def state(e: Emulator):
    fb = e.fb
    return (
        [row.cells for row in fb.rows],
        [row.wrap for row in fb.rows],
        [row.cells for row in fb.scrollback or []],
        (fb.cursor_row, fb.cursor_col),
        fb.pen,
        fb.next_print_wraps,
        bytes(e.outbox),
        e._last_graphic,
    )


def chunks(data: bytes, cuts: list[int]) -> list[bytes]:
    """``data`` split at ``cuts`` (which may land inside a UTF-8
    character or an escape sequence)."""
    bounds = sorted({0, len(data), *(min(c, len(data)) for c in cuts)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


#: Printable characters: narrow ASCII, Latin-1 and Latin Extended (the
#: run path's range), wide, combining, zero-width and C1.
PRINTABLE = "abxy #qñȁ中文\u0301\u200b\u0085"

#: Cursor motion, most of it back over what was printed, and the margin.
MOTION = [
    "\r", "\n", "\b", "\t", "\x1b[H", "\x1b[2D", "\x1b[3G", "\x1b[9G",
    "\x1b[1;80H", "\x1b[2A", "\x1b7", "\x1b8",
]

CONTROLS = [
    # Charsets: DEC graphics and UK via G0/G1 and SI/SO.
    "\x1b(0", "\x1b(B", "\x1b)0", "\x1b(A", "\x0e", "\x0f",
    # Modes: DECAWM off/on, IRM on/off.
    "\x1b[?7l", "\x1b[?7h", "\x1b[4h", "\x1b[4l",
    # Pens, BCE erases, line editing, REP.
    "\x1b[31m", "\x1b[1;44m", "\x1b[0m", "\x1b[K", "\x1b[1K", "\x1b[2J",
    "\x1b[2@", "\x1b[P", "\x1b[3X", "\x1b[3b", "\x1b[65535b",
    # A scroll region and a status report.
    "\x1b[2;3r", "\x1b[r", "\x1b[6n",
]

streams = st.lists(
    st.one_of(
        st.text(st.sampled_from("abxy"), min_size=1, max_size=8),
        st.text(st.sampled_from("中文"), min_size=1, max_size=4),
        st.text(st.sampled_from(PRINTABLE), min_size=1, max_size=12),
        st.sampled_from(MOTION),
        st.sampled_from(CONTROLS),
    ),
    min_size=8,
    max_size=40,
).map("".join)


class TestRunPathMatchesReference:
    @settings(max_examples=300, deadline=None)
    @example("中文字\rxyz", 10, [])  # right edge lands on a wide leader
    @example("\x1b[?7labcdefghijkl", 10, [])  # DECAWM off at the margin
    @given(
        streams,
        st.sampled_from([5, 10, 80]),
        st.lists(st.integers(0, 200), max_size=16),
    )
    def test_differential(self, text, width, cuts):
        data = text.encode("utf-8")
        fast = Emulator(width, 4)
        ref = PerCharEmulator(width, 4)
        for chunk in chunks(data, cuts):
            fast.write(chunk)
            ref.write(chunk)
            assert state(fast) == state(ref)

    def test_snapshot_then_print(self):
        """Runs written after a snapshot leave the snapshot untouched."""
        e = Emulator(10, 3)
        e.write(b"abcdefghij")
        snap = e.copy()
        e.write(b"\rXYZ")
        assert snap.fb.row_text(0) == "abcdefghij"
        assert e.fb.row_text(0) == "XYZdefghij"

    def test_cells_shared_within_one_pen(self):
        e = Emulator(10, 3)
        e.write(b"aa\x1b[1ma")
        cells = e.fb.rows[0].cells
        assert cells[0] is cells[1]
        assert cells[2] is not cells[0]
        assert cells[2].renditions.bold


class TestRep:
    def _both(self, data: bytes, width: int = 10, height: int = 4):
        fast = Emulator(width, height)
        ref = PerCharEmulator(width, height)
        fast.write(data)
        ref.write(data)
        return fast, ref

    def test_narrow_matches_reference(self):
        fast, ref = self._both(b"\x1b[1;3Hx\x1b[25b")
        assert state(fast) == state(ref)
        assert fast.fb.row_text(1) == "x" * 10

    def test_wide_matches_reference(self):
        fast, ref = self._both("ab中\x1b[7b".encode())
        assert state(fast) == state(ref)
        assert fast.fb.cell_at(1, 0).contents == "中"

    def test_combining_matches_reference(self):
        # The combining mark joins its cell; REP repeats the base.
        fast, ref = self._both("é\x1b[12b".encode())
        assert state(fast) == state(ref)
        assert fast.fb.cell_at(0, 0).contents == "é"
        assert fast.fb.cell_at(0, 1).contents == "e"

    def test_dec_graphics_matches_reference(self):
        fast, ref = self._both(b"\x1b(0q\x1b[30b\x1b(Bq\x1b[3b")
        assert state(fast) == state(ref)

    def test_huge_count_is_one_run(self):
        """REP 65535 of a narrow character prints no character singly."""
        e = Emulator(200, 60)
        e.write(b"x")
        calls = []
        e._print = calls.append
        e.write(b"\x1b[65535b")
        assert calls == []
        # 1 + 200 * 60 characters: every row full, then one more.
        assert e.fb.row_text(58) == "x" * 200
        assert e.fb.row_text(59).rstrip() == "x"


class TestNeverRaises:
    @settings(max_examples=300, deadline=None)
    @example("\x1b[²m", [1])
    @example("\x1b[1;¹H", [3])
    @given(
        st.lists(st.one_of(st.text(), st.just("\x1b["))).map("".join),
        st.lists(st.integers(0, 64), max_size=8),
    )
    def test_any_text_in_any_chunks(self, text, cuts):
        e = Emulator(20, 5)
        for chunk in chunks(text.encode("utf-8"), cuts):
            e.write(chunk)
