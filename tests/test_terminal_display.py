"""Display diff: the round-trip invariant, minimality, fuzzing."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terminal.display import Display
from repro.terminal.emulator import Emulator


def apply_diff(width, height, old_fb, new_fb):
    """Apply a frame diff to an emulator showing old_fb."""
    e = Emulator(width, height)
    e.fb = old_fb.copy()
    e.write(Display.new_frame(old_fb, new_fb))
    return e.fb


class TestBasicDiffs:
    def test_identical_frames_tiny_diff(self):
        a = Emulator(80, 24)
        a.write(b"some content")
        diff = Display.new_frame(a.fb, a.fb.copy())
        # Only cursor/visibility trailer, no cell writes.
        assert len(diff) < 20

    def test_single_char_change_is_small(self):
        a = Emulator(80, 24)
        a.write(b"hello world")
        b = Emulator(80, 24)
        b.write(b"hello worlq")
        diff = Display.new_frame(a.fb, b.fb)
        assert len(diff) < 40
        assert b"q" in diff

    def test_full_repaint_when_size_differs(self):
        a = Emulator(40, 10)
        b = Emulator(80, 24)
        b.write(b"content")
        diff = Display.new_frame(a.fb, b.fb)
        assert diff.startswith(b"\x1b[0m\x1b[2J")

    def test_none_base_repaints(self):
        b = Emulator(20, 5)
        b.write(b"xyz")
        e = Emulator(20, 5)
        e.write(Display.new_frame(None, b.fb))
        assert e.fb == b.fb


class TestRoundTrip:
    def _check(self, setup: bytes, change: bytes, width=40, height=8):
        server = Emulator(width, height)
        server.write(setup)
        old = server.fb.copy()
        server.write(change)
        applied = apply_diff(width, height, old, server.fb)
        assert applied == server.fb

    def test_text(self):
        self._check(b"hello", b" world")

    def test_colors(self):
        self._check(b"\x1b[31mred", b"\x1b[44m blue-bg \x1b[0m plain")

    def test_scroll(self):
        self._check(b"1\r\n2\r\n3\r\n4\r\n5\r\n6\r\n7\r\n8", b"\r\n9\r\n10")

    def test_erase(self):
        self._check(b"aaaaaaaaaa", b"\x1b[1;3H\x1b[K")

    def test_wide_chars(self):
        self._check("宽字符".encode(), b"\x1b[1;2Hx")

    def test_combining(self):
        self._check(b"e\xcc\x81 plain", b"more")

    def test_title_change(self):
        self._check(b"", b"\x1b]0;new title\x07")

    def test_cursor_visibility(self):
        self._check(b"abc", b"\x1b[?25l")

    def test_mode_changes(self):
        self._check(b"", b"\x1b[?1h\x1b[?2004h\x1b[?1000h")

    def test_reverse_video(self):
        self._check(b"", b"\x1b[?5h")

    def test_bce_erase(self):
        self._check(b"xxxx", b"\x1b[42m\x1b[2J")

    def test_insert_delete_lines(self):
        self._check(b"1\r\n2\r\n3\r\n4", b"\x1b[2;1H\x1b[2L")

    def test_alt_screen(self):
        self._check(b"primary text", b"\x1b[?1049halt text")


SEQUENCES = [
    b"hello world",
    b"\x1b[2J",
    b"\x1b[H",
    b"\x1b[%d;%dH",
    b"\r\n",
    b"\x1b[31m",
    b"\x1b[1;44m",
    b"\x1b[0m",
    b"\x1b[K",
    b"\x1b[1K",
    b"\x1b[2K",
    b"\x1b[J",
    b"\x1b[3D",
    b"\x1b[2C",
    b"\x1b[A",
    b"\x1b[2B",
    b"\t",
    b"\x08\x08",
    "宽字".encode(),
    b"e\xcc\x81",
    b"\x1b[2;6r",
    b"\x1b[r",
    b"\x1b[L",
    b"\x1b[2M",
    b"\x1b[3@",
    b"\x1b[2P",
    b"\x1b[4X",
    b"\x1b[7m",
    b"\x1b]0;t\x07",
    b"\x1b[?25l",
    b"\x1b[?25h",
    b"\x1b[?5h",
    b"\x1b[?5l",
    b"\x1bM",
    b"\x1b[S",
    b"\x1b[T",
    b"\x1b(0abq\x1b(B",
    b"\x1b[10;20H###",
    b"\x1b7",
    b"\x1b8",
    b"\x1b[4h",
    b"\x1b[4l",
    b"\x1b#8",
    b"\x1b[?7l",
    b"\x1b[?7h",
    b"\x1b[?1049h",
    b"\x1b[?1049l",
]


class TestRoundTripFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_session_stays_synchronized(self, seed):
        """The core SSP screen invariant, over long random sessions."""
        rng = random.Random(seed)
        server = Emulator(60, 12)
        client = Emulator(60, 12)
        for step in range(120):
            chunk = b"".join(
                rng.choice(SEQUENCES) for _ in range(rng.randint(1, 4))
            )
            server.write(chunk)
            diff = Display.new_frame(client.fb, server.fb)
            client.write(diff)
            assert client.fb == server.fb, f"desync at step {step}: {chunk!r}"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(SEQUENCES), min_size=1, max_size=12))
    def test_roundtrip_property(self, chunks):
        server = Emulator(30, 6)
        client = Emulator(30, 6)
        for chunk in chunks:
            server.write(chunk)
        client.write(Display.new_frame(client.fb, server.fb))
        assert client.fb == server.fb

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=120))
    def test_roundtrip_on_garbage(self, data):
        """Even hostile byte soup must produce a reproducible frame."""
        server = Emulator(20, 5)
        client = Emulator(20, 5)
        server.write(data)
        client.write(Display.new_frame(client.fb, server.fb))
        assert client.fb == server.fb


class TestMinimality:
    def test_unchanged_rows_not_rewritten(self):
        a = Emulator(80, 24)
        a.write(b"row zero" + b"\r\n" * 23 + b"row last")
        old = a.fb.copy()
        a.write(b"\x1b[12;1Hmiddle change")
        diff = Display.new_frame(old, a.fb)
        assert b"row zero" not in diff
        assert b"row last" not in diff
        assert b"middle change" in diff

    def test_diff_much_smaller_than_repaint(self):
        a = Emulator(80, 24)
        a.write(b"#" * 80 * 10)
        old = a.fb.copy()
        a.write(b"\x1b[5;5HX")
        incremental = Display.new_frame(old, a.fb)
        repaint = Display.new_frame(None, a.fb)
        assert len(incremental) < len(repaint) / 10


#: Host output whose frames reach every branch of the row renderer: BCE
#: erase runs (with and without a hop over them), pen changes mid-run,
#: wide, combining and DEC-graphics cells, soft wrap, and a scroll.
GOLDEN_STEPS = [
    b"plain text\r\n\x1b[1;31mred bold\x1b[0m then \x1b[4munder\x1b[24m done",
    b"\x1b[44m\x1b[3;1H\x1b[2Kbce\x1b[K\x1b[0m",
    "\x1b[4;1Hwide 中文 and é combining".encode(),
    b"\x1b[5;1H\x1b(0lqqk\x1b(B \x0e x \x0f|",
    b"\x1b[6;1H" + b"w" * 45,
    b"\x1b[2;5Hab\x1b[32mcd\x1b[42mef\x1b[0m  \x1b[45m   \x1b[0mgh",
    b"\x1b[8;1H\x1b[41m\x1b[5X\x1b[10C\x1b[0mtail\x1b[46m\x1b[3X",
    b"\x1b[1;3H\x1b[7mXY\x1b[27m\x1b[2;1H\x1b[1K",
    b"\x1b[10;1H\r\n\r\n\r\nafter scroll",
]

#: SHA-256 of every diff in ``TestGoldenBytes``, taken with the
#: per-cell renderer the run renderer replaced; any change to the bytes
#: the renderer emits for this corpus changes it.
GOLDEN_SHA256 = (
    "c8000de0431ae4af7b223a627829e6fe50bd1795f1e85e4de0a71fa8885f61f1"
)


class TestGoldenBytes:
    def _frames(self):
        """Incremental and repaint diffs over the corpus, plus a frame
        with cells the emulator never makes (a stray continuation, a
        blank cell with a non-erase pen)."""
        from repro.terminal.cell import Cell
        from repro.terminal.renditions import DEFAULT_RENDITIONS

        e = Emulator(40, 10)
        old = e.fb.copy()
        for step in GOLDEN_STEPS:
            e.write(step)
            yield Display.new_frame(old, e.fb)
            yield Display.new_frame(None, e.fb)
            old = e.fb.copy()
        underlined = DEFAULT_RENDITIONS.with_attr(underlined=True)
        e.fb.set_cell(0, 12, Cell(contents="", width=0))
        e.fb.set_cell(0, 13, Cell(contents="", renditions=underlined))
        yield Display.new_frame(old, e.fb)
        yield Display.new_frame(None, e.fb)

    def test_diff_bytes_pinned(self):
        digest = hashlib.sha256()
        for frame in self._frames():
            digest.update(len(frame).to_bytes(4, "big") + frame)
        assert digest.hexdigest() == GOLDEN_SHA256
