"""Escape-sequence parser state machine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.terminal.parser import (
    CsiDispatch,
    EscDispatch,
    Execute,
    OscDispatch,
    Parser,
    Print,
)


def parse(data: bytes):
    return Parser().input(data)


def merge_prints(actions):
    """``actions`` with every stretch of adjacent Prints joined into one."""
    merged = []
    for action in actions:
        if isinstance(action, Print) and merged and isinstance(merged[-1], Print):
            merged[-1] = Print(merged[-1].text + action.text)
        else:
            merged.append(action)
    return merged


class TestPrinting:
    def test_ascii(self):
        actions = parse(b"hi")
        assert actions == [Print("hi")]

    def test_utf8_multibyte(self):
        actions = parse("héllo".encode("utf-8"))
        assert actions == [Print("héllo")]

    def test_utf8_split_across_feeds(self):
        parser = Parser()
        data = "中".encode("utf-8")
        assert parser.input(data[:1]) == []
        assert parser.input(data[1:]) == [Print("中")]

    def test_invalid_utf8_replaced(self):
        actions = parse(b"\xff")
        assert actions == [Print("�")]

    def test_del_ignored(self):
        assert parse(b"\x7f") == []

    def test_run_stops_at_controls(self):
        actions = parse("ab\x7fcd\r\x1b[1me\x9bf".encode())
        assert actions == [
            Print("ab"),
            Print("cd"),
            Execute(0x0D),
            CsiDispatch("", (1,), "", "m"),
            Print("e\x9bf"),  # C1 characters print (the emulator drops them)
        ]


class TestControls:
    def test_c0_executed(self):
        assert parse(b"\x07") == [Execute(0x07)]
        assert parse(b"\r\n") == [Execute(0x0D), Execute(0x0A)]

    def test_c0_inside_csi(self):
        actions = parse(b"\x1b[2\x0aC")
        assert Execute(0x0A) in actions
        assert actions[-1].final == "C"


class TestEsc:
    def test_simple_dispatch(self):
        assert parse(b"\x1bM") == [EscDispatch("", "M")]

    def test_intermediate(self):
        assert parse(b"\x1b(0") == [EscDispatch("(", "0")]

    def test_deccsa_alignment(self):
        assert parse(b"\x1b#8") == [EscDispatch("#", "8")]

    def test_can_aborts(self):
        assert parse(b"\x1b\x18A") == [Print("A")]

    def test_esc_restarts_escape(self):
        actions = parse(b"\x1b\x1bM")
        assert actions == [EscDispatch("", "M")]


class TestCsi:
    def test_no_params(self):
        (action,) = parse(b"\x1b[H")
        assert action == CsiDispatch("", (), "", "H")

    def test_params(self):
        (action,) = parse(b"\x1b[5;10H")
        assert action.params == (5, 10)
        assert action.final == "H"

    def test_empty_params_are_none(self):
        (action,) = parse(b"\x1b[;5m")
        assert action.params == (None, 5)

    def test_param_defaulting(self):
        (action,) = parse(b"\x1b[0K")
        assert action.param(0, 1) == 1  # 0 maps to default
        assert action.raw_param(0, 1) == 0  # raw keeps 0

    def test_private_marker(self):
        (action,) = parse(b"\x1b[?25h")
        assert action.private == "?"
        assert action.params == (25,)

    def test_gt_marker(self):
        (action,) = parse(b"\x1b[>c")
        assert action.private == ">"

    def test_intermediate(self):
        (action,) = parse(b"\x1b[!p")
        assert action.intermediates == "!"
        assert action.final == "p"

    def test_colon_separators(self):
        (action,) = parse(b"\x1b[38:5:196m")
        assert action.params == (38, 5, 196)

    def test_huge_param_clamped(self):
        (action,) = parse(b"\x1b[999999999A")
        assert action.params[0] == 0xFFFF

    def test_too_many_params_capped(self):
        data = b"\x1b[" + b"1;" * 64 + b"m"
        (action,) = parse(data)
        assert len(action.params) <= 32

    def test_non_ascii_digits_ignored(self):
        # "²".isdigit() is true but int("²") raises: only 0-9 are digits.
        assert parse("\x1b[²mX".encode()) == [Print("X")]
        assert parse("\x1b[1;¹HY".encode()) == [Print("Y")]

    def test_csi_ignore_on_bad_byte(self):
        # '?' after params is invalid -> sequence consumed, nothing emitted
        actions = parse(b"\x1b[12?mX")
        assert actions == [Print("X")]


class TestOsc:
    def test_bel_terminated(self):
        (action,) = parse(b"\x1b]0;my title\x07")
        assert action == OscDispatch("0;my title")

    def test_st_terminated(self):
        (action,) = parse(b"\x1b]2;other\x1b\\")
        assert action == OscDispatch("2;other")

    def test_unterminated_swallows(self):
        assert parse(b"\x1b]0;never ends") == []

    def test_can_aborts_osc(self):
        actions = parse(b"\x1b]0;x\x18Y")
        assert actions == [Print("Y")]


class TestStringIgnore:
    def test_dcs_ignored(self):
        actions = parse(b"\x1bPsome dcs junk\x1b\\after")
        assert actions == [Print("after")]

    def test_apc_ignored(self):
        actions = parse(b"\x1b_payload\x1b\\X")
        assert actions == [Print("X")]


class TestRobustness:
    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=300))
    def test_never_raises(self, data):
        Parser().input(data)

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=200), st.integers(1, 10))
    def test_chunking_invariant(self, data, chunks):
        """Feeding in chunks gives the same actions as all at once, once
        the Print runs a chunk boundary splits are joined back."""
        whole = Parser().input(data)
        parser = Parser()
        split = []
        size = max(1, len(data) // chunks)
        for i in range(0, len(data), size):
            split.extend(parser.input(data[i : i + size]))
        assert merge_prints(whole) == merge_prints(split)
