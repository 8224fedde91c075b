"""Escape-sequence parser.

A port of the classic VT500-series state machine (the same design Mosh,
xterm, and libvterm use): bytes are first decoded from UTF-8 incrementally,
then walked through states that emit actions — print a run of characters,
execute a C0 control, or dispatch an ESC / CSI / OSC sequence. Malformed
input never raises; unrecognized sequences are consumed and ignored, which
is what real terminals do.

In ground state one precompiled regex finds the next C0 control or DEL,
and the characters before it are emitted as one ``Print`` run; every other
character walks the state machine one at a time. A chunk boundary (or a
dropped DEL, CAN or SUB) can split a run, so consumers must treat adjacent
``Print`` actions exactly like their concatenation.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass

_MAX_PARAMS = 32
_MAX_OSC = 4096

#: The characters that end a printable run: C0 controls and DEL.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")


@dataclass(frozen=True)
class Print:
    text: str


@dataclass(frozen=True)
class Execute:
    byte: int  # C0 control code


@dataclass(frozen=True)
class EscDispatch:
    intermediates: str
    final: str


@dataclass(frozen=True)
class CsiDispatch:
    private: str  # '?', '>', '<', '=' or ''
    params: tuple[int | None, ...]
    intermediates: str
    final: str

    def param(self, index: int, default: int) -> int:
        """Parameter ``index`` with ECMA-48 defaulting (0 → default too)."""
        if index >= len(self.params):
            return default
        value = self.params[index]
        if value is None or value == 0:
            return default
        return value

    def raw_param(self, index: int, default: int) -> int:
        """Parameter with only missing/None defaulted (0 stays 0)."""
        if index >= len(self.params):
            return default
        value = self.params[index]
        return default if value is None else value


@dataclass(frozen=True)
class OscDispatch:
    text: str


Action = Print | Execute | EscDispatch | CsiDispatch | OscDispatch

# Parser states.
_GROUND = 0
_ESCAPE = 1
_ESCAPE_INTERMEDIATE = 2
_CSI_ENTRY = 3
_CSI_PARAM = 4
_CSI_INTERMEDIATE = 5
_CSI_IGNORE = 6
_OSC_STRING = 7
_STRING_IGNORE = 8  # DCS / SOS / PM / APC


class Parser:
    """Incremental parser: feed bytes, receive a list of actions."""

    def __init__(self) -> None:
        self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self._state = _GROUND
        self._intermediates = ""
        self._private = ""
        self._params: list[int | None] = []
        self._osc = ""
        self._osc_esc_pending = False
        self._param_digits = ""

    # ------------------------------------------------------------------

    def input(self, data: bytes) -> list[Action]:
        """Parse a chunk of host output (may end mid-sequence)."""
        actions: list[Action] = []
        text = self._decoder.decode(data)
        find_control = _CONTROL.search
        pos = 0
        end = len(text)
        while pos < end:
            if self._state == _GROUND:
                # Print everything up to the next control as one run.
                control = find_control(text, pos)
                if control is None:
                    actions.append(Print(text[pos:]))
                    break
                stop = control.start()
                if stop > pos:
                    actions.append(Print(text[pos:stop]))
                    pos = stop
            self._consume(text[pos], actions)
            pos += 1
        return actions

    # ------------------------------------------------------------------

    def _consume(self, ch: str, out: list[Action]) -> None:
        code = ord(ch)
        state = self._state

        # String-collecting states handle controls specially.
        if state == _OSC_STRING:
            self._consume_osc(ch, code, out)
            return
        if state == _STRING_IGNORE:
            self._consume_string_ignore(ch, code)
            return

        # CAN and SUB abort any sequence; ESC restarts one.
        if code == 0x18 or code == 0x1A:
            self._state = _GROUND
            return
        if code == 0x1B:
            self._state = _ESCAPE
            self._intermediates = ""
            return
        # Other C0 controls execute immediately, even inside sequences.
        if code < 0x20:
            out.append(Execute(code))
            return
        if code == 0x7F:
            return  # DEL is ignored

        # A printable character in ground state never gets here: input()
        # takes those as runs.
        if state == _ESCAPE:
            self._in_escape(ch, code, out)
        elif state == _ESCAPE_INTERMEDIATE:
            if 0x20 <= code <= 0x2F:
                self._intermediates += ch
            else:
                out.append(EscDispatch(self._intermediates, ch))
                self._state = _GROUND
        elif state == _CSI_ENTRY:
            self._in_csi_entry(ch, code, out)
        elif state == _CSI_PARAM:
            self._in_csi_param(ch, code, out)
        elif state == _CSI_INTERMEDIATE:
            if 0x20 <= code <= 0x2F:
                self._intermediates += ch
            elif 0x40 <= code <= 0x7E:
                self._dispatch_csi(ch, out)
            else:
                self._state = _CSI_IGNORE
        elif state == _CSI_IGNORE:
            if 0x40 <= code <= 0x7E:
                self._state = _GROUND

    # ------------------------------------------------------------------

    def _in_escape(self, ch: str, code: int, out: list[Action]) -> None:
        if ch == "[":
            self._state = _CSI_ENTRY
            self._private = ""
            self._params = []
            self._intermediates = ""
            self._param_digits = ""
        elif ch == "]":
            self._state = _OSC_STRING
            self._osc = ""
            self._osc_esc_pending = False
        elif ch in "PX^_":
            self._state = _STRING_IGNORE
            self._osc_esc_pending = False
        elif 0x20 <= code <= 0x2F:
            self._intermediates = ch
            self._state = _ESCAPE_INTERMEDIATE
        elif 0x30 <= code <= 0x7E:
            out.append(EscDispatch("", ch))
            self._state = _GROUND
        else:
            self._state = _GROUND

    # ------------------------------------------------------------------

    def _push_param(self) -> None:
        if len(self._params) < _MAX_PARAMS:
            if self._param_digits == "":
                self._params.append(None)
            else:
                self._params.append(min(int(self._param_digits), 0xFFFF))
        self._param_digits = ""

    def _in_csi_entry(self, ch: str, code: int, out: list[Action]) -> None:
        if 0x3C <= code <= 0x3F:  # < = > ?
            self._private = ch
            self._state = _CSI_PARAM
        elif 0x30 <= code <= 0x39 or ch in ";:":
            self._state = _CSI_PARAM
            self._in_csi_param(ch, code, out)
        elif 0x20 <= code <= 0x2F:
            self._intermediates += ch
            self._state = _CSI_INTERMEDIATE
        elif 0x40 <= code <= 0x7E:
            self._dispatch_csi(ch, out)
        else:
            self._state = _CSI_IGNORE

    def _in_csi_param(self, ch: str, code: int, out: list[Action]) -> None:
        # Only ASCII digits: str.isdigit() also accepts "²", which int()
        # rejects; other non-ASCII input falls through to _CSI_IGNORE.
        if 0x30 <= code <= 0x39:
            self._param_digits += ch
        elif ch == ";" or ch == ":":
            # Colon sub-parameters (SGR 38:5:n) are flattened, which the
            # SGR handler copes with.
            self._push_param()
        elif 0x20 <= code <= 0x2F:
            self._intermediates += ch
            self._state = _CSI_INTERMEDIATE
        elif 0x3C <= code <= 0x3F:
            self._state = _CSI_IGNORE
        elif 0x40 <= code <= 0x7E:
            self._dispatch_csi(ch, out)
        else:
            self._state = _CSI_IGNORE

    def _dispatch_csi(self, final: str, out: list[Action]) -> None:
        if self._param_digits or self._params:
            self._push_param()
        out.append(
            CsiDispatch(
                private=self._private,
                params=tuple(self._params),
                intermediates=self._intermediates,
                final=final,
            )
        )
        self._state = _GROUND

    # ------------------------------------------------------------------

    def _consume_osc(self, ch: str, code: int, out: list[Action]) -> None:
        if self._osc_esc_pending:
            self._osc_esc_pending = False
            if ch == "\\":  # ST
                out.append(OscDispatch(self._osc))
                self._state = _GROUND
                return
            # ESC followed by something else: abort the string, reprocess.
            self._state = _ESCAPE
            self._intermediates = ""
            self._consume(ch, out)
            return
        if code == 0x07:  # BEL terminator
            out.append(OscDispatch(self._osc))
            self._state = _GROUND
        elif code == 0x1B:
            self._osc_esc_pending = True
        elif code == 0x18 or code == 0x1A:
            self._state = _GROUND
        elif code >= 0x20 and len(self._osc) < _MAX_OSC:
            self._osc += ch

    def _consume_string_ignore(self, ch: str, code: int) -> None:
        if self._osc_esc_pending:
            self._osc_esc_pending = False
            if ch == "\\":
                self._state = _GROUND
                return
            if ch == "[":
                # Treat as a fresh CSI after an aborted string.
                self._state = _CSI_ENTRY
                self._private = ""
                self._params = []
                self._intermediates = ""
                self._param_digits = ""
                return
            self._state = _GROUND
            return
        if code == 0x1B:
            self._osc_esc_pending = True
        elif code == 0x07 or code == 0x18 or code == 0x1A:
            self._state = _GROUND
