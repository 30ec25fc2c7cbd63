"""Assembly-text interchange format for circuits (OpenQASM 2 subset).

Grammar (normative; UTF-8, ``.qasm`` files)::

    program   := "OPENQASM 2.0;" qreg [creg] statement*
    qreg      := "qreg" NAME "[" INT "];"
    creg      := "creg" NAME "[" INT "];"
    statement := GATE ["(" angle ")"] arg ("," arg)* ";"
               | "measure" arg "->" carg ";"
    arg       := QREG_NAME "[" INT "]"
    angle     := FLOAT | ["-"] [INT "*"] "pi" ["/" INT]

Gate mnemonics: h x y z s sdg t rx ry rz rzz cx cz.  ``rzz`` is carried as
a primitive mnemonic so the spin-chain workloads round-trip without a
decomposition pass.  ``//`` comments are skipped.  A measure's classical
index must equal its qubit index (the IR keeps no classical wiring).

Parsing never raises anything but :class:`QasmError`, which carries a
1-based line and column for diagnostics.  ``parse(emit(c))`` is the
identity on every measurable circuit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .circuit import Circuit, Gate, GateKind, ROTATION_KINDS, TWO_QUBIT_KINDS

_GATE_MNEMONICS = {
    "h": GateKind.H,
    "x": GateKind.X,
    "y": GateKind.Y,
    "z": GateKind.Z,
    "s": GateKind.S,
    "sdg": GateKind.SDG,
    "t": GateKind.T,
    "rx": GateKind.RX,
    "ry": GateKind.RY,
    "rz": GateKind.RZ,
    "rzz": GateKind.RZZ,
    "cx": GateKind.CX,
    "cz": GateKind.CZ,
}

_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_FLOAT_RE = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?")


class QasmError(ValueError):
    """Parse or emit failure with a 1-based source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line else ""
        super().__init__(f"{message}{where}")


class _Scanner:
    """Cursor over the source with location-tagged primitives."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def location(self, pos: int | None = None) -> tuple[int, int]:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message: str, pos: int | None = None) -> QasmError:
        line, col = self.location(pos)
        return QasmError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif self.text.startswith("//", self.pos):
                nl = self.text.find("\n", self.pos)
                self.pos = len(self.text) if nl < 0 else nl + 1
            else:
                return

    @property
    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def try_take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def take_re(self, pattern: re.Pattern, what: str) -> str:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if not m:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m.group(0)

    def take_int(self, what: str = "integer") -> int:
        return int(self.take_re(_INT_RE, what))

    def take_name(self) -> str:
        return self.take_re(_NAME_RE, "identifier")


def _parse_angle(sc: _Scanner) -> float:
    """decimal literal, or [-][k*]pi[/m]."""
    sc.skip_ws()
    start = sc.pos
    sign = 1.0
    if sc.try_take("-"):
        sign = -1.0
    sc.skip_ws()
    m = _INT_RE.match(sc.text, sc.pos)
    mult = 1
    if m is not None:
        probe = sc.text[m.end():].lstrip()
        if probe.startswith("*"):
            mult = int(m.group(0))
            sc.pos = m.end()
            sc.expect("*")
    sc.skip_ws()
    if sc.text.startswith("pi", sc.pos):
        sc.pos += 2
        value = mult * math.pi
        if sc.try_take("/"):
            den = sc.take_int("angle denominator")
            if den == 0:
                raise sc.error("zero angle denominator", start)
            value /= den
        return sign * value
    if mult != 1:
        raise sc.error("expected 'pi' after multiplier", start)
    sc.pos = start
    m = _FLOAT_RE.match(sc.text, sc.pos)
    if not m:
        raise sc.error("expected angle (decimal or pi form)")
    sc.pos = m.end()
    try:
        return float(m.group(0))
    except ValueError:  # pragma: no cover - regex precludes this
        raise sc.error("bad angle literal", start)


def parse(text: str) -> Circuit:
    """Parse assembly text into a :class:`Circuit`.

    Raises :class:`QasmError` (and nothing else) on any malformed input,
    including arbitrary bytes.
    """
    if not isinstance(text, str):
        try:
            text = bytes(text).decode("utf-8")
        except Exception:
            raise QasmError("input is not valid UTF-8 text")
    sc = _Scanner(text)
    try:
        sc.expect("OPENQASM")
        sc.expect("2.0")
        sc.expect(";")
        sc.expect("qreg")
        qreg_name = sc.take_name()
        sc.expect("[")
        n_qubits = sc.take_int("register size")
        sc.expect("]")
        sc.expect(";")
        if n_qubits < 1:
            raise sc.error("quantum register must have at least one qubit")
        creg_name = None
        n_clbits = 0
        save = sc.pos
        if sc.try_take("creg"):
            creg_name = sc.take_name()
            sc.expect("[")
            n_clbits = sc.take_int("register size")
            sc.expect("]")
            sc.expect(";")
        else:
            sc.pos = save

        def qubit_arg() -> int:
            sc.skip_ws()
            at = sc.pos
            name = sc.take_name()
            if name != qreg_name:
                raise sc.error(f"unknown register {name!r}", at)
            sc.expect("[")
            at = sc.pos
            idx = sc.take_int("qubit index")
            sc.expect("]")
            if idx >= n_qubits:
                raise sc.error(
                    f"qubit index {idx} out of range for {qreg_name}[{n_qubits}]", at
                )
            return idx

        gates: list[Gate] = []
        while not sc.at_end:
            sc.skip_ws()
            at = sc.pos
            word = sc.take_name()
            if word == "measure":
                q = qubit_arg()
                sc.expect("->")
                sc.skip_ws()
                cat = sc.pos
                cname = sc.take_name()
                if creg_name is None or cname != creg_name:
                    raise sc.error(f"unknown classical register {cname!r}", cat)
                sc.expect("[")
                cat = sc.pos
                cidx = sc.take_int("classical index")
                sc.expect("]")
                if cidx >= n_clbits:
                    raise sc.error(
                        f"classical index {cidx} out of range for "
                        f"{creg_name}[{n_clbits}]",
                        cat,
                    )
                if cidx != q:
                    raise sc.error(
                        f"classical target c[{cidx}] must equal qubit index {q}", cat
                    )
                sc.expect(";")
                gates.append(Gate(GateKind.MEASURE, (q,)))
                continue
            kind = _GATE_MNEMONICS.get(word)
            if kind is None:
                raise sc.error(f"unknown gate {word!r}", at)
            param = None
            if kind in ROTATION_KINDS:
                sc.expect("(")
                param = _parse_angle(sc)
                sc.expect(")")
            qubits = [qubit_arg()]
            if kind in TWO_QUBIT_KINDS:
                sc.expect(",")
                qubits.append(qubit_arg())
            sc.expect(";")
            try:
                gates.append(Gate(kind, tuple(qubits), param))
            except ValueError as exc:
                raise sc.error(str(exc), at)
        try:
            return Circuit(n_qubits, tuple(gates))
        except ValueError as exc:
            raise QasmError(str(exc))
    except QasmError:
        raise
    except RecursionError:  # pragma: no cover - flat grammar, defensive only
        raise QasmError("input too deeply nested")


def _format_angle(theta: float) -> str:
    """Prefer exact small multiples of pi; fall back to repr round-tripping."""
    if theta == 0.0:
        return "0"
    frac = Fraction(theta / math.pi).limit_denominator(64)
    if frac != 0:
        k, m = frac.numerator, frac.denominator
        if abs(k) <= 64 and (k * math.pi) / m == theta:
            sign = "-" if k < 0 else ""
            k = abs(k)
            head = "pi" if k == 1 else f"{k}*pi"
            tail = "" if m == 1 else f"/{m}"
            return f"{sign}{head}{tail}"
    return repr(float(theta))


def emit(circuit: Circuit) -> str:
    """Emit deterministic assembly text (one statement per line)."""
    if not circuit.is_bound:
        raise QasmError(f"cannot emit with unbound parameters {circuit.params}")
    lines = ["OPENQASM 2.0;", f"qreg q[{circuit.n_qubits}];"]
    if circuit.has_measure:
        lines.append(f"creg c[{circuit.n_qubits}];")
    for g in circuit.gates:
        if g.kind in (GateKind.UNITARY, GateKind.DIAGONAL):
            raise QasmError(f"{g.kind.value} escape-hatch gates have no assembly form")
        if g.kind is GateKind.MEASURE:
            q = g.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
            continue
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind in ROTATION_KINDS:
            lines.append(f"{g.kind.value}({_format_angle(float(g.param))}) {args};")
        else:
            lines.append(f"{g.kind.value} {args};")
    return "\n".join(lines) + "\n"
