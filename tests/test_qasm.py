import math

import numpy as np
import pytest

from quilt.circuit import Circuit, Gate, GateKind, cx, h, measure, rzz
from quilt.qasm import QasmError, emit, parse
from quilt.simsv import sample, simulate

from oracles import random_circuit


def test_parse_single_h():
    c = parse("OPENQASM 2.0; qreg q[1]; h q[0];")
    assert c.n_qubits == 1
    assert c.gates == (h(0),)


def test_parse_index_out_of_range_has_location():
    src = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];\n"
    with pytest.raises(QasmError) as exc:
        parse(src)
    assert exc.value.line == 3
    assert "out of range" in str(exc.value)


def test_parse_unknown_gate():
    with pytest.raises(QasmError) as exc:
        parse("OPENQASM 2.0; qreg q[1]; frob q[0];")
    assert "unknown gate" in str(exc.value)


def test_bell_program_counts():
    src = (
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    c = parse(src)
    assert len(c) == 4
    counts = sample(simulate(c), 2000, seed=3)
    assert set(counts) <= {"00", "11"}


def test_emit_single_line_form():
    assert emit(Circuit(1, (h(0),))) == "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n"


def test_emit_pi_fraction():
    text = emit(Circuit(2, (rzz(0, 1, math.pi / 2),)))
    assert "rzz(pi/2) q[0],q[1];" in text


def test_emit_rejects_unbound():
    from quilt.circuit import rz

    with pytest.raises(QasmError):
        emit(Circuit(1, (rz(0, "a"),)))


def test_angle_forms_parse():
    c = parse(
        "OPENQASM 2.0; qreg q[1]; rz(pi) q[0]; rz(-pi/2) q[0]; "
        "rz(3*pi/4) q[0]; rz(0.25) q[0]; rz(-1e-3) q[0]; rz(2) q[0];"
    )
    angles = [g.param for g in c.gates]
    assert angles == [math.pi, -math.pi / 2, 3 * math.pi / 4, 0.25, -1e-3, 2.0]


def test_emit_parse_canonical_roundtrip():
    src = "OPENQASM 2.0;  qreg q[2];\n\nh q[0]; // comment\ncx q[0] , q[1];"
    c = parse(src)
    assert parse(emit(c)) == c
    # emit(parse(.)) is the canonical form: a fixed point of the round trip
    canonical = emit(c)
    assert emit(parse(canonical)) == canonical


def test_roundtrip_1000_random_circuits():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        c = random_circuit(rng, n, int(rng.integers(0, 51)))
        if rng.random() < 0.3:
            for q in range(n):
                c = c.with_gate(measure(q))
        assert parse(emit(c)) == c


def test_parser_never_panics_on_fuzz():
    rng = np.random.default_rng(17)
    for _ in range(400):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 120))).tolist())
        try:
            parse(blob.decode("utf-8", errors="replace"))
        except QasmError:
            pass  # diagnostics are the only acceptable failure mode


def test_parser_fuzz_structured_mutations():
    base = emit(Circuit(3, (h(0), cx(0, 1), rzz(1, 2, 0.4))))
    rng = np.random.default_rng(23)
    for _ in range(300):
        chars = list(base)
        for _ in range(int(rng.integers(1, 6))):
            pos = int(rng.integers(0, len(chars)))
            chars[pos] = chr(int(rng.integers(32, 127)))
        try:
            parse("".join(chars))
        except QasmError:
            pass


def test_measure_requires_matching_classical_index():
    src = "OPENQASM 2.0; qreg q[2]; creg c[2]; measure q[0] -> c[1];"
    with pytest.raises(QasmError):
        parse(src)


def test_measure_requires_creg():
    with pytest.raises(QasmError):
        parse("OPENQASM 2.0; qreg q[1]; measure q[0] -> c[0];")


def test_trailing_garbage_rejected():
    with pytest.raises(QasmError):
        parse("OPENQASM 2.0; qreg q[1]; h q[0]; ???")


@pytest.mark.parametrize("gate", [
    Gate(GateKind.UNITARY, (0, 1), matrix=np.eye(4)),
    Gate(GateKind.DIAGONAL, (1, 0), matrix=np.array([1, 1j, -1, 1])),
])
def test_emit_refuses_escape_hatch_gates(gate):
    with pytest.raises(QasmError, match="no assembly form"):
        emit(Circuit(2, (h(0), gate)))
