"""Low-level statevector gate kernels.

Two interchangeable backends operate in place on a contiguous complex128
amplitude array of length 2**n with qubit 0 as the least-significant bit
of the basis-state index:

* ``numba``: scalar loops compiled with ``@njit`` (default when numba is
  importable).
* ``numpy``: vectorized slicing, used when numba is unavailable or when
  the environment variable ``QUILT_DISABLE_NUMBA`` is set to a truthy
  value ("1", "true", "yes").

Both backends perform the same per-amplitude arithmetic and their outputs
are checked to agree in the test suite; ``benchmarks/bench_kernels.py``
compares their throughput.  Arbitrary k-qubit unitaries and diagonals are
applied through a shared numpy path over a transposed view of the state,
one matrix product or one broadcast multiply (they are rare and not
loop-bound).
"""

from __future__ import annotations

import os

import numpy as np

_ENV_FLAG = "QUILT_DISABLE_NUMBA"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap


def _env_disabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in ("1", "true", "yes")


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------


@njit(cache=True)
def _nb_single(amps, q, a, b, c, d):
    step = 1 << q
    n = amps.shape[0]
    for base in range(0, n, step << 1):
        for i in range(base, base + step):
            j = i + step
            t = amps[i]
            u = amps[j]
            amps[i] = a * t + b * u
            amps[j] = c * t + d * u


@njit(cache=True)
def _nb_diag_single(amps, q, p0, p1):
    step = 1 << q
    n = amps.shape[0]
    for base in range(0, n, step << 1):
        for i in range(base, base + step):
            amps[i] = amps[i] * p0
            amps[i + step] = amps[i + step] * p1


@njit(cache=True)
def _nb_cx(amps, control, target):
    n = amps.shape[0]
    tbit = 1 << target
    for i in range(n):
        if (i >> control) & 1 == 1 and (i >> target) & 1 == 0:
            j = i | tbit
            t = amps[i]
            amps[i] = amps[j]
            amps[j] = t


@njit(cache=True)
def _nb_cz(amps, qa, qb):
    n = amps.shape[0]
    for i in range(n):
        if (i >> qa) & 1 == 1 and (i >> qb) & 1 == 1:
            amps[i] = -amps[i]


@njit(cache=True)
def _nb_rzz(amps, qa, qb, same, diff):
    n = amps.shape[0]
    for i in range(n):
        if ((i >> qa) ^ (i >> qb)) & 1 == 0:
            amps[i] = amps[i] * same
        else:
            amps[i] = amps[i] * diff


@njit(cache=True)
def _nb_two(amps, qa, qb, m):
    # m is 4x4 little-endian over (qa, qb): row/col index = bit(qa) + 2*bit(qb)
    n = amps.shape[0]
    abit = 1 << qa
    bbit = 1 << qb
    for i in range(n):
        if (i >> qa) & 1 == 0 and (i >> qb) & 1 == 0:
            i0 = i
            i1 = i | abit
            i2 = i | bbit
            i3 = i | abit | bbit
            v0 = amps[i0]
            v1 = amps[i1]
            v2 = amps[i2]
            v3 = amps[i3]
            amps[i0] = m[0, 0] * v0 + m[0, 1] * v1 + m[0, 2] * v2 + m[0, 3] * v3
            amps[i1] = m[1, 0] * v0 + m[1, 1] * v1 + m[1, 2] * v2 + m[1, 3] * v3
            amps[i2] = m[2, 0] * v0 + m[2, 1] * v1 + m[2, 2] * v2 + m[2, 3] * v3
            amps[i3] = m[3, 0] * v0 + m[3, 1] * v1 + m[3, 2] * v2 + m[3, 3] * v3


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------


def _np_single(amps, q, a, b, c, d):
    view = amps.reshape(-1, 2, 1 << q)
    t = view[:, 0, :].copy()
    u = view[:, 1, :]
    view[:, 0, :] = a * t + b * u
    view[:, 1, :] = c * t + d * u


def _np_diag_single(amps, q, p0, p1):
    view = amps.reshape(-1, 2, 1 << q)
    view[:, 0, :] *= p0
    view[:, 1, :] *= p1


def _np_bit_slices(n_qubits, assignments):
    # assignments: list of (qubit, bit); axis for qubit q is n-1-q.
    sl = [slice(None)] * n_qubits
    for q, bit in assignments:
        sl[n_qubits - 1 - q] = bit
    return tuple(sl)


def _np_cx(amps, control, target):
    n = amps.size.bit_length() - 1
    view = amps.reshape([2] * n)
    s10 = _np_bit_slices(n, [(control, 1), (target, 0)])
    s11 = _np_bit_slices(n, [(control, 1), (target, 1)])
    tmp = view[s10].copy()
    view[s10] = view[s11]
    view[s11] = tmp


def _np_cz(amps, qa, qb):
    n = amps.size.bit_length() - 1
    view = amps.reshape([2] * n)
    view[_np_bit_slices(n, [(qa, 1), (qb, 1)])] *= -1


def _np_rzz(amps, qa, qb, same, diff):
    n = amps.size.bit_length() - 1
    view = amps.reshape([2] * n)
    view[_np_bit_slices(n, [(qa, 0), (qb, 0)])] *= same
    view[_np_bit_slices(n, [(qa, 1), (qb, 1)])] *= same
    view[_np_bit_slices(n, [(qa, 0), (qb, 1)])] *= diff
    view[_np_bit_slices(n, [(qa, 1), (qb, 0)])] *= diff


def _np_two(amps, qa, qb, m):
    apply_unitary(amps, (qa, qb), m)


# ---------------------------------------------------------------------------
# shared generic path
# ---------------------------------------------------------------------------


def apply_unitary(amps: np.ndarray, targets, matrix: np.ndarray) -> None:
    """Apply a 2^k x 2^k unitary to ``targets`` (little-endian over targets).

    Row/column index of ``matrix`` is sum_j bit(targets[j]) << j.  Used for
    the escape-hatch unitary gate and as the numpy fallback for generic
    two-qubit matrices.  The state is viewed as a tensor transposed so the
    target axes come first, most significant matrix bit first; that view
    reshaped to ``(2**k, rest)`` is one matrix product, written back through
    the view.
    """
    k = len(targets)
    n = amps.size.bit_length() - 1
    # psi axis of qubit q is n-1-q; the matrix's leading bit is targets[k-1]
    first = [n - 1 - q for q in reversed(targets)]
    view = amps.reshape([2] * n).transpose(first + [a for a in range(n) if a not in first])
    u = np.asarray(matrix, dtype=np.complex128)
    view[...] = (u @ view.reshape(1 << k, -1)).reshape(view.shape)


def apply_diagonal(amps: np.ndarray, targets, phases: np.ndarray) -> None:
    """Multiply the amplitudes by a diagonal over ``targets``.

    ``phases[sum_j bit(targets[j]) << j]`` multiplies every amplitude with
    those target bits.  The state is viewed as in :func:`apply_unitary`,
    target axes first, and the phases broadcast over the rest.
    """
    k = len(targets)
    n = amps.size.bit_length() - 1
    first = [n - 1 - q for q in reversed(targets)]
    view = amps.reshape([2] * n).transpose(first + [a for a in range(n) if a not in first])
    view *= np.asarray(phases, dtype=np.complex128).reshape([2] * k + [1] * (n - k))


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_NUMBA_IMPL = {
    "single": _nb_single,
    "diag_single": _nb_diag_single,
    "cx": _nb_cx,
    "cz": _nb_cz,
    "rzz": _nb_rzz,
    "two": _nb_two,
}

_NUMPY_IMPL = {
    "single": _np_single,
    "diag_single": _np_diag_single,
    "cx": _np_cx,
    "cz": _np_cz,
    "rzz": _np_rzz,
    "two": _np_two,
}

_backend_name = "numba" if HAVE_NUMBA and not _env_disabled() else "numpy"
_impl = _NUMBA_IMPL if _backend_name == "numba" else _NUMPY_IMPL


def active_backend() -> str:
    """Name of the backend currently in use ("numba" or "numpy")."""
    return _backend_name


def use_backend(name: str) -> None:
    """Select the kernel backend explicitly (mainly for tests/benchmarks)."""
    global _backend_name, _impl
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not installed")
        _impl = _NUMBA_IMPL
    elif name == "numpy":
        _impl = _NUMPY_IMPL
    else:
        raise ValueError(f"unknown kernel backend {name!r}")
    _backend_name = name


# ---------------------------------------------------------------------------
# public kernel API (in place)
# ---------------------------------------------------------------------------


def apply_single(amps: np.ndarray, q: int, matrix: np.ndarray) -> None:
    m = matrix
    _impl["single"](amps, q, m[0, 0], m[0, 1], m[1, 0], m[1, 1])


def apply_diag_single(amps: np.ndarray, q: int, p0: complex, p1: complex) -> None:
    _impl["diag_single"](amps, q, p0, p1)


def apply_cx(amps: np.ndarray, control: int, target: int) -> None:
    _impl["cx"](amps, control, target)


def apply_cz(amps: np.ndarray, qa: int, qb: int) -> None:
    _impl["cz"](amps, qa, qb)


def apply_rzz(amps: np.ndarray, qa: int, qb: int, theta: float) -> None:
    same = np.exp(-0.5j * theta)
    diff = np.exp(0.5j * theta)
    _impl["rzz"](amps, qa, qb, same, diff)


def apply_two(amps: np.ndarray, qa: int, qb: int, matrix: np.ndarray) -> None:
    _impl["two"](amps, qa, qb, np.ascontiguousarray(matrix, dtype=np.complex128))
