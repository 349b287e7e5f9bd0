import contextlib
import functools
import io
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import wstate.instrument
from wstate.cli import main
from wstate.errors import InvalidState
from wstate.instrument import MeasurementOperator, QuantumInstrument, QuantumState
from wstate.subroutines import _gqt_frame, _qhp_frame, _qsp_frame, _teleport_frame
from wstate.tensor import DenseOperator, PermutationUnitary, Register, RegisterLayout, form

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(*argv: str) -> CliResult:
    """Run `wstate argv...` in this process and capture its exit code,
    stdout and stderr. An exception other than SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def fresh_frames():
    """The builders' frames (subroutines) built anew, so that a test which
    counts what a build derives sees nothing an earlier test derived; the
    fixture's value clears them again."""

    def clear():
        for frame in (_qhp_frame, _gqt_frame, _qsp_frame, _teleport_frame):
            frame.cache_clear()

    clear()
    return clear


def rand_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def rand_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a + a.conj().T


def rand_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def preparation_unitary(phi):
    """Unitary with phi as its first column (Householder reflection)."""
    v = np.asarray(phi, dtype=np.complex128)
    d = v.shape[0]
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise InvalidState("can only prepare a normalized state")
    phase = v[0] / abs(v[0]) if abs(v[0]) > 1e-14 else 1.0
    e0 = np.zeros(d, dtype=np.complex128)
    e0[0] = 1.0
    w = v - phase * e0
    nw = float(np.linalg.norm(w))
    if nw < 1e-14:
        u = np.eye(d, dtype=np.complex128)
    else:
        w = w / nw
        u = np.eye(d, dtype=np.complex128) - 2.0 * np.outer(w, w.conj())
    u[:, 0] *= phase  # H maps phase*e0 -> v, so fold the phase into column 0
    return u


def reference_weighted_output(inst, inputs):
    """tau = Tr_EG[U (sigma (x) rho_in) U^dag (I_S (x) M (x) I_G)], densely:
    rho_in is the np.kron of the input pieces (states, weighted states,
    vectors or matrices, in input-register order), sigma (x) rho_in is
    permuted into layout order, and U and M are read as matrices (an array
    as it is, a form through its dense())."""
    def dense(x):
        m = np.asarray(getattr(x, "matrix", x), dtype=np.complex128)
        return np.outer(m, m.conj()) if m.ndim == 1 else m

    regs, dims = inst.layout.registers, inst.layout.dims
    pieces = [inputs] if not isinstance(inputs, (list, tuple)) else list(inputs)
    mats = ([] if inst.ancilla is None else [inst.ancilla.matrix]) + [dense(x) for x in pieces]
    order = ([i for i, r in enumerate(regs) if r.source == "ancilla"]
             + [i for i, r in enumerate(regs) if r.source == "input"])
    k, d = len(dims), int(np.prod(dims))
    back = list(np.argsort(order))
    rho = functools.reduce(np.kron, mats).reshape([dims[p] for p in order] * 2)
    rho = rho.transpose(back + [k + i for i in back]).reshape(d, d)
    u = np.asarray(getattr(inst.unitary, "dense", lambda: inst.unitary)())
    out = u @ rho @ u.conj().T
    # rows and columns regrouped as (S, E, G), then Tr_EG[out (I (x) M (x) I)]
    roles = {role: [i for i, r in enumerate(regs) if r.role == role] for role in "SEG"}
    axes = roles["S"] + roles["E"] + roles["G"]
    size = [int(np.prod([dims[i] for i in roles[role]])) for role in "SEG"]
    out = out.reshape(dims * 2).transpose(axes + [k + i for i in axes]).reshape(size * 2)
    return np.einsum("segtfg,fe->st", out, inst.measurement.matrix)


def table_held(inst):
    """The same instrument holding its unitary's table on the same
    registers: for a ControlledSwap, the table it derives, which takes the
    gather path and whose evolution holds the joint ket and bra."""
    u = inst.unitary
    return replace(inst, unitary=PermutationUnitary(u.perm, u.labels, u.layout))


@contextlib.contextmanager
def no_gather():
    """Fail on a gather (preimage or image indices, apply_gathered) or on
    product columns (instrument._kron_factors) inside the block."""

    def fail(*args, **kwargs):
        raise AssertionError("a controlled-SWAP evolution gathered or formed product columns")

    with pytest.MonkeyPatch.context() as patch:
        for cls in (PermutationUnitary, DenseOperator):
            for name in ("preimage_indices", "image_indices", "apply_gathered"):
                patch.setattr(cls, name, fail)
        patch.setattr(wstate.instrument, "_kron_factors", fail)
        yield


def emulate_nonnormal(inst):
    """Single physical instrument equivalent to one with a non-normal M.

    Adds a measured qudit ancilla in the mixed state diag(q_k) with
    q_k = |c_k|/sum|c_k| and the block measurement sum_k |k><k| (x) N_k
    (rescaled so each block absorbs c_k/q_k); the result has a normal
    measurement and the same weighted output on every input, and its law is
    the one sampling._joint_cells draws from. A permutation U keeps its
    table, held on the same registers of the new layout.
    """
    parts = [(c, n) for c, n in inst.measurement.normal_parts() if c != 0]
    total = sum(abs(c) for c, _ in parts)
    q = np.array([abs(c) / total for c, _ in parts])
    nk = len(parts)

    k_label = "K"
    while k_label in inst.layout.labels:
        k_label += "'"
    k_reg = Register(k_label, nk, role="E", source="ancilla")
    new_layout = RegisterLayout(inst.layout.registers + (k_reg,))

    # measurement on the E sub-layout: old E registers (major) then K (minor),
    # block k on the diagonal of K
    d_e_old = inst.layout.dim_of(inst.e_labels)
    blocks = np.zeros((d_e_old, nk, d_e_old, nk), dtype=np.complex128)
    for k, ((c, n), qk) in enumerate(zip(parts, q)):
        blocks[:, k, :, k] = (c / qk) * form(n).dense()
    m_new = blocks.reshape(d_e_old * nk, d_e_old * nk)

    anc_layout = new_layout.sub(r.label for r in new_layout.registers if r.source == "ancilla")
    rho = inst.ancilla.matrix if inst.ancilla else np.ones((1, 1))
    anc_state = QuantumState(anc_layout, density=np.kron(rho, np.diag(q)))

    return QuantumInstrument(
        new_layout,
        ancilla=anc_state,
        unitary=form(inst.unitary).placed(inst.layout.labels, new_layout),
        measurement=MeasurementOperator.of(m_new),
    )
