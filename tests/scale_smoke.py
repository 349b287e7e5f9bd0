"""Exact evaluation and estimation at scale: GQT at n = 8 and 10, teleport at
n = 7 and 9, QSP at n = 8 and 11, GQT and teleport at n = 7 on density
inputs, `wstate variance` on a QSP n = 7 document, and QHP at n = 10.
GQT at n = 10 also runs variance_bound after apply_exact and prints its
time; its peak counts against that case's bound.

Each apply_exact must match its closed-form oracle (subroutines.gqt,
subroutines.teleport_map and subroutines.qsp_oracle). At GQT n = 8 and
teleport n = 7 it must hold, at its tracemalloc peak, at most 1.3 times the
bytes of the dense evolved ket (d^3 complex entries for pure inputs): 256 MiB
at n = 8 and 32 MiB at n = 7. A ket of that size would take 16 GiB at GQT
n = 10 and 2 GiB at teleport n = 9, so there the peak, instrument build
included, has an absolute bound: 256 MiB and 128 MiB. QSP at n = 8 takes a
mixed ancilla and two full-rank density inputs, whose joint ket (2 d^2 rows,
d^2 columns) would take 64 GiB; its bound is 16 MiB, build included. QSP
at n = 11 takes a mixed ancilla and two pure inputs: its four d x d blocks
are 256 MiB and tau 64 MiB, and its bound is 384 MiB, build included. GQT
and teleport at n = 7 on two full-rank density inputs, whose product
columns (d^2 rows, d^2 columns) would take 4 GiB, keep the pieces apart
too: 16 MiB each, build included. Two
sample_estimate calls on the same instrument must then give equal reports,
and what the instrument keeps of its evaluation plan (tracemalloc, current
bytes after gc.collect()) must stay below 1/8 of the dense ket at n = 8 and
7, and below the peak bound where that is absolute. The QSP n = 7 task
document (two full-rank density inputs, 2.5 MB) runs through
`wstate variance` in process: it must exit 0, its mean must match
qsp_oracle, and its peak, the document's parse included, must stay below
32 MiB. QHP at n = 10 on two pure inputs runs apply_exact alone: it must
match subroutines.qhp, and its peak, the build's dense d x d M included,
must stay below 80 MiB. Each case then drops its instrument and outputs and
reads what the library still holds of it (tracemalloc, current bytes after
gc.collect()): above subroutines.FRAME_QUBITS (6) the builders keep no
frame, so this is the identity a permutation M's groups keep
(PermutationUnitary.identity). The sum over the cases, an upper bound of
what the library holds after them all, must stay below 12 MiB. Last, two
QHP n = 5 instruments, whose frame and its route are kept and warmed
beforehand, are chained on three pure inputs, the second fed the first's
weighted state through apply_exact: it must match subroutines.qhp applied
twice, peak below 48 MiB, and hold below 4 KiB once both stages are gone,
so that the chain derives nothing on the kept frame (an Xor's table there
would be 8 KiB).

Run from the repository root:

    PYTHONPATH=src timeout 60 python tests/scale_smoke.py
"""

import contextlib
import gc
import io
import json
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from wstate.cli import main as cli_main
from wstate.instrument import QuantumState, apply_exact, expectation
from wstate.sampling import sample_estimate, variance_bound
from wstate.serialize import EstimationTask, task_to_json
from wstate.subroutines import (
    alpha_of,
    build_gqt_instrument,
    build_qhp_instrument,
    build_qsp_instrument,
    build_teleport_instrument,
    gamma_in,
    gqt,
    qhp,
    qsp_oracle,
    teleport_map,
)

PEAK_KETS = 1.3
RETAINED_KETS = 1 / 8
HELD_MIB = 12


def _state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def check(kind: str, n: int, rng, bound_mib: int | None = None, densities: bool = False,
          estimates: bool = True, with_bound: bool = False) -> tuple[bool, int]:
    """One case; bound_mib (an absolute bound, build included) in place of
    the bounds in kets; two full-rank density inputs in place of pure ones
    when densities; apply_exact alone unless estimates; a timed
    variance_bound after apply_exact, inside the peak, when with_bound.
    QSP takes a mixed ancilla. Returns whether the case passed and the bytes
    the library still holds of it once its instrument and outputs are gone."""
    d = 2**n
    a, b = _state(rng, d), _state(rng, d)
    maps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
             rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))]
    obs = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    obs = obs + obs.conj().T
    inputs = [QuantumState.pure(a), QuantumState.pure(b)]
    ket_bytes = d**3 * 16
    if kind == "qsp":
        sigma, m = _density(rng, 2), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    if densities:
        inputs = [QuantumState.from_density(_density(rng, d)) for _ in range(2)]
    ra, rb = (x.matrix for x in inputs)
    if kind == "qsp":
        want = qsp_oracle(ra, rb, alpha_of(sigma, m, gamma_in(np.trace(ra), np.trace(rb))))
    elif kind == "qhp":
        want = qhp(ra, rb)
    else:
        want = gqt(ra, rb) if kind == "gqt" else teleport_map(rb, maps, ra)

    def build():
        if kind == "qsp":
            return build_qsp_instrument(sigma, m, n)
        if kind == "qhp":
            return build_qhp_instrument(n)
        return build_gqt_instrument(n) if kind == "gqt" else build_teleport_instrument(n, maps)

    inst = build() if bound_mib is None else None
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        inst = inst or build()
        tau = apply_exact(inst, inputs).matrix
        seconds = time.perf_counter() - t0
        if with_bound:
            t0 = time.perf_counter()
            variance_bound(inst, inputs, 1.0)
            bound_seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        err = float(np.abs(tau - want).max()) / max(1.0, float(np.abs(want).max()))
        if estimates:
            t0 = time.perf_counter()
            reports = [sample_estimate(inst, inputs, obs, 100_000, seed=5) for _ in range(2)]
            est_seconds = time.perf_counter() - t0
            same = reports[0] == reports[1]
            del reports
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - tau.nbytes
        del inst, tau
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    name = f"{kind} n={n}{' densities' if densities else ''}"
    kets = peak / ket_bytes
    bound = PEAK_KETS * ket_bytes if bound_mib is None else bound_mib * 2**20
    ok = err <= 1e-10 and peak <= bound
    timed = f", variance_bound {bound_seconds:.2f} s" if with_bound else ""
    print(f"{name}: {seconds:.2f} s{timed}, peak {peak / 2**20:.1f} MiB = {kets:.2f} kets, "
          f"oracle error {err:.1e}, {held / 2**20:.2f} MiB held once gone: "
          f"{'ok' if ok else 'FAILED'}")
    if not estimates:
        return ok, held
    kept = retained / ket_bytes
    bound = RETAINED_KETS * ket_bytes if bound_mib is None else bound_mib * 2**20
    est_ok = same and retained <= bound
    print(f"{name}: two estimates in {est_seconds:.2f} s, "
          f"{'equal' if same else 'DIFFERENT'} reports, plan keeps "
          f"{retained / 2**20:.2f} MiB = {kept:.4f} kets: {'ok' if est_ok else 'FAILED'}")
    return ok and est_ok, held


def check_document(n: int, rng, bound_mib: int) -> bool:
    """`wstate variance` on the task document of QSP at n qubits with a mixed
    ancilla and two full-rank density inputs, in process: exit code, the
    oracle's mean and the tracemalloc peak from reading the document on."""
    d = 2**n
    sigma, m = _density(rng, 2), rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    inputs = [QuantumState.from_density(_density(rng, d)) for _ in range(2)]
    obs = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    obs = obs + obs.conj().T
    task = EstimationTask(build_qsp_instrument(sigma, m, n), tuple(inputs), obs)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "task.json")
        with open(path, "w") as fh:
            json.dump(task_to_json(task), fh)
        size = os.path.getsize(path)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli_main(["variance", "--spec", path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # what the command would exit 1 with
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
        finally:
            seconds = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    ra, rb = (x.matrix for x in inputs)
    tau = qsp_oracle(ra, rb, alpha_of(sigma, m, gamma_in(np.trace(ra), np.trace(rb))))
    want = expectation(tau, obs)
    error = float("inf")
    if code == 0:
        re, im = json.loads(out.getvalue())["mean"]
        error = abs(complex(re, im) - want) / max(1.0, abs(want))
    ok = code == 0 and error <= 1e-10 and peak <= bound_mib * 2**20
    print(f"qsp document n={n} ({size / 2**20:.1f} MiB): exit {code} in {seconds:.2f} s, "
          f"peak {peak / 2**20:.1f} MiB, oracle error {error:.1e}: {'ok' if ok else 'FAILED'}")
    if code:
        print(err.getvalue().strip())
    return ok


def check_pipeline(n: int, rng, bound_mib: int, held_kib: int) -> bool:
    """QHP at n qubits fed into QHP at n qubits, apply_exact(second,
    [apply_exact(first, inputs[:2]), inputs[2]]) on three pure inputs, the
    builders' frame of n and its route chosen beforehand: the oracle, the
    tracemalloc peak from the builds on, and what is held once both stages
    and their outputs are gone."""
    d = 2**n
    inputs = [QuantumState.pure(_state(rng, d)) for _ in range(3)]
    want = qhp(qhp(*(x.matrix for x in inputs[:2])), inputs[2].matrix)
    apply_exact(build_qhp_instrument(n), inputs[:2])
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        first, second = build_qhp_instrument(n), build_qhp_instrument(n)
        tau = apply_exact(second, [apply_exact(first, inputs[:2]), inputs[2]]).matrix
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        err = float(np.abs(tau - want).max()) / max(1.0, float(np.abs(want).max()))
        del first, second, tau
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    ok = err <= 1e-10 and peak <= bound_mib * 2**20 and held <= held_kib * 2**10
    print(f"qhp chain n={n} through apply_exact: {seconds:.2f} s, peak {peak / 2**20:.1f} MiB, "
          f"oracle error {err:.1e}, {held / 2**10:.2f} KiB held once gone: "
          f"{'ok' if ok else 'FAILED'}")
    return ok


def main() -> int:
    rng = np.random.default_rng(8)
    cases = [check("gqt", 8, rng), check("teleport", 7, rng),
             check("gqt", 10, rng, bound_mib=256, with_bound=True),
             check("teleport", 9, rng, bound_mib=128),
             check("qsp", 8, rng, bound_mib=16, densities=True)]
    document = check_document(7, rng, bound_mib=32)
    cases += [check("gqt", 7, rng, bound_mib=16, densities=True),
              check("teleport", 7, rng, bound_mib=16, densities=True),
              check("qsp", 11, rng, bound_mib=384),
              check("qhp", 10, rng, bound_mib=80, estimates=False)]
    held = sum(h for _, h in cases)
    held_ok = held <= HELD_MIB * 2**20
    print(f"held once every instrument is gone: {held / 2**20:.2f} MiB: "
          f"{'ok' if held_ok else 'FAILED'}")
    pipeline = check_pipeline(5, rng, bound_mib=48, held_kib=4)
    return 0 if document and held_ok and pipeline and all(ok for ok, _ in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
