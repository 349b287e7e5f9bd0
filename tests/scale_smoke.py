"""Exact evaluation and estimation at scale: GQT at n = 8 and teleport at n = 7.

Each apply_exact must match its closed-form oracle (subroutines.gqt and
subroutines.teleport_map) and hold, at its tracemalloc peak, at most 1.3
times the bytes of the evolved ket (d^3 complex entries for pure inputs):
256 MiB at n = 8 and 32 MiB at n = 7. Two sample_estimate calls on the same
instrument must then give equal reports, and what the instrument keeps of
its evaluation plan (tracemalloc, current bytes after gc.collect()) must
stay below 1/8 of that ket. Run from the repository root:

    PYTHONPATH=src timeout 60 python tests/scale_smoke.py
"""

import gc
import sys
import time
import tracemalloc

import numpy as np

from wstate.instrument import QuantumState, apply_exact
from wstate.sampling import sample_estimate
from wstate.subroutines import build_gqt_instrument, build_teleport_instrument, gqt, teleport_map

PEAK_KETS = 1.3
RETAINED_KETS = 1 / 8


def _state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def check(kind: str, n: int, rng) -> bool:
    d = 2**n
    a, b = _state(rng, d), _state(rng, d)
    maps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
             rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))]
    obs = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    obs = obs + obs.conj().T
    inst = build_gqt_instrument(n) if kind == "gqt" else build_teleport_instrument(n, maps)
    inputs = [QuantumState.pure(a), QuantumState.pure(b)]
    ket_bytes = d**3 * 16
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        tau = apply_exact(inst, inputs).matrix
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        t0 = time.perf_counter()
        reports = [sample_estimate(inst, inputs, obs, 100_000, seed=5) for _ in range(2)]
        est_seconds = time.perf_counter() - t0
        same = reports[0] == reports[1]
        del reports
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - tau.nbytes
    finally:
        tracemalloc.stop()
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    want = gqt(ra, rb) if kind == "gqt" else teleport_map(rb, maps, ra)
    err = float(np.abs(tau - want).max()) / max(1.0, float(np.abs(want).max()))
    kets = peak / ket_bytes
    ok = err <= 1e-10 and kets <= PEAK_KETS
    print(f"{kind} n={n}: {seconds:.2f} s, peak {peak / 2**20:.0f} MiB = {kets:.2f} kets, "
          f"oracle error {err:.1e}: {'ok' if ok else 'FAILED'}")
    kept = retained / ket_bytes
    est_ok = same and kept <= RETAINED_KETS
    print(f"{kind} n={n}: two estimates in {est_seconds:.2f} s, "
          f"{'equal' if same else 'DIFFERENT'} reports, plan keeps "
          f"{retained / 2**20:.2f} MiB = {kept:.4f} kets: {'ok' if est_ok else 'FAILED'}")
    return ok and est_ok


def main() -> int:
    rng = np.random.default_rng(8)
    results = [check("gqt", 8, rng), check("teleport", 7, rng)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
