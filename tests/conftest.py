import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from wstate.errors import InvalidState

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


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
