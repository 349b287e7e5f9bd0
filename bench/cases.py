"""The three workloads: their cases, seeded inputs, timed op and checks.

A case is one kind of op at one size. Each workload's cycle lists its cases,
some of them more than once; a timed run repeats whole cycles, so every run
has the same mix of cases and its percentiles fall on the same cases. The
multiplicities are chosen so that the median and the 90th percentile fall
inside a run of ops of one case rather than on the border between two cases
of very different cost (see README.md).

Every op returns (ok, digest). ok is the op's correctness check; digest hashes
its output rounded to 10 significant digits of the output's largest entry, so
that repeated ops, repeated runs and different worker counts can be compared.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

SHOTS = 100_000
ORACLE_TOL = 1e-10
Z_LIMIT = 5.0
CHILD_TIMEOUT_S = 120

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


@dataclass
class Case:
    """One kind of op. run(workers) performs the op; repeat > 1 puts the
    case several times into each cycle. A case with workers_check is also
    run once with two workers, and must give the same digest."""

    name: str
    run: Callable[[int], tuple[bool, str]]
    repeat: int = 1
    workers_check: bool = False


def cycle_of(cases: list[Case]) -> list[Case]:
    """Cases expanded by their repeat count, copies spread over the cycle."""
    out = []
    for k in range(max(c.repeat for c in cases)):
        out.extend(c for c in cases if c.repeat > k)
    return out


# ---------------------------------------------------------------------------
# digests


def _quantized(a) -> bytes:
    a = np.asarray(a, dtype=np.complex128).ravel()
    scale = float(np.abs(a).max()) if a.size else 0.0
    if scale == 0.0:
        return b"zero"
    q = np.rint(np.concatenate([a.real, a.imag]) / scale * 1e10).astype(np.int64)
    return f"{scale:.9e}".encode() + q.tobytes()


def digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, str):
            h.update(v.encode())
        else:
            h.update(_quantized(v))
        h.update(b"|")
    return h.hexdigest()[:16]


def _json_numbers(obj, strings: list, numbers: list):
    """Split a parsed JSON value into its strings and numbers, in order."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            strings.append(key)
            _json_numbers(obj[key], strings, numbers)
    elif isinstance(obj, list):
        for v in obj:
            _json_numbers(v, strings, numbers)
    elif isinstance(obj, bool) or obj is None or isinstance(obj, str):
        strings.append(str(obj))
    else:
        numbers.append(float(obj))


# ---------------------------------------------------------------------------
# seeded inputs


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _pure(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def _complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


# ---------------------------------------------------------------------------
# exact-pure: build + apply_exact + oracle check on pure inputs


def _exact_case(kind: str, n: int, seed: int, repeat: int) -> Case:
    import wstate.instrument as ins
    import wstate.subroutines as sub

    name = f"{kind}-n{n}"
    rng = _rng(seed, name)
    d = 2**n
    a, b = _pure(rng, d), _pure(rng, d)
    states = [ins.QuantumState.pure(a), ins.QuantumState.pure(b)]
    ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
    sigma = _pure(rng, 2)
    m = _complex(rng, 2)
    maps = [(_complex(rng, d), _complex(rng, d))]

    def run(workers: int):
        if kind == "qhp":
            inst = sub.build_qhp_instrument(n)
            want = sub.qhp(ra, rb)
        elif kind == "gqt":
            inst = sub.build_gqt_instrument(n)
            want = sub.gqt(ra, rb)
        elif kind == "qsp":
            inst = sub.build_qsp_instrument(sigma, m, n)
            want = sub.qsp_oracle(ra, rb, sub.alpha_of(np.outer(sigma, sigma.conj()), m))
        else:
            inst = sub.build_teleport_instrument(n, maps)
            want = sub.teleport_map(rb, maps, ra)
        tau = ins.apply_exact(inst, states).matrix
        scale = max(1.0, float(np.abs(want).max()))
        ok = float(np.abs(tau - want).max()) / scale <= ORACLE_TOL
        return ok, digest(tau)

    return Case(name, run, repeat)


def exact_pure_cases(seed: int, smoke: bool) -> list[Case]:
    if smoke:
        return [_exact_case(k, n, seed, 1)
                for k in ("qhp", "gqt", "qsp", "teleport") for n in (1, 2)]
    # (kind, n, repeat). Teleport stops at n = 5: its n = 6 op needs 2-3 GB.
    # The median falls inside the teleport n = 4 ops and the 90th percentile
    # inside the teleport n = 5 ops; ops of a few ms spread too widely from
    # one run to the next to carry either percentile.
    plan = [
        ("qhp", 3, 1), ("qhp", 4, 1), ("qhp", 5, 1), ("qhp", 6, 1),
        ("qsp", 3, 1), ("qsp", 4, 1), ("qsp", 5, 1), ("qsp", 6, 1),
        ("gqt", 3, 1), ("gqt", 4, 1), ("gqt", 5, 1), ("gqt", 6, 1),
        ("teleport", 3, 1), ("teleport", 4, 16), ("teleport", 5, 4),
    ]
    return [_exact_case(k, n, seed, r) for k, n, r in plan]


# ---------------------------------------------------------------------------
# estimate: one sample_estimate per op


def _estimate_case(name: str, inst, inputs, obs, method: str, seed: int,
                   repeat: int) -> Case:
    import wstate.sampling as smp

    case_seed = zlib.crc32(f"{seed}/{name}".encode())

    def run(workers: int):
        rep = smp.sample_estimate(inst, inputs, obs, SHOTS, case_seed,
                                  workers=workers, method=method)
        se = math.sqrt(max(rep.analytic_variance, 0.0) / rep.shots)
        slack = 1e-12 * max(1.0, abs(rep.analytic_mean))
        ok = abs(rep.sample_mean - rep.analytic_mean) <= Z_LIMIT * se + slack
        out = digest([rep.sample_mean, rep.analytic_mean, rep.sample_variance,
                      rep.analytic_variance, rep.variance_bound])
        return ok, out

    return Case(name, run, repeat, workers_check=True)


# Twice per cycle, so that these three make up the slowest 18% of ops and the
# 90th percentile falls inside them rather than on their border.
ESTIMATE_HEAVY = ("teleport-pure-n3", "qsp-mixed-ancilla-pure-n5", "gqt-pure-n4")


def estimate_cases(seed: int, smoke: bool) -> list[Case]:
    import wstate.instrument as ins
    import wstate.subroutines as sub

    dens_sizes = (1, 2) if smoke else (1, 2, 3)
    pure_sizes = (2,) if smoke else (3, 4, 5)
    gqt_sizes = (2,) if smoke else (3, 4)
    tele_size = 2 if smoke else 3
    commutator = sub.commutator_case().m
    cases = []

    def add(name, n, build, make_input, method="emulate"):
        rng = _rng(seed, name)
        inst = build(rng)
        inputs = [make_input(rng, 2**n) for _ in inst.input_labels]
        cases.append(_estimate_case(name, inst, inputs, _hermitian(rng, 2**n),
                                    method, seed, 2 if name in ESTIMATE_HEAVY else 1))

    def dens(rng, d):
        return ins.QuantumState.from_density(_density(rng, d))

    def pure(rng, d):
        return ins.QuantumState.pure(_pure(rng, d))

    qsp_ms = (("hermitian", _hermitian, "emulate"),
              ("normal", lambda rng, _: commutator, "emulate"),
              ("nonnormal-emulate", _complex, "emulate"),
              ("nonnormal-randomized", _complex, "randomized"))
    for n in dens_sizes:
        add(f"qhp-density-n{n}", n, lambda rng: sub.build_qhp_instrument(n), dens)
        add(f"gqt-density-n{n}", n, lambda rng: sub.build_gqt_instrument(n), dens)
        for label, make_m, method in qsp_ms:
            add(f"qsp-{label}-density-n{n}", n,
                lambda rng: sub.build_qsp_instrument(_density(rng, 2), make_m(rng, 2), n),
                dens, method)
    for n in pure_sizes:
        add(f"qhp-pure-n{n}", n, lambda rng: sub.build_qhp_instrument(n), pure)
        add(f"qsp-pure-ancilla-pure-n{n}", n,
            lambda rng: sub.build_qsp_instrument(_pure(rng, 2), _hermitian(rng, 2), n), pure)
        add(f"qsp-mixed-ancilla-pure-n{n}", n,
            lambda rng: sub.build_qsp_instrument(_density(rng, 2), _hermitian(rng, 2), n), pure)
    for n in gqt_sizes:
        add(f"gqt-pure-n{n}", n, lambda rng: sub.build_gqt_instrument(n), pure)
    d = 2**tele_size
    add(f"teleport-pure-n{tele_size}", tele_size,
        lambda rng: sub.build_teleport_instrument(tele_size, [(_complex(rng, d), _complex(rng, d))]),
        pure)
    return cases


# ---------------------------------------------------------------------------
# cli: sequential `python -m wstate.cli` subprocesses on written documents

README_TASK = {
    "instrument": {
        "layout": {"registers": [{"label": "S", "qubits": 1, "role": "S"},
                                 {"label": "E", "qubits": 1, "role": "E"}]},
        "unitary": {"permutation": [0, 1, 3, 2]},
        "measurement": {"matrix": {"dims": [2, 2],
                                   "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                        "kind": "hermitian"},
    },
    "inputs": [
        {"kind": "density", "matrix": {"dims": [2, 2],
                                       "data": [[0.7, 0], [0.2, 0], [0.2, 0], [0.3, 0]]}},
        {"kind": "density", "matrix": {"dims": [2, 2],
                                       "data": [[0.5, 0], [0, 0.1], [0, -0.1], [0.5, 0]]}},
    ],
    "observable": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
}

README_COMBO = {
    "states": [{"dims": [2], "data": [[1, 0], [0, 0]]},
               {"dims": [2], "data": [[0.7071067811865475, 0], [0.7071067811865475, 0]]}],
    "alphas": [[0.6, 0], [0.8, 0]],
    "observable": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
}

EXPERIMENTS = ("power-error", "opt-beta-surface", "lincombo-variance",
               "method-comparison", "qhp-vs-gqt")


def _mat_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"dims": list(m.shape), "data": [[float(z.real), float(z.imag)] for z in m.ravel()]}


def gqt_task(n: int, rng) -> dict:
    """Task document for the transpose coupling on n qubits with density
    inputs, written from the documented format alone."""
    d = 2**n
    idx = np.arange(d**3)
    s, e1, e2 = idx // (d * d), (idx // d) % d, idx % d
    perm = (s * d + (e1 ^ s)) * d + e2
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    zero = np.zeros(d)
    zero[0] = 1.0
    return {
        "instrument": {
            "layout": {"registers": [
                {"label": "S", "qubits": n, "role": "S"},
                {"label": "E1", "qubits": n, "role": "E", "source": "ancilla"},
                {"label": "E2", "qubits": n, "role": "E"}]},
            "unitary": {"permutation": [int(p) for p in perm]},
            "ancilla": {"kind": "pure", "vector": {
                "dims": [d], "data": [[float(x), 0.0] for x in zero]}},
            "measurement": {"matrix": _mat_json(swap), "kind": "hermitian"},
        },
        "inputs": [{"kind": "density", "matrix": _mat_json(_density(rng, d))}
                   for _ in range(2)],
        "observable": _mat_json(_hermitian(rng, d)),
    }


def write_cli_documents(seed: int, smoke: bool, workdir: str) -> list[tuple[str, list[str], bool]]:
    """Write the documents and return (name, argv, workers_check) per call."""
    rng = _rng(seed, "cli")
    n = 2 if smoke else 3
    docs = {"readme-task": README_TASK, f"gqt-n{n}-task": gqt_task(n, rng),
            "readme-combo": README_COMBO}
    for name in EXPERIMENTS:
        docs[f"exp-{name}"] = {"experiment": name, "seed": seed}
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)

    p, r = rng.uniform(0.1, 0.9), rng.uniform(0.05, 1.0)
    eps = rng.uniform(0.05, 0.2)
    calls = []
    for task in ("readme-task", f"gqt-n{n}-task"):
        spec = ["--spec", paths[task]]
        calls += [
            (f"estimate-{task}", ["estimate", *spec, "--shots", "20000", "--seed", str(seed)], True),
            (f"variance-{task}", ["variance", *spec], False),
            (f"bound-{task}", ["bound", *spec], False),
            (f"validate-{task}", ["validate", *spec], False),
        ]
    combo = ["--spec", paths["readme-combo"]]
    calls += [
        ("design-beta", ["design-beta", "--p", repr(p), "--r", repr(r)], False),
        ("hoeffding", ["hoeffding", "--epsilon", repr(eps), "--delta", "0.05"], False),
        ("lcs-all-at-once", ["lcs", "all-at-once", *combo], False),
        ("lcs-incoherent", ["lcs", "incoherent", *combo, "--shots", "50000",
                            "--seed", str(seed)], True),
        ("lcs-lcu", ["lcs", "lcu", *combo], False),
    ]
    calls += [(f"experiment-{name}", ["experiment", "--spec", paths[f"exp-{name}"]], False)
              for name in EXPERIMENTS]
    return calls


def parse_cli_output(text: str) -> str:
    """Digest of a verb's stdout: JSON, or an experiment CSV whose leading
    comment line carries JSON metadata with a timestamp that is dropped.
    Raises ValueError when the output does not parse."""
    strings: list = []
    numbers: list = []
    if text.startswith("# "):
        head, _, body = text.partition("\n")
        meta = json.loads(head[2:])
        meta.pop("timestamp", None)
        _json_numbers(meta, strings, numbers)
        rows = list(csv.reader(io.StringIO(body)))
        if len(rows) < 2:
            raise ValueError("experiment table has no rows")
        strings.extend(rows[0])
        for row in rows[1:]:
            if len(row) != len(rows[0]):
                raise ValueError("ragged experiment table")
            for cell in row:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    strings.append(cell)
    else:
        _json_numbers(json.loads(text), strings, numbers)
    return digest(json.dumps(strings), np.array(numbers))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_case(name: str, argv: list[str], workers_check: bool, state: dict) -> Case:
    """state["launcher"] is None for `python -m wstate.cli`, or a function
    turning argv into the traced launcher's argv."""

    def run(workers: int):
        args = argv + (["--workers", str(workers)] if workers > 1 else [])
        launch = state.get("launcher")
        cmd = launch(args) if launch else [sys.executable, "-m", "wstate.cli", *args]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return False, ""
        try:
            return True, parse_cli_output(proc.stdout)
        except ValueError:
            return False, ""

    return Case(name, run, 1, workers_check)


def cli_cases(seed: int, smoke: bool, workdir: str, state: dict) -> list[Case]:
    return [_cli_case(name, argv, wc, state)
            for name, argv, wc in write_cli_documents(seed, smoke, workdir)]
