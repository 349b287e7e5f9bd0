"""Seeded-output contract: the numbers each seed produces, pinned in a file.

Pinned are every `estimate` case of the benchmark (bench/cases.py) at seeds
1, 2, 3, 7, 101 and 201, each run with one and with two workers, and the
`wstate` stdout on the README documents and the five experiment sweeps.
Sample fields must match bit for bit; the analytic fields within 1e-13
relative, since a change of summation order moves them in the last digits.
A change that moves seeded numbers regenerates the file, so that the move
shows as a diff:

    PYTHONPATH=src python tests/test_golden.py

The writer keeps a stored analytic field when the new value lies within the
test's tolerance of it, so the diff shows only the fields that moved beyond
it, not the last bits that another host's rounding moves.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import wstate.sampling

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEEDS = (1, 2, 3, 7, 101, 201)
EXPERIMENT_SEED = 11
ANALYTIC_RTOL = 1e-13
SAMPLE_FIELDS = ("sample_mean", "sample_variance")
ANALYTIC_FIELDS = ("analytic_mean", "analytic_variance", "variance_bound")


def _load_bench_cases():
    spec = importlib.util.spec_from_file_location("bench_cases", ROOT / "bench" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


CASES = _load_bench_cases()


def _hex(x) -> str | list[str]:
    if isinstance(x, complex):
        return [x.real.hex(), x.imag.hex()]
    return float(x).hex()


def _value(h) -> complex:
    return complex(float.fromhex(h[0]), float.fromhex(h[1])) if isinstance(h, list) else float.fromhex(h)


def estimate_reports() -> dict:
    """{"seed/case": report fields as float hex} over every seed and case.

    Each case runs with one and with two workers through the benchmark's own
    op, which must pass its check and give identical reports."""
    captured = []
    real = wstate.sampling.sample_estimate

    def spy(*args, **kwargs):
        captured.append(real(*args, **kwargs))
        return captured[-1]

    wstate.sampling.sample_estimate = spy
    try:
        out = {}
        for seed in SEEDS:
            for case in CASES.estimate_cases(seed, smoke=False):
                key = f"{seed}/{case.name}"
                reports = []
                for workers in (1, 2):
                    ok, _ = case.run(workers)
                    assert ok, f"{key}: sample mean outside its confidence band"
                    reports.append(captured.pop())
                assert reports[0] == reports[1], f"{key}: two workers changed the report"
                out[key] = {f: _hex(getattr(reports[0], f)) for f in SAMPLE_FIELDS + ANALYTIC_FIELDS}
    finally:
        wstate.sampling.sample_estimate = real
    return out


def _strip_timestamp(text: str) -> str:
    """Drop the timestamp from an experiment CSV's leading metadata line."""
    if not text.startswith("# "):
        return text
    head, _, body = text.partition("\n")
    meta = json.loads(head[2:])
    meta.pop("timestamp")
    return f"# {json.dumps(meta)}\n{body}"


def cli_outputs(workdir: Path) -> dict:
    """{call name: stdout lines} for the README commands and the five sweeps.

    The calls that take --workers are also run with two workers, which must
    print the same."""
    docs = {
        "task": CASES.README_TASK,
        "combo": CASES.README_COMBO,
        "exp-readme": {"experiment": "opt-beta-surface",
                       "params": {"p_grid": [0.3, 0.5], "r_grid": [0.5]}},
    }
    docs.update({f"exp-{name}": {"experiment": name, "seed": EXPERIMENT_SEED}
                 for name in CASES.EXPERIMENTS})
    spec = {}
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        spec[name] = ["--spec", str(path)]
    calls = {
        "estimate": ["estimate", *spec["task"], "--shots", "20000", "--seed", "3"],
        "variance": ["variance", *spec["task"]],
        "bound": ["bound", *spec["task"]],
        "validate": ["validate", *spec["task"]],
        "design-beta": ["design-beta", "--p", "0.3", "--r", "0.5"],
        "hoeffding": ["hoeffding", "--epsilon", "0.1", "--delta", "0.05"],
        "lcs-all-at-once": ["lcs", "all-at-once", *spec["combo"]],
        "lcs-incoherent": ["lcs", "incoherent", *spec["combo"], "--shots", "50000", "--seed", "1"],
        "lcs-lcu": ["lcs", "lcu", *spec["combo"]],
    }
    calls.update({name: ["experiment", *spec[name]] for name in docs if name.startswith("exp-")})
    out = {}
    for name, argv in calls.items():
        result = run_cli(*argv)
        assert result.code == 0, f"{name}: {result.stderr}"
        out[name] = _strip_timestamp(result.stdout).splitlines()
        if "--seed" in argv or argv[0] == "experiment":
            again = run_cli(*argv, "--workers", "2")
            assert _strip_timestamp(again.stdout).splitlines() == out[name], (
                f"{name}: two workers changed stdout"
            )
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_seeded_estimates_match_golden():
    want = _golden()["estimate"]
    got = estimate_reports()
    assert sorted(got) == sorted(want)
    moved = []
    for key, fields in got.items():
        for f in SAMPLE_FIELDS:
            if fields[f] != want[key][f]:
                moved.append(f"{key} {f}")
        for f in ANALYTIC_FIELDS:
            x, y = _value(fields[f]), _value(want[key][f])
            if abs(x - y) > ANALYTIC_RTOL * abs(y):
                moved.append(f"{key} {f}")
    assert not moved, (
        f"{len(moved)} seeded values moved (regenerate and list them), first: "
        + ", ".join(moved[:10])
    )


def test_cli_stdout_matches_golden(tmp_path):
    want = _golden()["cli"]
    got = cli_outputs(tmp_path)
    assert sorted(got) == sorted(want)
    moved = [name for name in got if got[name] != want[name]]
    assert not moved, "CLI stdout moved (regenerate and list it): " + ", ".join(moved)


def _keep_stored_analytic(estimate: dict, stored: dict) -> int:
    """Put back each stored analytic field that the new value lies within
    ANALYTIC_RTOL of, so that a regeneration moves only the fields that
    really moved, not those the host rounds differently; returns how many
    were put back."""
    kept = 0
    for key, fields in estimate.items():
        for f in ANALYTIC_FIELDS:
            old = stored.get(key, {}).get(f)
            if old is not None and old != fields[f]:
                x, y = _value(fields[f]), _value(old)
                if abs(x - y) <= ANALYTIC_RTOL * abs(y):
                    fields[f] = old
                    kept += 1
    return kept


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {"estimate": estimate_reports(), "cli": cli_outputs(Path(tmp))}
    stored = _golden()["estimate"] if GOLDEN.exists() else {}
    kept = _keep_stored_analytic(golden["estimate"], stored)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}, keeping {kept} analytic fields within "
          f"{ANALYTIC_RTOL:g} of the stored ones")
