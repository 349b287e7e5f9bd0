"""wstate command line: estimation, variance analysis, design helpers,
combination workflows, experiment reproduction, and spec validation.

Exit codes: 0 success, 2 usage error (no or an unknown verb, an unknown
option, a value out of range), validation or schema failure, or a --spec
or --out file that cannot be read or written, 3 numerical precondition
failure (for example orthogonal inputs).

Each verb imports the library functions it calls in its own body, so one
process loads only the modules of the verb it runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import NumericalPreconditionError, ValidationError


def _load_spec(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer beyond int's digit limit
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def estimate(spec, shots, seed, workers):
    """Shot-based estimate of Tr(tau O) for an instrument task document."""
    from .sampling import sample_estimate
    from .serialize import task_from_json

    task = task_from_json(_load_spec(spec))
    return sample_estimate(task.instrument, list(task.inputs), task.observable,
                           shots, seed, workers=workers).to_json()


def variance(spec):
    """Exact mean and per-shot estimator variance for a task document."""
    from .sampling import _mean_and_variance
    from .serialize import task_from_json

    task = task_from_json(_load_spec(spec))
    mean, var = _mean_and_variance(task.instrument, list(task.inputs), task.observable)
    return {"mean": _pair(mean), "variance_per_shot": var}


def bound(spec):
    """Variance upper bounds for a task document."""
    from .sampling import variance_bound
    from .serialize import task_from_json
    from .tensor import spectral_norm

    task = task_from_json(_load_spec(spec))
    norm = spectral_norm(task.observable)
    bounds = variance_bound(task.instrument, list(task.inputs), norm)
    return {**bounds.to_json(), "obs_norm": norm}


def design_beta(p, r):
    """Variance-minimizing ancilla weight for a two-state combination."""
    from .sampling import optimal_beta

    return optimal_beta(p, r).to_json()


def hoeffding(epsilon, delta, obs_norm, m_norm):
    """Shots sufficient for |estimate - mean| <= epsilon with confidence 1 - delta."""
    from .sampling import hoeffding_shots

    shots = hoeffding_shots(epsilon, delta, obs_norm, m_norm)
    return {"epsilon": epsilon, "delta": delta, "shots": shots}


def lcs_all_at_once(spec):
    """Exact weighted state (and expectation, if an observable is given)."""
    from .instrument import expectation
    from .lcs import all_at_once_apply
    from .serialize import lcs_from_json
    from .tensor import matrix_to_json

    combo = lcs_from_json(_load_spec(spec))
    tau = all_at_once_apply(combo.problem, combo.beta)
    payload = {"weighted_state": matrix_to_json(tau.matrix), "trace": _pair(tau.trace)}
    if combo.observable is not None:
        payload["expectation"] = _pair(expectation(tau, combo.observable))
    return payload


def lcs_incoherent(spec, shots, seed, workers):
    """Term-by-term estimate of the combination expectation value."""
    from .lcs import incoherent_estimate, pauli_decompose
    from .serialize import lcs_from_json

    combo = lcs_from_json(_load_spec(spec))
    if combo.observable is None:
        raise ValidationError("incoherent estimation needs an 'observable' entry")
    return incoherent_estimate(combo.problem, combo.processing, pauli_decompose(combo.observable),
                               shots, seed).to_json()


def lcs_lcu(spec):
    """Postselected coherent preparation of the combination."""
    from .lcs import lcu_prepare
    from .serialize import lcs_from_json

    combo = lcs_from_json(_load_spec(spec))
    result = lcu_prepare(combo.problem)
    payload = result.to_json()
    if combo.observable is not None:
        val = complex(np.vdot(result.state, combo.observable @ result.state))
        payload["normalized_expectation"] = _pair(val)
        payload["combination_expectation"] = _pair(result.norm**2 * val)
    return payload


def experiment(spec, seed, workers):
    """Run a named parameter sweep and emit its CSV table."""
    from .experiments import run_experiment
    from .serialize import experiment_spec_from_json

    sweep = experiment_spec_from_json(_load_spec(spec))
    if seed is not None:
        sweep["seed"] = seed
    return run_experiment(sweep).to_csv()


def validate(spec):
    """Parse a document and check it reserializes to a fixed point."""
    from .serialize import io_roundtrip

    return io_roundtrip(_load_spec(spec))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is smaller than the minimum of 1")
    return value


SPEC = ("--spec", {"required": True, "help": "JSON document to operate on."})
OUT = ("--out", {"help": "Write the result here instead of stdout."})
SEED = ("--seed", {"type": int, "default": 0, "help": "RNG stream seed (default: 0)."})
SHOTS = ("--shots", {"type": int, "default": 10000, "help": "Total shot budget (default: 10000)."})
WORKERS = ("--workers", {"type": positive_int, "default": 1,
                         "help": "Accepted for compatibility; sampling runs in the calling "
                                 "thread, so results are identical for any count (default: 1)."})


# verb -> (function, options); a group maps to (help, its own table)
VERBS = {
    "estimate": (estimate, [SPEC, SHOTS, SEED, WORKERS, OUT]),
    "variance": (variance, [SPEC, OUT]),
    "bound": (bound, [SPEC, OUT]),
    "design-beta": (design_beta, [
        ("--p", {"type": float, "required": True, "help": "Coefficient weight |alpha0|^2 share."}),
        ("--r", {"type": float, "required": True, "help": "Squared overlap of the two states."}),
        OUT]),
    "hoeffding": (hoeffding, [
        ("--epsilon", {"type": float, "required": True, "help": "Target absolute error."}),
        ("--delta", {"type": float, "required": True, "help": "Failure probability."}),
        ("--obs-norm", {"type": float, "default": 1.0, "help": "Spectral norm of O (default: 1)."}),
        ("--m-norm", {"type": float, "default": 1.0, "help": "Spectral norm of M (default: 1)."}),
        OUT]),
    "lcs": ("Linear combinations of more than two states.", {
        "all-at-once": (lcs_all_at_once, [SPEC, OUT]),
        "incoherent": (lcs_incoherent, [SPEC, SHOTS, SEED, WORKERS, OUT]),
        "lcu": (lcs_lcu, [SPEC, OUT]),
    }),
    "experiment": (experiment, [
        SPEC, OUT, ("--seed", {"type": int, "help": "Override the seed in the spec."}), WORKERS]),
    "validate": (validate, [SPEC]),
}


def _add_verbs(parser: argparse.ArgumentParser, table: dict) -> None:
    verbs = parser.add_subparsers(required=True, metavar="VERB")
    for name, (run, options) in table.items():
        doc = run if isinstance(run, str) else run.__doc__
        sub = verbs.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        if isinstance(options, dict):
            _add_verbs(sub, options)
            continue
        sub.set_defaults(run=run)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)


def main(args=None, prog_name="wstate"):
    """Run the verb that args (default sys.argv[1:]) names and exit with its
    code; usage errors exit 2 from the parser."""
    parser = argparse.ArgumentParser(
        prog=prog_name, allow_abbrev=False,
        description="Simulate and analyze classically reweighted quantum instruments.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    _add_verbs(parser, VERBS)
    options = vars(parser.parse_args(args))
    run, out = options.pop("run"), options.pop("out", None)
    code = 0
    try:
        text = run(**options)
        if not isinstance(text, str):  # a JSON payload; experiment returns its CSV text
            text = json.dumps(text, indent=2, sort_keys=True) + "\n"
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:  # a --spec that cannot be read or an --out that cannot be written
        code, error = 2, f"{exc.filename}: {exc.strerror}"
    except NumericalPreconditionError as exc:
        code, error = 3, exc
    except ValidationError as exc:
        code, error = 2, exc
    if code:
        sys.stderr.write(f"error: {error}\n")
    sys.exit(code)


# bench/launch.py runs the command as main.main(args=argv, prog_name="wstate")
main.main = main


if __name__ == "__main__":
    main()
