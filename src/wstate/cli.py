"""wstate command line: estimation, variance analysis, design helpers,
combination workflows, experiment reproduction, and spec validation.

Exit codes: 0 success, 2 validation or schema failure, 3 numerical
precondition failure (for example orthogonal inputs).

Each verb imports the library functions it calls in its own body, so one
process loads only the modules of the verb it runs.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from .errors import NumericalPreconditionError, SchemaError, ValidationError


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int's digit limit
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from exc


def _emit(payload, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericalPreconditionError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapped


spec_option = click.option("--spec", "spec_path", required=True,
                           type=click.Path(exists=True, dir_okay=False),
                           help="JSON document to operate on.")
out_option = click.option("--out", default=None, help="Write the result here instead of stdout.")
seed_option = click.option("--seed", default=0, show_default=True, help="RNG stream seed.")
shots_option = click.option("--shots", default=10000, show_default=True, help="Total shot budget.")
workers_option = click.option("--workers", default=1, show_default=True,
                              type=click.IntRange(min=1),
                              help="Accepted for compatibility; sampling runs in the calling "
                                   "thread, so results are identical for any count.")


@click.group()
@click.version_option(package_name="wstate")
def main():
    """Simulate and analyze classically reweighted quantum instruments."""


@main.command()
@spec_option
@shots_option
@seed_option
@workers_option
@click.option("--method", default="emulate", show_default=True,
              type=click.Choice(["emulate", "randomized"]),
              help="Realization of a non-normal M, echoed in the report; "
                   "both draw the same cells.")
@out_option
@handles_errors
def estimate(spec_path, shots, seed, workers, method, out):
    """Shot-based estimate of Tr(tau O) for an instrument task document."""
    from .sampling import sample_estimate
    from .serialize import task_from_json

    task = task_from_json(_load_spec(spec_path))
    report = sample_estimate(task.instrument, list(task.inputs), task.observable,
                             shots, seed, workers=workers, method=method)
    payload = report.to_json()
    payload["method"] = method
    _emit(payload, out)


@main.command()
@spec_option
@out_option
@handles_errors
def variance(spec_path, out):
    """Exact mean and per-shot estimator variance for a task document."""
    from .instrument import apply_exact, expectation
    from .sampling import variance_exact
    from .serialize import task_from_json

    task = task_from_json(_load_spec(spec_path))
    tau = apply_exact(task.instrument, list(task.inputs))
    mean = expectation(tau, task.observable)
    var = variance_exact(task.instrument, list(task.inputs), task.observable)
    _emit({"mean": _pair(mean), "variance_per_shot": var}, out)


@main.command()
@spec_option
@out_option
@handles_errors
def bound(spec_path, out):
    """Variance upper bounds for a task document."""
    from .sampling import variance_bound
    from .serialize import task_from_json
    from .tensor import spectral_norm

    task = task_from_json(_load_spec(spec_path))
    norm = spectral_norm(task.observable)
    bounds = variance_bound(task.instrument, list(task.inputs), norm)
    _emit({**bounds.to_json(), "obs_norm": norm}, out)


@main.command("design-beta")
@click.option("--p", required=True, type=float, help="Coefficient weight |alpha0|^2 share.")
@click.option("--r", required=True, type=float, help="Squared overlap of the two states.")
@out_option
@handles_errors
def design_beta(p, r, out):
    """Variance-minimizing ancilla weight for a two-state combination."""
    from .sampling import optimal_beta

    _emit(optimal_beta(p, r).to_json(), out)


@main.command()
@click.option("--epsilon", required=True, type=float, help="Target absolute error.")
@click.option("--delta", required=True, type=float, help="Failure probability.")
@click.option("--obs-norm", default=1.0, show_default=True, help="Spectral norm of O.")
@click.option("--m-norm", default=1.0, show_default=True, help="Spectral norm of M.")
@out_option
@handles_errors
def hoeffding(epsilon, delta, obs_norm, m_norm, out):
    """Shots sufficient for |estimate - mean| <= epsilon with confidence 1 - delta."""
    from .sampling import hoeffding_shots

    shots = hoeffding_shots(epsilon, delta, obs_norm, m_norm)
    _emit({"epsilon": epsilon, "delta": delta, "shots": shots}, out)


@main.group()
def lcs():
    """Linear combinations of more than two states."""


def _combo_doc(spec_path):
    from .serialize import lcs_from_json
    from .tensor import matrix_from_json

    doc = _load_spec(spec_path)
    problem = lcs_from_json(doc, "combination")
    obs = None
    if "observable" in doc:
        obs = matrix_from_json(doc["observable"], "combination.observable")
    return doc, problem, obs


@lcs.command("all-at-once")
@spec_option
@out_option
@handles_errors
def lcs_all_at_once(spec_path, out):
    """Exact weighted state (and expectation, if an observable is given)."""
    from .instrument import expectation
    from .lcs import all_at_once_apply
    from .tensor import complex_from_json, matrix_to_json

    doc, problem, obs = _combo_doc(spec_path)
    beta = None
    if "beta" in doc:
        pairs = doc["beta"]
        if not isinstance(pairs, list):
            raise SchemaError("combination.beta", "must be a list of [re, im] pairs")
        beta = np.array([complex_from_json(p, f"combination.beta[{i}]")
                         for i, p in enumerate(pairs)])
    tau = all_at_once_apply(problem, beta)
    payload = {"weighted_state": matrix_to_json(tau.matrix), "trace": _pair(tau.trace)}
    if obs is not None:
        payload["expectation"] = _pair(expectation(tau, obs))
    _emit(payload, out)


@lcs.command("incoherent")
@spec_option
@shots_option
@seed_option
@workers_option
@out_option
@handles_errors
def lcs_incoherent(spec_path, shots, seed, workers, out):
    """Term-by-term estimate of the combination expectation value."""
    from .lcs import incoherent_estimate, pauli_decompose
    from .tensor import matrix_from_json

    doc, problem, obs = _combo_doc(spec_path)
    if obs is None:
        raise ValidationError("incoherent estimation needs an 'observable' entry")
    v = None
    if "processing" in doc:
        v = matrix_from_json(doc["processing"], "combination.processing")
    report = incoherent_estimate(problem, v, pauli_decompose(obs), shots, seed)
    _emit(report.to_json(), out)


@lcs.command("lcu")
@spec_option
@out_option
@handles_errors
def lcs_lcu(spec_path, out):
    """Postselected coherent preparation of the combination."""
    from .lcs import lcu_prepare

    doc, problem, obs = _combo_doc(spec_path)
    result = lcu_prepare(problem)
    payload = result.to_json()
    if obs is not None:
        val = complex(np.vdot(result.state, obs @ result.state))
        payload["normalized_expectation"] = _pair(val)
        payload["combination_expectation"] = _pair(result.norm**2 * val)
    _emit(payload, out)


@main.command()
@spec_option
@out_option
@click.option("--seed", default=None, type=int, help="Override the seed in the spec.")
@workers_option
@handles_errors
def experiment(spec_path, out, seed, workers):
    """Run a named parameter sweep and emit its CSV table."""
    from .experiments import run_experiment
    from .serialize import experiment_spec_from_json

    spec = experiment_spec_from_json(_load_spec(spec_path))
    if seed is not None:
        spec["seed"] = seed
    table = run_experiment(spec)
    text = table.to_csv(out)
    if not out:
        click.echo(text, nl=False)


@main.command()
@spec_option
@handles_errors
def validate(spec_path):
    """Parse a document and check it reserializes to a fixed point."""
    from .serialize import io_roundtrip

    _emit(io_roundtrip(spec_path), None)


if __name__ == "__main__":
    main()
