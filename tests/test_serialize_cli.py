import ast
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import wstate

from wstate.errors import SchemaError
from wstate.instrument import QuantumState, apply_exact
from wstate.lcs import LcsProblem
from wstate.serialize import (
    Combination,
    EstimationTask,
    detect_kind,
    dump_any,
    instrument_from_json,
    instrument_to_json,
    io_roundtrip,
    layout_from_json,
    layout_to_json,
    lcs_from_json,
    lcs_to_json,
    load_any,
    measurement_from_json,
    polyspec_from_json,
    polyspec_to_json,
    state_from_json,
    state_to_json,
    task_from_json,
    task_to_json,
)
from wstate.subroutines import (
    PolySpec,
    build_gqt_instrument,
    build_qhp_instrument,
    build_teleport_instrument,
)
from wstate.tensor import Register, RegisterLayout, Xor

from conftest import preparation_unitary, rand_density, rand_state, run_cli


def fixed_point(doc):
    kind, value = load_any(doc)
    once = dump_any(kind, value)
    kind2, value2 = load_any(once)
    assert kind2 == kind
    assert json.dumps(once, sort_keys=True) == json.dumps(dump_any(kind2, value2), sort_keys=True)
    return value


class TestDocumentRoundtrips:
    def test_state_pure_and_density(self, rng):
        fixed_point(state_to_json(QuantumState.pure(rand_state(rng, 4))))
        fixed_point(state_to_json(QuantumState.from_density(rand_density(rng, 3))))

    def test_layout_qubits_vs_dim(self):
        lay = RegisterLayout.of(
            Register("A", 3, role="E", source="ancilla"), Register("B", 4, role="S")
        )
        doc = layout_to_json(lay)
        assert doc["registers"][0]["dim"] == 3
        assert doc["registers"][1]["qubits"] == 2
        back = fixed_point(doc)
        assert back.dims == (3, 4)

    def test_instrument_with_permutation_unitary(self, rng):
        inst = build_qhp_instrument(1)
        inputs = [
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.from_density(rand_density(rng, 2)),
        ]
        # the same unitary as a dense matrix takes the matrix form
        dense = replace(inst, unitary=inst.unitary.dense())
        for variant, form in ((inst, "permutation"), (dense, "data")):
            doc = instrument_to_json(variant)
            assert form in doc["unitary"]
            back = fixed_point(doc)
            assert np.abs(
                apply_exact(back, inputs).matrix - apply_exact(inst, inputs).matrix
            ).max() < 1e-12

    def test_register_table_written_in_full(self):
        # GQT holds its CNOT ladder as an Xor on (S, E1), whose table has 16
        # entries; the task document carries the 64-entry table of the whole
        # layout, the same bytes as when the builder made the full table (the
        # SHA-256 of that document), and reads back as the same Xor
        inst = build_gqt_instrument(2)
        assert inst.unitary.perm.size == 16
        inputs = [QuantumState.from_density(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)),
                  QuantumState.pure(np.full(4, 0.5, dtype=complex))]
        task = EstimationTask(inst, inputs, np.diag([1.0, -1.0, 2.0, 0.0]).astype(complex))
        text = json.dumps(task_to_json(task), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e608297d84afdb3b41763bbdba8f81c5e5bd0899f1a9e1a62b0b94cd26acf0b9"
        )
        d = 4
        s, e1, e2 = np.unravel_index(np.arange(d**3), (d, d, d))
        want = (s * d + (e1 ^ s)) * d + e2
        assert json.loads(text)["instrument"]["unitary"]["permutation"] == want.tolist()
        back = task_from_json(json.loads(text))
        assert isinstance(back.instrument.unitary, Xor)
        assert back.instrument.unitary.labels == ("S", "E1")
        assert np.array_equal(back.instrument.unitary.lifted().perm, want)
        assert np.array_equal(apply_exact(back.instrument, inputs).matrix,
                              apply_exact(inst, inputs).matrix)

    def test_instrument_with_decomposed_measurement(self, rng):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        inst = build_teleport_instrument(1, [(np.eye(2), x)])
        doc = instrument_to_json(inst)
        assert doc["measurement"]["kind"] == "nonnormal"
        assert len(doc["measurement"]["decomposition"]) == 2
        fixed_point(doc)

    def test_polyspec(self):
        fixed_point(polyspec_to_json(PolySpec({(1, 0): 1.0, (3, 0): -1 / 3})))

    def test_combination_both_encodings(self, rng):
        prob = LcsProblem.from_states([rand_state(rng, 4) for _ in range(2)], [0.6, 0.8])
        fixed_point(lcs_to_json(Combination(prob)))
        probu = LcsProblem.from_unitaries(
            [preparation_unitary(rand_state(rng, 4)) for _ in range(2)], [1.0, 1.0j]
        )
        fixed_point(lcs_to_json(Combination(probu)))

    def test_combination_optional_fields(self, rng):
        # observable, beta and processing are written back, so the round
        # trip checks them too
        prob = LcsProblem.from_states([rand_state(rng, 2) for _ in range(2)], [0.6, 0.8])
        obs, v = np.diag([1.0, -1.0]).astype(complex), preparation_unitary(rand_state(rng, 2))
        combo = fixed_point(lcs_to_json(Combination(prob, obs, np.array([0.6, 0.8j]), v)))
        assert np.array_equal(combo.observable, obs) and np.array_equal(combo.processing, v)
        assert np.array_equal(combo.beta, [0.6, 0.8j])

    def test_task(self, rng):
        inst = build_gqt_instrument(1)
        inputs = (
            QuantumState.from_density(rand_density(rng, 2)),
            QuantumState.from_density(rand_density(rng, 2)),
        )
        task = EstimationTask(inst, inputs, np.diag([1.0, -1.0]).astype(complex))
        doc = task_to_json(task)
        assert detect_kind(doc) == "task"
        fixed_point(doc)


class TestSchemaErrors:
    def test_missing_state_payload(self):
        with pytest.raises(SchemaError) as exc:
            state_from_json({"kind": "pure"})
        assert "vector" in str(exc.value)

    def test_bad_register_entry(self):
        with pytest.raises(SchemaError) as exc:
            layout_from_json({"registers": [{"label": "A", "qubits": 1, "dim": 2}]})
        assert "registers[0]" in str(exc.value)

    def test_unknown_role(self):
        with pytest.raises(SchemaError):
            layout_from_json({"registers": [{"label": "A", "qubits": 1, "role": "Q"}]})

    def test_measurement_kind_checked(self):
        doc = {"matrix": {"dims": [1, 1], "data": [[1.0, 0.0]]}, "kind": "diagonal"}
        with pytest.raises(SchemaError):
            measurement_from_json(doc)

    def test_bad_permutation(self):
        inst = build_qhp_instrument(1)
        doc = instrument_to_json(inst)
        doc["unitary"]["permutation"][0] = doc["unitary"]["permutation"][1]
        with pytest.raises(SchemaError):
            instrument_from_json(doc)

    def test_task_input_count(self, rng):
        inst = build_qhp_instrument(1)
        doc = task_to_json(
            EstimationTask(
                inst,
                (
                    QuantumState.from_density(rand_density(rng, 2)),
                    QuantumState.from_density(rand_density(rng, 2)),
                ),
                np.eye(2),
            )
        )
        doc["inputs"] = doc["inputs"][:1]
        with pytest.raises(SchemaError):
            task_from_json(doc)

    def test_mixed_state_encodings_rejected(self, rng):
        prob = LcsProblem.from_states([rand_state(rng, 2) for _ in range(2)], [1.0, 1.0])
        doc = lcs_to_json(Combination(prob))
        doc["states"][0] = {"unitary": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},
                           "prepares_from_zero": True}
        with pytest.raises(SchemaError):
            lcs_from_json(doc)

    def test_detect_kind_unrecognized(self):
        with pytest.raises(SchemaError):
            detect_kind({"mystery": 1})


@pytest.fixture
def task_file(tmp_path, rng):
    inst = build_qhp_instrument(1)
    inputs = (
        QuantumState.pure(rand_state(rng, 2)),
        QuantumState.pure(rand_state(rng, 2)),
    )
    task = EstimationTask(inst, inputs, np.diag([1.0, -1.0]).astype(complex))
    path = tmp_path / "task.json"
    path.write_text(json.dumps(task_to_json(task)))
    return str(path)


@pytest.fixture
def combo_file(tmp_path, rng):
    prob = LcsProblem.from_states([rand_state(rng, 4) for _ in range(2)], [0.6, 0.8])
    doc = lcs_to_json(Combination(prob))
    doc["observable"] = {
        "dims": [4, 4],
        "data": [[float((i == j) * (1 - 2 * (i % 2))), 0.0] for i in range(4) for j in range(4)],
    }
    path = tmp_path / "combo.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _capped_experiment(tmp_path, doc):
    """Run `wstate experiment` on doc in a child process. A sweep that grows
    without end meets the child's 1 GB address-space cap as a quick
    MemoryError (exit 1), or the timeout; one BLAS thread lets the cap hold
    numpy's own buffers on any core count."""
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps(doc))
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from wstate.cli import main\n"
            "main(sys.argv[1:])\n")
    return subprocess.run(
        [sys.executable, "-c", code, "experiment", "--spec", str(spec)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(pathlib.Path(wstate.__file__).parents[1]),
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )


class TestCli:
    def test_estimate_consistent_with_variance(self, task_file):
        est = run_cli("estimate", "--spec", task_file, "--shots", "50000", "--seed", "1")
        assert est.code == 0, est.stderr
        var = run_cli("variance", "--spec", task_file)
        assert var.code == 0
        e, v = json.loads(est.stdout), json.loads(var.stdout)
        assert abs(e["analytic_mean"][0] - v["mean"][0]) < 1e-12
        assert abs(e["analytic_variance"] - v["variance_per_shot"]) < 1e-12

    def test_estimate_deterministic(self, task_file):
        args = ["estimate", "--spec", task_file, "--shots", "9999", "--seed", "4"]
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout

    def test_bound_orders(self, task_file):
        res = run_cli("bound", "--spec", task_file)
        assert res.code == 0
        payload = json.loads(res.stdout)
        assert payload["b1"] <= payload["b2"] + 1e-12

    def test_design_beta(self):
        res = run_cli("design-beta", "--p", "0.5", "--r", "0.3")
        assert res.code == 0
        assert json.loads(res.stdout)["q_opt"] == 0.5

    def test_hoeffding(self):
        res = run_cli("hoeffding", "--epsilon", "0.1", "--delta", "0.05")
        assert res.code == 0
        assert json.loads(res.stdout)["shots"] == 738

    @pytest.mark.parametrize("flag, value", [
        ("--epsilon", "nan"), ("--epsilon", "inf"), ("--delta", "nan"), ("--obs-norm", "inf"),
        ("--m-norm", "nan"), ("--epsilon", "1e-200"), ("--obs-norm", "1e200")])
    def test_hoeffding_rejects_non_finite_input(self, flag, value):
        # a non-finite input, or one whose shot count overflows a float
        args = {"--epsilon": "0.1", "--delta": "0.05", flag: value}
        res = run_cli("hoeffding", *(x for item in args.items() for x in item))
        assert res.code == 2 and res.stdout == "", res.stderr

    def test_lcs_routes_agree(self, combo_file):
        aao = run_cli("lcs", "all-at-once", "--spec", combo_file)
        lcu = run_cli("lcs", "lcu", "--spec", combo_file)
        assert aao.code == 0 and lcu.code == 0
        e1 = json.loads(aao.stdout)["expectation"][0]
        e2 = json.loads(lcu.stdout)["combination_expectation"][0]
        assert abs(e1 - e2) < 1e-9

    def test_lcs_incoherent_reports(self, combo_file, tmp_path):
        # also on 1-dimensional states: O = 2 is 2 times the Pauli string on
        # zero qubits, and |0.6 + 0.8i|^2 = 1
        one_dim = tmp_path / "combo1.json"
        one_dim.write_text(json.dumps({
            "states": [{"dims": [1], "data": [[1, 0]]}, {"dims": [1], "data": [[0, 1]]}],
            "alphas": [[0.6, 0], [0.8, 0]],
            "observable": {"dims": [1, 1], "data": [[2, 0]]},
        }))
        for spec in (combo_file, str(one_dim)):
            res = run_cli("lcs", "incoherent", "--spec", spec, "--shots", "20000", "--seed", "2")
            assert res.code == 0, res.stderr
            payload = json.loads(res.stdout)
            assert payload["shots"] == 20000
        assert abs(payload["analytic_mean"][0] - 2.0) < 1e-12

    @pytest.mark.parametrize("shots", [10**30, 10**400], ids=["10**30", "10**400"])
    def test_lcs_incoherent_shots_beyond_int64_exit_2(self, combo_file, shots):
        # refused before any allocation, as estimate refuses it
        res = run_cli("lcs", "incoherent", "--spec", combo_file, "--shots", str(shots))
        assert res.code == 2, res.stderr
        assert "2**63 - 1" in res.stderr

    def test_experiment_writes_csv(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(
            json.dumps(
                {
                    "experiment": "opt-beta-surface",
                    "seed": 0,
                    "params": {"p_grid": [0.5], "r_grid": [0.5]},
                }
            )
        )
        out = tmp_path / "table.csv"
        res = run_cli("experiment", "--spec", str(spec), "--out", str(out))
        assert res.code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "p,r,q_opt,bound_at_opt"
        assert len(lines) == 3

    def test_validate(self, task_file):
        res = run_cli("validate", "--spec", task_file)
        assert res.code == 0
        assert json.loads(res.stdout) == {"kind": "task", "stable": True}

    def test_nonnormal_measurement_without_decomposition(self, task_file, tmp_path):
        # labelled "nonnormal" with no parts, M takes its split, as a
        # measurement built without a label does
        doc = json.loads(pathlib.Path(task_file).read_text())
        doc["instrument"]["measurement"] = {
            "matrix": {"dims": [2, 2], "data": [[1, 0], [1, 0], [0, 0], [1, 0]]},
            "kind": "nonnormal",
        }
        spec = tmp_path / "nonnormal.json"
        spec.write_text(json.dumps(doc))
        for argv in (["estimate", "--shots", "1000", "--seed", "2"], ["variance"], ["bound"],
                     ["validate"]):
            res = run_cli(argv[0], "--spec", str(spec), *argv[1:])
            assert res.code == 0, (argv[0], res.stderr)

    def test_schema_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "pure"}')
        res = run_cli("validate", "--spec", str(bad))
        assert res.code == 2

    def test_numerical_precondition_exits_3(self, tmp_path):
        doc = {
            "states": [
                {"dims": [2], "data": [[1.0, 0.0], [0.0, 0.0]]},
                {"dims": [2], "data": [[0.0, 0.0], [1.0, 0.0]]},
            ],
            "alphas": [[0.6, 0.0], [0.8, 0.0]],
        }
        path = tmp_path / "ortho.json"
        path.write_text(json.dumps(doc))
        res = run_cli("lcs", "all-at-once", "--spec", str(path))
        assert res.code == 3

    def test_non_unitary_preparation_matrix_exits_3(self, tmp_path):
        # as a non-unitary instrument U or processing V does
        def prep(*diag):
            data = [[float(diag[i]) if i == j else 0.0, 0.0] for i in range(2) for j in range(2)]
            return {"unitary": {"dims": [2, 2], "data": data}, "prepares_from_zero": True}

        path = tmp_path / "prep.json"
        path.write_text(json.dumps({"states": [prep(1, 2), prep(1, 1)],
                                    "alphas": [[0.6, 0.0], [0.8, 0.0]]}))
        res = run_cli("lcs", "lcu", "--spec", str(path))
        assert res.code == 3, res.stderr
        assert "preparation matrix is not unitary" in res.stderr

    def test_invalid_json_error_names_the_path(self, tmp_path):
        path = tmp_path / "open.json"
        path.write_text("{")
        for verb in ("validate", "estimate"):
            res = run_cli(verb, "--spec", str(path))
            assert res.code == 2 and res.stdout == "", res.stderr
            assert res.stderr.startswith(f"error: {path}: not valid JSON"), res.stderr

    def test_roundtrip_miss_exits_3(self, task_file, monkeypatch):
        real, calls = wstate.serialize.dump_any, iter(range(2))
        monkeypatch.setattr(
            wstate.serialize, "dump_any", lambda kind, value: {**real(kind, value), "n": next(calls)}
        )
        res = run_cli("validate", "--spec", task_file)
        assert res.code == 3, res.stderr
        assert "fixed point" in res.stderr

    def test_unknown_experiment_exits_2(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "nope"}))
        res = run_cli("experiment", "--spec", str(spec))
        assert res.code == 2

    def test_power_error_underflow_exits_2(self, tmp_path):
        # the flat family's trace is 4 * 2**(-2k): 0 in float64 from k = 538
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "power-error", "params": {"n": 2, "kmax": 600}}))
        res = run_cli("experiment", "--spec", str(spec))
        assert res.code == 2, res.stderr
        assert "'flat'" in res.stderr and "k = 538" in res.stderr

    def test_power_error_shots_beyond_int64_exit_2(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "power-error",
                                    "params": {"n": 2, "kmax": 2, "shots": 10**400}}))
        res = run_cli("experiment", "--spec", str(spec))
        assert res.code == 2, res.stderr
        assert "2**63 - 1" in res.stderr

    def test_lincombo_variance_shots_beyond_int64_exit_2(self, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "lincombo-variance",
                                    "params": {"shots": 10**400}}))
        res = run_cli("experiment", "--spec", str(spec))
        assert res.code == 2, res.stderr
        assert "shots must be at most 2**63 - 1" in res.stderr

    def test_power_error_qubits_beyond_layout_rule_exit_2(self, tmp_path):
        # refused before 2**n is formed; without the bound, forming it grows
        # memory without end
        proc = _capped_experiment(tmp_path, {"experiment": "power-error", "params": {"n": 2**70}})
        assert proc.returncode == 2, proc.stderr
        assert "n must be at most 62" in proc.stderr

    def test_qhp_vs_gqt_underflow_stops_exit_2(self, tmp_path):
        # without the stop, k runs on to 2**70 over powers that are all 0
        proc = _capped_experiment(
            tmp_path, {"experiment": "qhp-vs-gqt", "params": {"n": 1, "kmax": 2**70}}
        )
        assert proc.returncode == 2, proc.stderr
        assert "'expdecay': the trace underflows to 0 at k = 15336" in proc.stderr

    @pytest.mark.parametrize("verb", ["experiment", "validate"])
    def test_integer_beyond_digit_limit_exits_2(self, tmp_path, verb):
        # json.load raises a plain ValueError, not a JSONDecodeError, for an
        # integer literal longer than int's 4,300-digit conversion limit
        spec = tmp_path / "exp.json"
        spec.write_text('{"experiment": "power-error", "params": {"n": 1' + "0" * 5000 + "}}")
        res = run_cli(verb, "--spec", str(spec))
        assert res.code == 2, res.stderr
        assert "not valid JSON" in res.stderr

    def test_workers_below_one_exit_2(self, task_file, combo_file, tmp_path):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "opt-beta-surface"}))
        for argv in (["estimate", "--spec", task_file],
                     ["lcs", "incoherent", "--spec", combo_file],
                     ["experiment", "--spec", str(spec)]):
            res = run_cli(*argv, "--workers", "0")
            assert res.code == 2, (argv, res.stderr)

    @pytest.mark.parametrize("argv", [[], ["nosuch"], ["lcs"], ["lcs", "nosuch"],
                                      ["estimate", "--sp", "x"], ["hoeffding", "--epsilon", "1"],
                                      ["estimate", "--spec", "x", "--method", "other"]],
                             ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_usage_error_exits_2(self, argv):
        # options are never abbreviated: --sp is not --spec
        res = run_cli(*argv)
        assert res.code == 2 and res.stdout == "", res.stderr
        assert "usage: wstate" in res.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["lcs", "--help"], ["estimate", "--help"]])
    def test_help_exits_0(self, argv):
        res = run_cli(*argv)
        assert res.code == 0 and res.stdout.startswith("usage: wstate")

    def test_version(self):
        want = f"wstate, version {wstate.__version__}\n"
        assert run_cli("--version") == (0, want, "")
        proc = subprocess.run(
            [sys.executable, "-m", "wstate.cli", "--version"], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(pathlib.Path(wstate.__file__).parents[1])),
        )
        assert (proc.returncode, proc.stdout) == (0, want), proc.stderr

    @pytest.mark.parametrize("verb", [["estimate"], ["variance"], ["bound"], ["lcs", "all-at-once"],
                                      ["lcs", "incoherent"], ["lcs", "lcu"], ["experiment"],
                                      ["validate"]], ids=" ".join)
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_spec_exits_2(self, tmp_path, verb, target):
        # every verb, validate too, reads its spec through the same reader
        path = tmp_path / "missing.json" if target == "missing" else tmp_path
        res = run_cli(*verb, "--spec", str(path))
        assert res.code == 2 and res.stdout == "", res.stderr
        assert res.stderr.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("verb", ["hoeffding", "experiment"])
    def test_unwritable_out_exits_2(self, tmp_path, verb):
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "opt-beta-surface",
                                    "params": {"p_grid": [0.5], "r_grid": [0.5]}}))
        argv = {"hoeffding": ["hoeffding", "--epsilon", "0.1", "--delta", "0.05"],
                "experiment": ["experiment", "--spec", str(spec)]}[verb]
        out = tmp_path / "no-such-dir" / "result"
        res = run_cli(*argv, "--out", str(out))
        assert res.code == 2 and res.stdout == "", res.stderr
        assert res.stderr.startswith(f"error: {out}: ")

    def test_power_error_rounded_ratio_is_clipped(self, tmp_path):
        # at k = 1794 the expdecay ratio |psi^k_0|^2 / trace rounds to 1 + 2**-52
        spec = tmp_path / "exp.json"
        spec.write_text(json.dumps({"experiment": "power-error",
                                    "params": {"n": 2, "kmax": 1794, "families": ["expdecay"]}}))
        res = run_cli("experiment", "--spec", str(spec))
        assert res.code == 0, res.stderr
        last = res.stdout.splitlines()[-1].split(",")
        assert last[:2] == ["expdecay", "1794"]
        assert float(last[4]) == 0.0 and float(last[7]) == 0.0

    def test_io_roundtrip_function(self):
        doc = json.loads(json.dumps(instrument_to_json(build_gqt_instrument(1))))
        assert io_roundtrip(doc) == {"kind": "instrument", "stable": True}


MALFORMED_CORPUS = {
    "task": (
        {
            "instrument": {
                "layout": {"registers": [{"label": "S", "qubits": 1, "role": "S"},
                                         {"label": "E", "qubits": 1, "role": "E"}]},
                "unitary": {"permutation": [0, 1, 3, 2]},
                "measurement": {
                    "matrix": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                    "kind": "hermitian",
                    "decomposition": [{"coefficient": [1, 0], "part": {
                        "dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}}],
                },
            },
            "inputs": [
                {"kind": "density", "matrix": {"dims": [2, 2],
                                               "data": [[0.7, 0], [0.2, 0], [0.2, 0], [0.3, 0]]}},
                {"kind": "pure", "vector": {"dims": [2], "data": [[0.6, 0], [0.8, 0]]}},
            ],
            "observable": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
        },
        [["estimate", "--shots", "50"], ["variance"], ["bound"], ["validate"]],
    ),
    "combination": (
        {
            "states": [{"dims": [2], "data": [[1, 0], [0, 0]]},
                       {"dims": [2], "data": [[0.7071067811865475, 0], [0.7071067811865475, 0]]}],
            "alphas": [[0.6, 0], [0.8, 0]],
            "observable": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
            "beta": [[0.6, 0], [0.8, 0]],
            "processing": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [1, 0]]},
        },
        [["lcs", "all-at-once"], ["lcs", "incoherent", "--shots", "50"], ["lcs", "lcu"],
         ["validate"]],
    ),
    "power-error": (
        {"experiment": "power-error", "seed": 1,
         "params": {"n": 2, "kmax": 2, "shots": 10, "families": ["sin", "flat"]}},
        [["experiment"], ["validate"]],
    ),
    "lincombo-variance": (
        {"experiment": "lincombo-variance", "seed": 1,
         "params": {"n": 1, "shots": 10, "r_values": [0.5], "alpha0_values": [0.5],
                    "beta_grid": [0.5]}},
        [["experiment"], ["validate"]],
    ),
    "polynomial": (
        {"terms": [{"k": 1, "l": 0, "re": 1.0, "im": 0.0},
                   {"k": 2, "l": 1, "re": 0.5, "im": -0.5}]},
        [["validate"]],
    ),
}
WRONG_VALUES = ("x", True, None, 1.5, -3, [], {}, ["x", 0], math.nan)


def _field_paths(doc, prefix=()):
    """Every key of every object and the first entry of every list."""
    items = doc.items() if isinstance(doc, dict) else [(0, doc[0])] if doc else []
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


def _with_value(doc, path, value):
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_malformed_documents_exit_0_2_or_3(tmp_path):
    """Each field of each document, replaced by each wrong-typed value, makes
    every verb that reads the document succeed or fail with a typed error:
    exit code 0, 2 or 3, never 1 with a traceback."""
    spec = tmp_path / "doc.json"
    crashed = []
    for name, (doc, calls) in MALFORMED_CORPUS.items():
        for path in _field_paths(doc):
            for value in WRONG_VALUES:
                spec.write_text(json.dumps(_with_value(doc, path, value)))
                for argv in calls:
                    try:
                        code = run_cli(*argv, "--spec", str(spec)).code
                    except Exception as exc:
                        code = type(exc).__name__
                    if code not in (0, 2, 3):
                        field = ".".join(map(str, path))
                        crashed.append(f"{name}.{field}={value!r} {' '.join(argv)}: {code}")
    assert crashed == []
    spec.write_text(json.dumps({"terms": [{"k": 1, "l": 0, "re": True, "im": math.nan}]}))
    assert run_cli("validate", "--spec", str(spec)).code == 2


# the combination document of README.md
README_COMBINATION = {
    "states": [{"dims": [2], "data": [[1, 0], [0, 0]]},
               {"dims": [2], "data": [[0.7071067811865475, 0], [0.7071067811865475, 0]]}],
    "alphas": [[0.6, 0], [0.8, 0]],
    "observable": {"dims": [2, 2], "data": [[1, 0], [0, 0], [0, 0], [-1, 0]]},
}


def test_readme_combination_validates(tmp_path):
    spec = tmp_path / "combo.json"
    spec.write_text(json.dumps(README_COMBINATION))
    res = run_cli("validate", "--spec", str(spec))
    assert (res.code, res.stdout) == (0, '{\n  "kind": "combination",\n  "stable": true\n}\n')


@pytest.mark.parametrize(
    "field,value,error",
    [
        ("observable", {"dims": [2, 2], "data": [[1, 0]]},
         "combination.observable.data: expected 4 entries, got 1"),
        ("observable", {"dims": [1, 1], "data": [[1, 0]]}, "combination.observable: must be 2x2"),
        ("beta", "x", "combination.beta: must be one [re, im] pair per state"),
        ("beta", [[1, 0]], "combination.beta: must be one [re, im] pair per state"),
        ("beta", [[1, 0], ["a", 0]], "combination.beta[1]: re must be a finite number"),
        ("processing", {"dims": [2, 2], "data": [[1, 0]] * 3},
         "combination.processing.data: expected 4 entries, got 3"),
        ("processing", {"dims": [1, 1], "data": [[1, 0]]}, "combination.processing: must be 2x2"),
    ],
)
def test_malformed_combination_field_exits_2(tmp_path, field, value, error):
    """validate reads a combination as the lcs verbs do: a malformed optional
    field makes each of them exit 2 with the same error, not 0 (validate
    read only the states) or 1 (a shape that reached a matrix product)."""
    spec = tmp_path / "combo.json"
    spec.write_text(json.dumps({**README_COMBINATION, field: value}))
    for argv in (["validate"], ["lcs", "all-at-once"], ["lcs", "incoherent"], ["lcs", "lcu"]):
        res = run_cli(*argv, "--spec", str(spec))
        assert res.code == 2 and res.stderr.startswith(f"error: {error}"), (argv, res.stderr)


@pytest.mark.parametrize(
    "registers",
    [
        [{"label": "S", "qubits": 10**400, "role": "S"}],
        [{"label": "S", "qubits": 2**70, "role": "S"}],
        [{"label": "S", "dim": 10**400, "role": "S"}],
        [{"label": "S", "dim": 2**70, "role": "S"}],
        # each register fits, their product does not
        [{"label": "S", "qubits": 40, "role": "S"}, {"label": "E", "dim": 2**40, "role": "E"}],
    ],
)
def test_huge_register_sizes_exit_2(tmp_path, registers):
    """A register size or layout dimension of 2**63 or more is a schema
    error raised before any power or product of it, so it exits 2 at once."""
    doc, calls = MALFORMED_CORPUS["task"]
    doc = _with_value(doc, ("instrument", "layout", "registers"), registers)
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    for argv in calls:
        res = run_cli(*argv, "--spec", str(spec))
        assert res.code == 2, (argv, res.stderr)
        assert "2**63" in res.stderr, res.stderr


@pytest.mark.parametrize("entry", [2**70, 10**400], ids=["2**70", "10**400"])
def test_huge_permutation_entries_exit_2(tmp_path, entry):
    """A permutation entry too large for int64 is a schema error raised
    before the conversion, so every verb that reads the task exits 2."""
    doc, calls = MALFORMED_CORPUS["task"]
    doc = _with_value(doc, ("instrument", "unitary", "permutation", 0), entry)
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    for argv in calls:
        res = run_cli(*argv, "--spec", str(spec))
        assert res.code == 2, (argv, res.stderr)
        assert "unitary.permutation" in res.stderr, res.stderr


def test_library_raises_only_typed_errors():
    """No assert statement and no bare AssertionError in library code, so
    every failure reaches the CLI as a WstateError with exit code 2 or 3."""
    src = pathlib.Path(wstate.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []


def test_operator_forms_chosen_only_in_tensor():
    """No library module but tensor asks which form (dense, permutation or
    low-rank) an operator is held in, and tensor asks only in the adapter
    (form)."""
    forms = {"DenseOperator", "LowRankOperator", "PermutationUnitary"}
    src = pathlib.Path(wstate.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            scopes = top.body if isinstance(top, ast.ClassDef) else [top]
            for scope in scopes:
                for node in ast.walk(scope):
                    if (
                        isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "isinstance"
                        and forms & {getattr(n, "id", None) for n in ast.walk(node.args[1])}
                    ):
                        found.append((path.name, getattr(scope, "name", None)))
    assert [f for f in found if f[0] != "tensor.py"] == []
    assert {name for _, name in found} == {"form"}


def test_library_holds_no_test_only_code():
    """Every top-level function and class in library code is used by the
    library or exported from the package, so none exists only for tests.
    The command line's verb table names every verb function."""
    src = pathlib.Path(wstate.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    del trees["__init__.py"]
    exported = {name for names in wstate._EXPORTS.values() for name in names}
    used = {
        node.id for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    found = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | exported
    ]
    assert found == []


def _fresh(code: str, *argv: str):
    """Run code in a fresh interpreter on this source tree; returns the JSON
    value of the last line it prints."""
    src = pathlib.Path(wstate.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    return json.loads(out.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m.startswith('wstate.'))"


def test_cli_import_leaves_scipy_out():
    """SciPy is a test dependency only: the command line never imports it."""
    assert _fresh("import json, sys, wstate.cli; print(json.dumps('scipy' in sys.modules))") is False


def test_package_import_loads_no_submodule():
    assert _fresh(f"import json, sys, wstate; print(json.dumps({_LOADED}))") == []


def test_every_export_resolves_and_is_listed():
    missing, unlisted = _fresh(
        "import importlib, json, wstate\n"
        "missing = [name for name in wstate.__all__ if not hasattr(wstate, name)]\n"
        "missing += [name for mod, names in wstate._EXPORTS.items() for name in names\n"
        "            if getattr(wstate, name) is not\n"
        "            getattr(importlib.import_module('wstate.' + mod), name)]\n"
        "print(json.dumps([missing, sorted(set(wstate.__all__) - set(dir(wstate)))]))"
    )
    assert missing == [] and unlisted == []


def test_unknown_attribute_raises_attribute_error():
    # hasattr is False only when the lookup raises AttributeError
    has, loaded = _fresh(
        f"import json, sys, wstate; print(json.dumps([hasattr(wstate, 'no_such_name'), {_LOADED}]))"
    )
    assert has is False and loaded == []


@pytest.mark.parametrize("verb", ["hoeffding", "estimate"])
def test_verb_loads_only_its_modules(verb, task_file):
    argv = {"hoeffding": ["hoeffding", "--epsilon", "0.1", "--delta", "0.05"],
            "estimate": ["estimate", "--spec", task_file, "--shots", "100"]}[verb]
    loaded = _fresh(
        "import json, sys\n"
        "from wstate.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        f"print(json.dumps({_LOADED}))",
        *argv,
    )
    assert "wstate.sampling" in loaded
    assert not {"wstate.experiments", "wstate.lcs", "wstate.subroutines"} & set(loaded)


def test_estimate_and_incoherent_run_without_scipy(task_file, combo_file, monkeypatch):
    for name in {m for m in sys.modules if m.split(".")[0] == "scipy"} | {"scipy"}:
        monkeypatch.setitem(sys.modules, name, None)
    est = run_cli("estimate", "--spec", task_file, "--shots", "1000")
    assert est.code == 0, est.stderr
    inc = run_cli("lcs", "incoherent", "--spec", combo_file, "--shots", "1000")
    assert inc.code == 0, inc.stderr
