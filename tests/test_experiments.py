import collections

import numpy as np
import pytest

from wstate.errors import InvalidGrid, UnknownExperiment, ValidationError
from wstate.experiments import (
    EXPERIMENTS,
    ResultTable,
    family_state,
    overlap_pair,
    run_experiment,
)


class TestResultTable:
    def test_rectangularity_enforced(self):
        t = ResultTable("demo", ("a", "b"))
        t.add(1, 2.0)
        with pytest.raises(ValidationError):
            t.add(1)

    def test_column_lookup(self):
        t = ResultTable("demo", ("a", "b"))
        t.add(1, 2.0)
        t.add(3, 4.0)
        assert t.column("b") == [2.0, 4.0]
        with pytest.raises(ValidationError):
            t.column("c")

    def test_csv_shape(self):
        t = ResultTable("demo", ("a", "b"), metadata={"seed": 1})
        t.add(1, 0.5)
        lines = t.to_csv().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "a,b"
        assert lines[2] == "1,0.5"

    def test_csv_full_float_precision(self):
        t = ResultTable("demo", ("x",))
        value = 0.1 + 0.2
        t.add(value)
        assert t.to_csv().splitlines()[2] == repr(value)


class TestFamilies:
    def test_families_normalized(self):
        for fam in ("sin", "expdecay", "flat"):
            v = family_state(fam, 3)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            family_state("triangle", 2)

    def test_overlap_pair_exact(self):
        for r in (0.067, 0.58, 0.95, 1.0):
            a, b = overlap_pair(8, r, seed=4)
            assert abs(abs(np.vdot(a, b)) ** 2 - r) < 1e-12

    def test_overlap_pair_range(self):
        with pytest.raises(InvalidGrid):
            overlap_pair(4, 0.0, seed=0)


class TestDispatch:
    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            run_experiment({"experiment": "nope"})

    def test_all_experiments_run_small(self):
        small = {
            "power-error": {"n": 2, "kmax": 2, "shots": 10},
            "opt-beta-surface": {"p_grid": [0.5], "r_grid": [0.5]},
            "lincombo-variance": {
                "n": 2,
                "r_values": [0.5],
                "alpha0_values": [0.5],
                "beta_grid": [0.4, 0.6],
            },
            "method-comparison": {"n": 2, "r_grid": [0.5]},
            "qhp-vs-gqt": {"n": 2, "kmax": 2},
        }
        for name in EXPERIMENTS:
            table = run_experiment({"experiment": name, "seed": 1, "params": small[name]})
            assert table.rows, name
            assert all(len(r) == len(table.columns) for r in table.rows)

    def test_csv_deterministic_modulo_timestamp(self):
        spec = {"experiment": "power-error", "seed": 9, "params": {"n": 2, "kmax": 3, "shots": 50}}
        a = run_experiment(spec).to_csv().splitlines()
        b = run_experiment(spec).to_csv().splitlines()
        assert a[1:] == b[1:]

    def test_invalid_grid_reported(self):
        with pytest.raises(InvalidGrid):
            run_experiment({"experiment": "opt-beta-surface", "params": {"p_grid": []}})
        with pytest.raises(InvalidGrid):
            run_experiment({"experiment": "lincombo-variance", "params": {"r_values": [1.2]}})

    def test_params_are_typed(self):
        # int() used to truncate 2.5 to 2; "sin" used to be read as ["s", "i", "n"]
        for params in ({"n": 2.5}, {"kmax": "3"}, {"shots": True}, {"families": "sin"}):
            with pytest.raises(InvalidGrid):
                run_experiment({"experiment": "power-error", "params": params})
        with pytest.raises(InvalidGrid):
            run_experiment({"experiment": "lincombo-variance", "seed": -1})


class TestPowerError:
    def test_sin_family_trends(self):
        table = run_experiment({"experiment": "power-error", "seed": 42})
        fams = table.column("family")
        traces = [v for f, v in zip(fams, table.column("trace")) if f == "sin"]
        rels = [v for f, v in zip(fams, table.column("rel_error")) if f == "sin"]
        assert all(a > b for a, b in zip(traces, traces[1:]))
        assert all(a < b for a, b in zip(rels, rels[1:]))

    def test_flat_family_geometric_trace(self):
        table = run_experiment(
            {"experiment": "power-error", "seed": 0, "params": {"n": 3, "kmax": 3, "shots": 10, "families": ["flat"]}}
        )
        traces = table.column("trace")
        # flat state: trace shrinks by exactly d per squaring step
        assert abs(traces[0] / traces[1] - 8.0) < 1e-9

    def test_metadata_carries_formulas(self):
        table = run_experiment({"experiment": "power-error", "seed": 0, "params": {"n": 2, "kmax": 1, "shots": 10}})
        assert "sin" in table.metadata["formulas"]

    def test_sweep_draws_from_one_generator(self, generators_built):
        # 18 rows, drawn in turn from the seed's one stream
        table = run_experiment({"experiment": "power-error", "seed": 5})
        assert len(table.rows) == 18
        assert len(generators_built) == 1

    def test_sampled_estimates_within_5_se(self):
        table = run_experiment({"experiment": "power-error", "seed": 5, "params": {"shots": 100000}})
        for exact, std, estimate in zip(*(table.column(c) for c in ("exact", "std_dev", "estimate"))):
            assert abs(estimate - exact) <= 5 * std


class TestLincomboVariance:
    def test_argmin_agreement(self):
        table = run_experiment({"experiment": "lincombo-variance", "seed": 7})
        groups = collections.defaultdict(list)
        for row in table.rows:
            r, a0, q = row[0], row[1], row[2]
            var = row[table.columns.index("variance")]
            bound = row[table.columns.index("bound")]
            groups[(r, a0)].append((q, var, bound))
        for pts in groups.values():
            q_var = min(pts, key=lambda p: p[1])[0]
            q_bound = min(pts, key=lambda p: p[2])[0]
            assert abs(q_var - q_bound) <= 0.05 + 1e-12


class TestQhpVsGqt:
    def test_entrywise_never_loses_for_unit_obs(self):
        table = run_experiment({"experiment": "qhp-vs-gqt", "seed": 0})
        assert all(d <= 1e-12 for d in table.column("difference"))
