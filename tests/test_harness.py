"""Datasets, experiments, sweeps, export, and the command-line interface."""

import csv
import json
import math
import os
import pickle
import random
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
from ldptune import cli
from ldptune.harness import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    DataMismatch,
    Dataset,
    DirichletProvenance,
    EmptyAfterFiltering,
    ExperimentConfig,
    MissingColumn,
    ParetoRow,
    UnparsableRow,
    WorkerLost,
    export,
    gen_dirichlet,
    load_csv_column,
    pareto_sweep,
    parse_data_spec,
    parse_grid,
    run_experiment,
)
from ldptune.model import (DataError, Family, NonFinite, ProtocolConfig,
                           RangeError)
from ldptune.optimizer import ObjectiveWeights
from ldptune.presets import ADAPTIVE_NAMES, PROTOCOL_NAMES, resolve_protocol

W_HALF = ObjectiveWeights(0.5)


@pytest.fixture
def pools(monkeypatch):
    """Stands in for the harness's process pool: records each pool's size
    and maps in this process, so a test forks nothing."""
    sizes = []

    class Pool:
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def pool(processes):
        sizes.append(processes)
        return Pool()

    monkeypatch.setattr("ldptune.harness._process_pool", pool)
    return sizes


def _killed_run(task):
    """Stands in for `harness._one_run` in a forked worker, which dies as an
    out-of-memory kill would end it, without a result."""
    os.kill(os.getpid(), signal.SIGKILL)


class TestGenDirichlet:
    def test_values_in_domain_and_deterministic(self):
        a = gen_dirichlet(6, 5000, 42)
        b = gen_dirichlet(6, 5000, 42)
        assert np.array_equal(a.values, b.values)
        assert a.values.min() >= 1 and a.values.max() <= 6
        assert len(a.values) == 5000
        assert a.k == 6
        assert a.provenance == DirichletProvenance(42)

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_dirichlet(6, 1000, 1).values,
                                  gen_dirichlet(6, 1000, 2).values)

    def test_k_one_all_ones(self):
        ds = gen_dirichlet(1, 50, 0)
        assert np.all(ds.values == 1)

    def test_frequency_vector_normalized(self):
        ds = gen_dirichlet(100, 10, 7)
        assert ds.base_frequencies is not None
        assert abs(ds.base_frequencies.sum() - 1.0) < 1e-12

    def test_sampling_matches_drawn_vector(self):
        k, n = 100, 5 * 10 ** 5
        ds = gen_dirichlet(k, n, 11)
        f = ds.base_frequencies
        emp = ds.frequencies()
        stderr = np.sqrt(f * (1 - f) / n)
        assert np.all(np.abs(emp - f) <= 4 * np.maximum(stderr, 1e-12))


class TestDatasetValues:
    @pytest.mark.parametrize("values,bad", [([0, 1, 2], 0), ([1, 2, 5], 5),
                                            ([1.5, 2], 1.5)])
    def test_bad_values_rejected_at_construction(self, values, bad):
        # they used to pass, and fail mid-run with numpy errors
        with pytest.raises(DataError) as exc:
            Dataset(values, 4, "uniform")
        assert str(exc.value) == ("dataset values must be integers in "
                                  f"[1, 4], got {bad!r}")

    @pytest.mark.parametrize("values", [[], [[1, 2]], 3])
    def test_values_must_be_a_non_empty_vector(self, values):
        with pytest.raises(DataError, match="non-empty 1-D array"):
            Dataset(values, 4, "uniform")

    def test_valid_values_kept(self):
        values = (np.arange(10) % 4) + 1
        assert Dataset(values, 4, "uniform").values is values
        assert np.array_equal(Dataset([1, 4], 4, "uniform").values, [1, 4])


class TestLoadCsvColumn:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_categorical_sorted_distinct(self, tmp_path):
        path = self._write(tmp_path, "name,color\na,red\nb,blue\nc,red\nd,green\n")
        ds = load_csv_column(path, "color")
        # sorted distinct: blue=1, green=2, red=3
        assert ds.k == 3
        assert list(ds.values) == [3, 1, 3, 2]
        assert ds.rejected == 0

    def test_range_mode_offset_mapping(self, tmp_path):
        path = self._write(tmp_path, "age\n30\n30\n45\n")
        ds = load_csv_column(path, "age", (0, 99))
        assert ds.k == 100
        assert list(ds.values) == [31, 31, 46]

    def test_range_mode_rejects_out_of_range(self, tmp_path):
        path = self._write(tmp_path, "age\n30\n150\n-2\n41\n")
        ds = load_csv_column(path, "age", (0, 99))
        assert list(ds.values) == [31, 42]
        assert ds.rejected == 2

    def test_empty_cells_filtered_and_counted(self, tmp_path):
        path = self._write(tmp_path, "age\n30\n\n45\n")
        ds = load_csv_column(path, "age", (0, 99))
        assert list(ds.values) == [31, 46]
        assert ds.rejected == 1

    def test_missing_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingColumn) as exc:
            load_csv_column(path, "c")
        assert exc.value.column == "c"

    def test_unparsable_row_cites_line_number(self, tmp_path):
        path = self._write(tmp_path, "age\n30\nforty\n50\n")
        with pytest.raises(UnparsableRow) as exc:
            load_csv_column(path, "age", (0, 99))
        assert exc.value.line == 3
        assert "3" in str(exc.value)

    def test_short_row_cites_line_number(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(UnparsableRow) as exc:
            load_csv_column(path, "b")
        assert exc.value.line == 3

    def test_empty_after_filtering(self, tmp_path):
        path = self._write(tmp_path, "age\n150\n200\n")
        with pytest.raises(EmptyAfterFiltering):
            load_csv_column(path, "age", (0, 99))

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv_column(str(tmp_path / "nope.csv"), "age")

    def test_file_descriptor_is_a_range_error(self, tmp_path):
        # open() takes an int as a descriptor and would close it on the way
        # out, so the caller's own file would go with it
        fd = os.open(self._write(tmp_path, "a\n1\n"), os.O_RDONLY)
        try:
            with pytest.raises(RangeError) as exc:
                load_csv_column(fd, "a")
            assert exc.value.field == "path"
            os.fstat(fd)
        finally:
            os.close(fd)


class TestParseDataSpec:
    def test_dirichlet(self):
        ds = parse_data_spec("dirichlet", 5, 100, 3)
        assert ds.k == 5 and len(ds.values) == 100

    def test_dirichlet_requires_n(self):
        with pytest.raises(RangeError):
            parse_data_spec("dirichlet", 5, None, 3)

    def test_csv_with_range_suffix(self, tmp_path):
        path = tmp_path / "ages.csv"
        path.write_text("age\n10\n20\n", encoding="utf-8")
        ds = parse_data_spec(f"csv:{path}:age:0-99", 100, None, 0)
        assert ds.k == 100
        assert list(ds.values) == [11, 21]

    def test_unknown_spec_rejected(self):
        with pytest.raises(RangeError):
            parse_data_spec("bogus", 5, 10, 0)


class TestRunExperiment:
    GRR8 = ProtocolConfig(Family.GRR, 2.0, 8)

    def _cfg(self, **kw):
        base = dict(n=2000, runs=3, master_seed=5, data="dirichlet")
        base.update(kw)
        return ExperimentConfig(**base)

    def test_deterministic(self):
        a = run_experiment(self.GRR8, self._cfg())
        b = run_experiment(self.GRR8, self._cfg())
        assert len(a) == 3
        for ra, rb in zip(a, b):
            assert ra.empirical_asr == rb.empirical_asr
            assert ra.empirical_mse == rb.empirical_mse
            assert np.array_equal(ra.f_hat, rb.f_hat)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # four forked workers give the serial path's bits, in run order,
        # and none is left running after the sweep
        import multiprocessing
        a = run_experiment(self.GRR8, self._cfg(runs=6), workers=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        b = run_experiment(self.GRR8, self._cfg(runs=6), workers=4)
        for ra, rb in zip(a, b, strict=True):
            assert ra.empirical_asr == rb.empirical_asr
            assert ra.empirical_mse == rb.empirical_mse
            assert np.array_equal(ra.f_hat, rb.f_hat)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers,runs,cpus,processes", [
        (100_000, 6, 2, 2), (4, 6, None, 1), (8, 3, 16, 3), (2, 6, 16, 2),
        (1, 6, 16, 1)])
    def test_processes_capped_by_runs_and_cpus(self, workers, runs, cpus,
                                               processes, pools, monkeypatch):
        # a pool gets min(workers, runs, CPUs) worker processes, and none is
        # made when that is 1
        want = run_experiment(self.GRR8, self._cfg(runs=runs))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = run_experiment(self.GRR8, self._cfg(runs=runs), workers=workers)
        assert pools == ([processes] if processes > 1 else [])
        for ra, rb in zip(got, want, strict=True):
            assert np.array_equal(ra.f_hat, rb.f_hat)

    def test_no_pool_without_fork(self, pools, monkeypatch):
        # a platform that cannot fork runs every run in this process
        want = run_experiment(self.GRR8, self._cfg(runs=4))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delattr(os, "fork", raising=False)
        got = run_experiment(self.GRR8, self._cfg(runs=4), workers=4)
        assert pools == []
        for ra, rb in zip(got, want, strict=True):
            assert np.array_equal(ra.f_hat, rb.f_hat)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # a RangeError raised in a worker process crosses the pool intact,
        # not as a broken pool; the fork inherits the patched kernel
        def bad_run(group, x0, seed, run):
            raise RangeError("x", "an integer in [1, 8]", 1.5)
        monkeypatch.setattr("ldptune.harness.simulate_run", bad_run)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RangeError) as exc:
            pareto_sweep(["grr", "oue"], [2.0], [8], W_HALF,
                         experiment=self._cfg(runs=4), workers=2)
        assert (exc.value.field, exc.value.allowed, exc.value.got) == (
            "x", "an integer in [1, 8]", 1.5)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_killed_worker_is_one_error(self, capsys, monkeypatch):
        # a lost worker ends the sweep with WorkerLost, not a broken pool,
        # leaves no process behind, and the CLI exits 1 with one error line
        import multiprocessing
        monkeypatch.setattr("ldptune.harness._one_run", _killed_run)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(WorkerLost):
            run_experiment(self.GRR8, self._cfg(runs=4), workers=2)
        assert multiprocessing.active_children() == []
        code, out, err = _main(capsys, "pareto", "--protocols", "grr",
                               "--eps", "2", "--k", "8", "--n", "100",
                               "--runs", "2", "--workers", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert multiprocessing.active_children() == []

    def test_adaptive_resolved_protocol(self):
        stats = run_experiment(resolve_protocol("ass", 2.0, 8, W_HALF),
                               ExperimentConfig(500, 2, 1))
        assert len(stats) == 2

    @pytest.mark.parametrize("field,counts", [
        ("n", (50.5, 1, 0)), ("runs", (50, 1.5, 0)), ("seed", (50, 1, 0.5)),
        ("n", (True, 1, 0)), ("runs", (50, False, 0)), ("seed", (50, 1, True)),
    ])
    def test_counts_must_be_integers(self, field, counts):
        with pytest.raises(RangeError) as exc:
            ExperimentConfig(*counts)
        assert exc.value.field == field
        # numpy integers are counts too, and a numpy seed names the same
        # streams as the python int
        want = run_experiment(self.GRR8, ExperimentConfig(50, 1, 7))[0]
        for seed in (np.int64(7), np.uint64(7)):
            exp = ExperimentConfig(np.int64(50), np.int32(1), seed)
            got = run_experiment(self.GRR8, exp)[0]
            assert np.array_equal(got.f_hat, want.f_hat)

    @pytest.mark.parametrize("data", [123, None, b"dirichlet", ["dirichlet"]])
    def test_data_must_be_a_dataset_or_a_spec(self, data):
        with pytest.raises(RangeError) as exc:
            ExperimentConfig(10, 1, 0, data=data)
        assert exc.value.field == "data"

    def test_protocol_must_be_a_config(self):
        with pytest.raises(RangeError, match="ResolvedProtocol"):
            run_experiment(("ass", 2.0, 8), self._cfg())

    def test_workers_below_one_is_a_range_error(self, monkeypatch):
        def no_runs(*args):
            raise AssertionError("a run started before the check")
        monkeypatch.setattr("ldptune.harness.simulate_run", no_runs)
        for workers in (0, -2):
            with pytest.raises(RangeError, match="workers"):
                run_experiment(self.GRR8, self._cfg(), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.0, True])
    def test_workers_must_be_an_integer(self, workers, pools, monkeypatch):
        # 1.5 and 2.0 once built a pool of that size and True ran serially;
        # both entry points now raise before any point resolves or runs
        def no_call(*args, **kwargs):
            raise AssertionError("reached past the workers check")
        monkeypatch.setattr("ldptune.harness.resolve_protocol", no_call)
        monkeypatch.setattr("ldptune.harness.simulate_run", no_call)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        exp = self._cfg(runs=4)
        for call in (lambda: run_experiment(self.GRR8, exp, workers=workers),
                     lambda: pareto_sweep(["grr"], [1.0], [8], W_HALF,
                                          experiment=exp, workers=workers)):
            with pytest.raises(RangeError) as exc:
                call()
            assert exc.value.field == "workers"
        assert pools == []

    def test_dataset_k_mismatch(self, tmp_path):
        # a Dataset, and a CSV spec whose file holds 3 categories; the sweep
        # takes the same path as run_experiment
        path = tmp_path / "three.csv"
        path.write_text("a\n1\n2\n3\n", encoding="utf-8")
        for data in (gen_dirichlet(5, 100, 0), f"csv:{path}:a"):
            with pytest.raises(DataMismatch):
                run_experiment(self.GRR8, self._cfg(data=data, n=100))
            with pytest.raises(DataMismatch):
                pareto_sweep(["grr"], [2.0], [8], W_HALF,
                             experiment=self._cfg(data=data, n=100))

    def test_n_larger_than_dataset(self, tmp_path):
        path = tmp_path / "eight.csv"
        path.write_text("a\n" + "".join(f"{v}\n" for v in range(1, 9)),
                        encoding="utf-8")
        for data in (gen_dirichlet(8, 100, 0), f"csv:{path}:a"):
            with pytest.raises(DataMismatch):
                run_experiment(self.GRR8, self._cfg(data=data, n=200))
            with pytest.raises(DataMismatch):
                pareto_sweep(["grr"], [2.0], [8], W_HALF,
                             experiment=self._cfg(data=data, n=200))

    def test_mse_against_the_first_n_values(self):
        # a run of n users from a longer dataset measures its MSE against
        # the frequencies of those n values, not of the whole dataset, and
        # a sweep reads the same n and MSE
        ds = gen_dirichlet(8, 1000, 3)
        exp = ExperimentConfig(100, 1, 0, ds)
        (stats,) = run_experiment(self.GRR8, exp)
        head = np.bincount(ds.values[:100] - 1, minlength=8) / 100
        assert stats.empirical_mse == np.mean((stats.f_hat - head) ** 2)
        assert stats.empirical_mse != np.mean(
            (stats.f_hat - ds.frequencies()) ** 2)
        (row,) = pareto_sweep(["grr"], [2.0], [8], W_HALF, experiment=exp)
        assert (row.n, row.empirical_mse) == (100, stats.empirical_mse)

    def test_n_none_uses_dataset_length(self):
        ds = gen_dirichlet(8, 300, 0)
        stats = run_experiment(self.GRR8, self._cfg(data=ds, n=None, runs=1))
        assert len(stats) == 1

    def test_grr_uniform_closed_form_example(self):
        # mean empirical ASR within 4 stderr of e^2/(e^2+15)
        eps, k, n, runs = 2.0, 16, 10 ** 5, 100
        cfg = ProtocolConfig(Family.GRR, eps, k)
        values = (np.arange(n) % k) + 1
        ds = Dataset(values, k, "uniform")
        stats = run_experiment(cfg, ExperimentConfig(n, runs, 7, ds), workers=4)
        mean_asr = float(np.mean([s.empirical_asr for s in stats]))
        expect = math.exp(2.0) / (math.exp(2.0) + 15)
        stderr = math.sqrt(expect * (1 - expect) / (n * runs))
        assert abs(mean_asr - expect) < 4 * stderr

    def test_oue_mse_example_as_stated(self):
        # OUE at eps=4, k=100, n=5e4, 100 runs: mean empirical MSE within 10%
        # of the exact expected MSE.  `analytic_mse` is the approximate
        # first-order form, which drops the (1 - p* - q*) / (k n (p* - q*))
        # term (a ~13% effect at eps=4); the reference adds that term back
        # from the oracle, and the gap to the approximate form is printed as
        # a diagnostic only.
        eps, k, n, runs = 4.0, 100, 5 * 10 ** 4, 100
        rp = resolve_protocol("oue", eps, k)
        ds = gen_dirichlet(k, n, 7)
        stats = run_experiment(rp, ExperimentConfig(n, runs, 7, ds), workers=4)
        mean_mse = float(np.mean([s.empirical_mse for s in stats]))
        from ldptune.protocols import analytic_mse, pure_params
        approx = analytic_mse(rp.config, n)
        pp = pure_params(rp.config)
        exact = approx + (orc.exact_mean_variance(pp.p_star, pp.q_star, k, n)
                          - orc.pure_variance(pp.p_star, pp.q_star, n))
        print(f"\noue mse: empirical={mean_mse:.4e} exact={exact:.4e} "
              f"(rel {abs(mean_mse - exact) / exact:.1%}) "
              f"approx={approx:.4e} (rel {abs(mean_mse - approx) / approx:.1%},"
              f" not asserted)")
        assert abs(mean_mse - exact) / exact < 0.10

    def test_empirical_asr_tracks_analytic_at_moderate_eps(self):
        # at eps=2 the closed forms and simulation agree within 1% absolute
        for name in ("grr", "oue", "olh"):
            rp = resolve_protocol(name, 2.0, 50)
            ds = gen_dirichlet(50, 2 * 10 ** 4, 3)
            stats = run_experiment(rp, ExperimentConfig(2 * 10 ** 4, 30, 3, ds),
                                   workers=4)
            mean_asr = float(np.mean([s.empirical_asr for s in stats]))
            from ldptune.attacks import expected_asr
            assert abs(mean_asr - expected_asr(rp.config)) < 0.01

    def test_mse_scales_inversely_with_n(self):
        eps, k, runs = 2.0, 10, 60
        cfg = ProtocolConfig(Family.GRR, eps, k)
        out = {}
        for n in (2000, 4000):
            values = (np.arange(n) % k) + 1
            ds = Dataset(values, k, "uniform")
            stats = run_experiment(cfg, ExperimentConfig(n, runs, 11, ds),
                                   workers=4)
            out[n] = float(np.mean([s.empirical_mse for s in stats]))
        ratio = out[2000] / out[4000]
        assert abs(ratio - 2.0) < 0.3


class TestPickledErrors:
    @pytest.mark.parametrize("exc,fields", [
        (RangeError("workers", "an integer >= 1", 1.5),
         {"field": "workers", "allowed": "an integer >= 1", "got": 1.5}),
        (NonFinite(0.25, math.inf), {"x": 0.25, "value": math.inf}),
        (MissingColumn("b", ["a", "c"]),
         {"column": "b", "available": ["a", "c"]}),
        (UnparsableRow(3, "not an integer: 'x'"),
         {"line": 3, "detail": "not an integer: 'x'"}),
    ])
    def test_round_trip(self, exc, fields):
        # an error raised in a worker process reaches the caller pickled;
        # these once failed to unpickle, as __init__ takes fields
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert {f: getattr(back, f) for f in fields} == fields


class TestParetoSweep:
    def test_row_count_and_order(self):
        rows = pareto_sweep(["grr", "ss"], [1.0, 2.0], [8], W_HALF)
        assert [(r.protocol, r.eps) for r in rows] == [
            ("grr", 1.0), ("grr", 2.0), ("ss", 1.0), ("ss", 2.0)]

    def test_seventeen_point_grid(self):
        eps = parse_grid("2:10:0.5")
        assert len(eps) == 17
        rows = pareto_sweep(["grr"], eps, [100], W_HALF)
        assert len(rows) == 17

    def test_analytic_only_has_no_empirical(self):
        row = pareto_sweep(["grr"], [1.0], [8], W_HALF)[0]
        assert row.empirical_asr is None
        assert row.empirical_mse is None
        assert row.n is None and row.runs is None and row.seed is None

    def test_she_rows_carry_mc_stderr(self):
        row = pareto_sweep(["she"], [2.0], [8], W_HALF, she_trials=20000)[0]
        assert row.empirical_asr is None
        assert row.empirical_asr_stderr is not None
        assert 0 < row.empirical_asr_stderr < 0.01

    def test_rows_carry_each_points_run_means(self):
        # the sweep runs each family's points together, on shared draws (ss
        # and ass, olh and alh share a config at eps 1); each row's columns
        # are still its own point's run_experiment means, bit for bit
        exp = ExperimentConfig(400, 3, 11)
        rows = pareto_sweep(list(PROTOCOL_NAMES), [1.0, 4.0], [10], W_HALF,
                            experiment=exp, workers=2, she_trials=1000)
        assert len(rows) == 2 * len(PROTOCOL_NAMES)
        for row in rows:
            stats = run_experiment(
                resolve_protocol(row.protocol, row.eps, 10, W_HALF), exp)
            assert row.empirical_asr == float(
                np.mean([s.empirical_asr for s in stats])), row
            assert row.empirical_mse == float(
                np.mean([s.empirical_mse for s in stats])), row

    def test_every_point_resolves_before_any_run(self, monkeypatch):
        def no_runs(*args):
            raise AssertionError("a run started before every point resolved")
        monkeypatch.setattr("ldptune.harness.simulate_run", no_runs)
        exp = ExperimentConfig(100, 1, 0)
        with pytest.raises(RangeError, match="^eps"):
            pareto_sweep(["grr", "olh"], [2.0, 50.0], [10], W_HALF,
                         experiment=exp)
        assert pareto_sweep(["grr"], [], [10], W_HALF, experiment=exp) == []

    def test_she_trials_below_one_is_a_range_error(self, monkeypatch):
        def no_points(*args, **kwargs):
            raise AssertionError("a point ran before the check")
        monkeypatch.setattr("ldptune.harness.resolve_protocol", no_points)
        with pytest.raises(RangeError, match="she-trials"):
            pareto_sweep(["she"], [1.0], [10], W_HALF, she_trials=0)

    @pytest.mark.parametrize("trials", [1e3, True])
    def test_she_trials_must_be_an_integer(self, trials):
        with pytest.raises(RangeError, match="she-trials"):
            pareto_sweep(["she"], [1.0], [10], W_HALF, she_trials=trials)

    @pytest.mark.parametrize("k", [10.7, 10.0])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(RangeError, match="^k must be"):
            pareto_sweep(["grr"], [1.0], [k], W_HALF)

    def test_numpy_k_is_an_int(self):
        row = pareto_sweep(["grr"], [1.0], [np.int64(8)], W_HALF)[0]
        assert row.k == 8 and type(row.k) is int

    def test_workers_below_one_is_a_range_error_without_experiment(self):
        with pytest.raises(RangeError, match="workers"):
            pareto_sweep(["grr"], [1.0], [10], W_HALF, workers=0)

    def test_adaptive_mse_only_duplicates_baselines(self):
        w = ObjectiveWeights(0.0)
        rows = {r.protocol: r for r in pareto_sweep(
            ["ss", "olh", "oue", "ass", "alh", "aue"], [4.0], [100], w)}
        assert rows["ass"].param_value == rows["ss"].param_value
        assert rows["alh"].param_value == rows["olh"].param_value
        assert rows["aue"].param_value == rows["oue"].param_value

    def test_ass_asr_capped(self):
        rows = pareto_sweep(["ass"], [2.0, 6.0, 10.0], [100], W_HALF)
        assert all(r.analytic_asr < 0.25 for r in rows)

    def test_empirical_columns_attached(self):
        exp = ExperimentConfig(1000, 2, 9, "dirichlet")
        row = pareto_sweep(["grr"], [2.0], [8], W_HALF, experiment=exp)[0]
        assert row.empirical_asr is not None
        assert row.empirical_mse is not None
        assert row.n == 1000 and row.runs == 2 and row.seed == 9
        assert 0 <= row.empirical_asr <= 1

    def test_data_resolved_once_per_k(self, monkeypatch):
        seen = []

        def counted(spec, k, n, seed):
            seen.append(k)
            return parse_data_spec(spec, k, n, seed)
        monkeypatch.setattr("ldptune.harness.parse_data_spec", counted)
        exp = ExperimentConfig(500, 1, 3)
        rows = pareto_sweep(["grr", "oue", "she"], [2.0, 4.0], [8, 10], W_HALF,
                            experiment=exp)
        assert seen == [8, 10]
        # one point's empirical columns are those of a direct run, bit for bit
        row = next(r for r in rows if (r.protocol, r.eps, r.k) == ("oue", 4.0, 10))
        stats = run_experiment(resolve_protocol("oue", 4.0, 10, W_HALF), exp)
        assert row.empirical_asr == float(np.mean([s.empirical_asr for s in stats]))
        assert row.empirical_mse == float(np.mean([s.empirical_mse for s in stats]))
        assert (row.n, row.runs, row.seed) == (500, 1, 3)

    @pytest.mark.parametrize("experiment", [None, ExperimentConfig(200, 1, 4)])
    def test_generator_grids_give_the_list_rows(self, experiment):
        # each grid is read once, so a one-shot iterable keeps every point
        grids = (["grr", "oue"], [1.0, 2.0], [8, 10])
        rows = pareto_sweep(*grids, W_HALF, experiment=experiment)
        assert len(rows) == 8
        assert pareto_sweep(*((v for v in g) for g in grids), W_HALF,
                            experiment=experiment) == rows

    def test_param_override(self):
        row = pareto_sweep(["ss"], [2.0], [10], W_HALF, param=3)[0]
        assert row.param_value == 3


class TestExport:
    def _rows(self):
        return pareto_sweep(["grr", "ss"], [1.0, 2.5], [8], W_HALF)

    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        export(self._rows(), "csv", str(path))
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        assert "\r" not in text
        assert CSV_HEADER == (
            "protocol", "eps", "k", "param", "param_value", "analytic_asr",
            "analytic_mse", "empirical_asr", "empirical_asr_stderr",
            "empirical_mse", "n", "runs", "seed")

    def test_empirical_fields_default_to_none(self):
        row = ParetoRow("grr", 1.0, 8, "", None, 0.5, 0.25)
        assert row.empirical_asr is row.empirical_asr_stderr is None
        assert row.empirical_mse is row.n is row.runs is row.seed is None

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        export([], "csv", str(path))
        assert path.read_text(encoding="utf-8") == ",".join(CSV_HEADER) + "\n"

    def test_csv_round_trip_exact(self, tmp_path):
        rows = self._rows()
        path = tmp_path / "out.csv"
        export(rows, "csv", str(path))
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            assert float(rec["analytic_asr"]) == row.analytic_asr
            assert float(rec["analytic_mse"]) == row.analytic_mse
            assert float(rec["eps"]) == row.eps
            assert rec["empirical_asr"] == ""

    def test_json_nulls_for_missing(self, tmp_path):
        path = tmp_path / "out.json"
        export(self._rows(), "json", str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload[0]["empirical_asr"] is None
        assert payload[0]["protocol"] == "grr"
        assert payload[0]["analytic_asr"] == self._rows()[0].analytic_asr

    def test_seventeen_digit_reals(self, tmp_path):
        row = ParetoRow("grr", 1.0, 8, "", None, 1 / 3, 2 / 3, None, None,
                        None, None, None, None)
        path = tmp_path / "o.csv"
        export([row], "csv", str(path))
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert "0.33333333333333331" in line

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(RangeError):
            export([], "xml", str(tmp_path / "o.xml"))

    def test_unwritable_path_is_os_error(self):
        with pytest.raises(OSError):
            export([], "csv", "/nonexistent-dir/deep/o.csv")


class TestParseGrid:
    def test_single_value(self):
        assert parse_grid("4") == [4.0]

    def test_inclusive_endpoints(self):
        vals = parse_grid("1:3:0.5")
        assert vals == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])

    def test_non_multiple_stops_short(self):
        vals = parse_grid("1:2:0.6")
        assert vals == pytest.approx([1.0, 1.6])

    def test_integer_mode(self):
        assert parse_grid("2:6:2", integer=True) == [2, 4, 6]

    def test_integer_mode_rejects_fractional(self):
        with pytest.raises(RangeError):
            parse_grid("2:3:0.5", integer=True)

    def test_bad_step(self):
        with pytest.raises(RangeError, match="grid step must be > 0"):
            parse_grid("1:2:0")

    def test_hi_below_lo(self):
        with pytest.raises(RangeError, match="hi >= lo"):
            parse_grid("2:1:1")

    def test_non_finite(self):
        for spec in ("1:inf:1", "1:2:nan", "inf"):
            with pytest.raises(RangeError, match="finite"):
                parse_grid(spec, integer=True)

    def test_bad_text(self):
        with pytest.raises(RangeError):
            parse_grid("a:b:c")

    def test_point_count_bounded_before_building(self):
        # 1e300 points, and a ratio that overflows to inf: both are range
        # errors before any list is built
        for spec in ("2:3:1e-300", "0:1e308:1e-308"):
            with pytest.raises(RangeError, match="points"):
                parse_grid(spec)
        assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1",
                              integer=True)) == MAX_GRID_POINTS
        with pytest.raises(RangeError, match="points"):
            parse_grid(f"1:{MAX_GRID_POINTS + 1}:1", integer=True)


class TestResolveProtocol:
    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_bad_k_rejected_before_any_optimizer(self, k, monkeypatch):
        def no_optimizer(*args):
            raise AssertionError("optimizer ran")
        for attr in ("optimize_ass", "optimize_aue", "optimize_alh",
                     "optimize_athe"):
            monkeypatch.setattr(f"ldptune.presets.{attr}", no_optimizer)
        for name in PROTOCOL_NAMES:
            with pytest.raises(RangeError) as exc:
                resolve_protocol(name, 2.0, k)
            assert exc.value.field == "k"

    def test_pinned_param_checked_by_the_config(self):
        # a param that is not a number is a RangeError on the family's
        # parameter, as any other bad one, and a numpy int is an omega
        with pytest.raises(RangeError) as exc:
            resolve_protocol("ss", 1.0, 10, param="x")
        assert exc.value.field == "omega"
        with pytest.raises(RangeError) as exc:
            resolve_protocol("grr", 1.0, 10, param="x")
        assert exc.value.field == "param"
        assert resolve_protocol("ss", 1.0, 10, param=np.int64(3)).param_value == 3
        with pytest.raises(RangeError) as exc:
            resolve_protocol("ss", 1.0, 10, param=math.inf)
        assert str(exc.value) == "omega must be an integer in [1, 9], got inf"

    def test_weights_must_be_objective_weights(self):
        # checked where weights enter, for an adaptive name or not
        calls = (lambda: resolve_protocol("aue", 1.0, 4, weights=(0.5,)),
                 lambda: pareto_sweep(["ass"], [1.0], [4], 0.5),
                 lambda: pareto_sweep(["grr"], [1.0], [4], 0.5))
        for call in calls:
            with pytest.raises(RangeError) as exc:
                call()
            assert exc.value.field == "weights"

    @pytest.mark.parametrize("name", ("the",) + ADAPTIVE_NAMES)
    def test_reports_the_optimizers_config(self, name):
        # past g = 2^53 a g rebuilt through a float would differ from the
        # optimizer's
        for eps in (2.0, 8.0, 40.0):
            for k in (2, 10, 100):
                rp = resolve_protocol(name, eps, k)
                assert rp.config == rp.optimization.config
                assert rp.param_value == rp.optimization.theta_star


@pytest.mark.parametrize("field,call", [
    ("protocol", lambda: resolve_protocol(5, 1.0, 4)),
    ("protocol", lambda: pareto_sweep([1], [1.0], [4], W_HALF)),
    ("experiment", lambda: pareto_sweep(["grr"], [1.0], [4], W_HALF,
                                        experiment="x")),
    ("experiment", lambda: run_experiment(
        ProtocolConfig(Family.GRR, 1.0, 4), 5)),
], ids=["resolve-name", "sweep-name", "sweep-experiment", "run-experiment"])
def test_wrong_kind_is_a_range_error(field, call):
    # a name that is not a str, or an experiment that is not an
    # ExperimentConfig, is a package error, not an AttributeError
    with pytest.raises(RangeError) as exc:
        call()
    assert exc.value.field == field


def _main(capsys, *argv):
    """`cli.main` in-process: its exit code (argparse's, for a usage error)
    and what it wrote to stdout and stderr.  Any other exception escapes,
    as it would escape the command line as a traceback."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def _run(self, *args):
        return subprocess.run([sys.executable, "-m", "ldptune.cli", *args],
                              capture_output=True, text=True)

    def test_help_exits_zero(self):
        assert self._run("--help").returncode == 0

    def test_analyze_to_stdout(self):
        r = self._run("analyze", "--protocol", "grr", "--eps", "1:2:1",
                      "--k", "8")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3

    def test_optimize_reports_solution(self):
        r = self._run("optimize", "--protocol", "ass", "--eps", "4", "--k",
                      "100")
        assert r.returncode == 0
        assert "omega=7" in r.stderr

    @pytest.mark.parametrize("name", ADAPTIVE_NAMES)
    def test_optimize_prints_the_sweeps_row(self, capsys, name):
        # the row optimize builds is the one the sweep builds for analyze
        argv = ("--protocol", name, "--eps", "4", "--k", "100",
                "--w-asr", "0.3")
        code, out, _ = _main(capsys, "optimize", *argv)
        assert code == 0 and out.count("\n") == 2
        assert _main(capsys, "analyze", *argv)[:2] == (0, out)

    def test_analyze_reports_exact_large_g(self):
        r = self._run("analyze", "--protocol", "alh", "--eps", "40", "--k",
                      "10")
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines()[1].split(",")[4] == "235385266837019999"

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's")
    @pytest.mark.parametrize("name", ["sue", "ass"])
    def test_unallocatable_k_exits_2(self, name):
        # the address-space cap makes the allocation fail whatever the
        # host's overcommit policy
        code = ("import resource, sys\n"
                "cap = 2 * 1024 ** 3\n"
                "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
                "from ldptune.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        r = subprocess.run([sys.executable, "-c", code, "analyze", "--protocol",
                            name, "--eps", "1", "--k", "1e12"],
                           capture_output=True, text=True, env=env, timeout=60)
        assert r.returncode == 2, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1

    def test_simulate_writes_file(self, tmp_path):
        out = tmp_path / "sim.csv"
        r = self._run("simulate", "--protocol", "grr", "--eps", "2", "--k",
                      "8", "--n", "500", "--runs", "2", "--seed", "3",
                      "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("grr,2,8,")

    def test_pareto_worker_counts_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["pareto", "--protocols", "grr,oue", "--eps", "1:2:1",
                  "--k", "8", "--n", "400", "--runs", "3", "--seed", "5"]
        ra = self._run(*common, "--workers", "1", "--out", str(a))
        rb = self._run(*common, "--workers", "4", "--out", str(b))
        assert ra.returncode == 0 and rb.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pareto_stdout_worker_counts_byte_identical(self):
        # CSV on stdout: output buffered before a fork would be written
        # once more by each worker process
        common = ["pareto", "--protocols", "grr,oue,ss", "--eps", "2",
                  "--k", "8", "--n", "300", "--runs", "2", "--seed", "5"]
        ra = self._run(*common, "--workers", "1")
        rb = self._run(*common, "--workers", "2")
        assert ra.returncode == 0 and rb.returncode == 0, rb.stderr
        assert ra.stdout.count("\n") == 4
        assert rb.stdout == ra.stdout

    def test_json_format(self, tmp_path):
        out = tmp_path / "o.json"
        r = self._run("analyze", "--protocol", "ss", "--eps", "2", "--k",
                      "8", "--format", "json", "--out", str(out))
        assert r.returncode == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["protocol"] == "ss"
        assert payload[0]["param"] == "omega"

    @pytest.mark.parametrize("k", ["1000", "10000"])
    def test_ass_near_the_eps_cap_answers(self, capsys, k):
        # there q*'s numerator and denominator overflow for most omega
        code, out, err = _main(capsys, "analyze", "--protocol", "ass",
                               "--eps", "700", "--k", k)
        assert code == 0, err
        row = dict(zip(CSV_HEADER, out.splitlines()[1].split(",")))
        for col in ("param_value", "analytic_asr", "analytic_mse"):
            assert math.isfinite(float(row[col])), row

    @pytest.mark.parametrize("name,eps", [("grr", "40"), ("blh", "40"),
                                          ("grr", "709.5")])
    def test_simulate_where_p_rounds_to_one_is_quiet(self, capsys, name,
                                                     eps):
        # every user keeps their value there, so no row is mapped to an
        # other value through (u - p)/(1 - p), and numpy has nothing to
        # warn about on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _main(capsys, "simulate", "--protocol", name,
                                   "--eps", eps, "--k", "10", "--runs", "1",
                                   "--n", "1000")
        assert code == 0, err
        assert [str(w.message) for w in caught] == []

    def test_olh_past_its_budget_limit(self, capsys):
        # g = round(e^eps + 1) fits 2^63 up to eps = 63 ln 2 = 43.668; past
        # it the error names eps, not a g the user never gave
        code, out, err = _main(capsys, "analyze", "--protocol", "olh",
                               "--eps", "43.6", "--k", "10")
        assert code == 0, err
        code, out, err = _main(capsys, "analyze", "--protocol", "olh",
                               "--eps", "43.7", "--k", "10")
        assert code == 2
        assert err.startswith("error: eps must be") and "43.668" in err, err

    def test_config_error_exit_2(self, capsys):
        # in-process: an exception escaping main fails the test, as a
        # traceback would from the command line
        assert _main(capsys, "analyze", "--protocol", "grr", "--eps", "-1",
                     "--k", "8")[0] == 2
        assert _main(capsys, "analyze", "--protocol", "grr", "--eps", "nope",
                     "--k", "8")[0] == 2
        assert _main(capsys, "simulate", "--protocol", "grr", "--eps", "2",
                     "--k", "8", "--runs", "2", "--param", "3")[0] == 2
        # budgets where e^eps overflows, or where the OLH hash range g
        # (5.2e21 at eps 50) does not fit the 64-bit hash, are range errors
        extreme = [("analyze", "--protocol", name, "--eps", "800", "--k", "10")
                   for name in PROTOCOL_NAMES]
        extreme.append(("simulate", "--protocol", "olh", "--eps", "50",
                        "--k", "10", "--n", "10", "--runs", "1"))
        # a non-finite pinned parameter, or a user count that is not a
        # finite real > 0, is a range error too
        extreme += [("analyze", "--protocol", name, "--eps", "2", "--k", "10",
                     "--param", value)
                    for name in ("olh", "ss", "alh") for value in ("inf", "nan")]
        extreme += [("optimize", "--protocol", "aue", "--eps", "2", "--k", "10",
                     "--n", value) for value in ("0", "-1", "inf", "nan")]
        # budgets and user counts so small that the analytic MSE overflows
        # or divides by zero
        extreme += [("analyze", "--protocol", "she", "--eps", eps, "--k", "10")
                    for eps in ("1e-200", "1e-160")]
        extreme += [("optimize", "--protocol", name, "--eps", "2", "--k", "10",
                     "--n", "1e-320") for name in ("aue", "alh")]
        extreme.append(("analyze", "--protocol", "grr", "--eps", "1:inf:1",
                        "--k", "10"))
        # grids of 1e300 points, or whose point count overflows, are range
        # errors before any list is built
        extreme.append(("analyze", "--protocol", "grr", "--eps", "1",
                        "--k", "2:3:1e-300"))
        extreme.append(("analyze", "--protocol", "grr", "--eps",
                        "0:1e308:1e-308", "--k", "10"))
        # a worker count below 1 is a range error before any run
        extreme += [("simulate", "--protocol", "grr", "--eps", "2", "--k", "10",
                     "--runs", "1", "--n", "50", "--workers", value)
                    for value in ("0", "-2")]
        for argv in extreme:
            assert _main(capsys, *argv)[0] == 2, argv
        # a domain below 2 is a range error on k, before any optimizer runs
        bad_k = [("optimize", "--protocol", "aue", "--eps", "2", "--k", "0"),
                 ("optimize", "--protocol", "athe", "--eps", "2", "--k", "-3"),
                 ("optimize", "--protocol", "alh", "--eps", "2", "--k", "1"),
                 ("pareto", "--protocols", "the", "--eps", "2", "--k", "0"),
                 ("simulate", "--protocol", "the", "--eps", "2", "--k", "0",
                  "--n", "10", "--runs", "1")]
        for argv in bad_k:
            code, _, err = _main(capsys, *argv)
            assert code == 2, argv
            assert "k must be" in err, argv
        code, _, err = _main(capsys, "analyze", "--protocol", "she", "--eps",
                             "1", "--k", "10", "--she-trials", "0")
        assert code == 2 and "she-trials" in err
        # past eps = 73.47 sue's p = e^(eps/2)/(e^(eps/2)+1) can round to
        # 1; the error names the budget, not a p the user never gave
        code, _, err = _main(capsys, "analyze", "--protocol", "sue", "--eps",
                             "74", "--k", "10")
        assert code == 2 and err.startswith("error: eps must be")
        assert "73.47" in err

    def test_traced_pareto_covers_every_layer(self, tmp_path):
        # the benchmark's tracer wraps package attributes by name, so a
        # renamed or deleted one fails here and not only under --trace
        root = Path(__file__).resolve().parents[1]
        spans = tmp_path / "spans.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
        r = subprocess.run(
            [sys.executable, str(root / "perfbench" / "child.py"), str(spans),
             "t0", "--", "pareto", "--protocols", "all", "--eps", "2", "--k",
             "10", "--n", "200", "--runs", "1", "--she-trials", "100"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        layers = {s["layer"] for s in json.loads(spans.read_text())["spans"]}
        assert {"model", "simulate", "optimizer", "attacks"} <= layers

    def test_import_loads_no_scipy(self):
        code = ("import sys, ldptune, ldptune.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    def test_import_and_serial_sweep_load_no_pool(self):
        # the process pool's modules are imported only when a pool is made
        code = ("import sys, ldptune.cli\n"
                "before = 'concurrent.futures.process' in sys.modules\n"
                "ldptune.cli.main(['pareto', '--protocols', 'grr', '--eps',"
                " '2', '--k', '8', '--n', '100', '--runs', '2',"
                " '--workers', '1', '--out', sys.argv[1]])\n"
                "print(before, 'concurrent.futures.process' in sys.modules)")
        r = subprocess.run([sys.executable, "-c", code, os.devnull],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "False False"

    def test_io_error_exit_3(self):
        r = self._run("analyze", "--protocol", "grr", "--eps", "1", "--k",
                      "8", "--out", "/nonexistent-dir/deep/o.csv")
        assert r.returncode == 3

    def test_data_error_exit_4(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1\n2\n", encoding="utf-8")
        r = self._run("simulate", "--protocol", "grr", "--eps", "2", "--k",
                      "8", "--runs", "1", "--data", f"csv:{path}:missing")
        assert r.returncode == 4
        # k mismatch between config and csv domain
        r2 = self._run("simulate", "--protocol", "grr", "--eps", "2", "--k",
                       "8", "--runs", "1", "--data", f"csv:{path}:a")
        assert r2.returncode == 4

    def test_data_errors_name_the_input(self, tmp_path):
        path = tmp_path / "ages.csv"
        path.write_text("age\n5\n", encoding="utf-8")
        cases = [(f"csv:{path}:age:9-0", "data range must be lo <= hi, got (9, 0)"),
                 ("dirichlet", "n must be given for dirichlet data")]
        for data, message in cases:
            r = self._run("simulate", "--protocol", "grr", "--eps", "2", "--k",
                          "10", "--runs", "1", "--data", data)
            assert r.returncode == 2, data
            assert "Traceback" not in r.stderr and "domain_spec" not in r.stderr
            assert message in r.stderr, r.stderr

    def test_dropped_rows_reported_on_stderr(self, tmp_path):
        # the row with an empty cell is dropped; the results are those of
        # the same file without it
        dropped, clean = tmp_path / "dropped.csv", tmp_path / "clean.csv"
        dropped.write_text("a,b\n1,x\n,y\n2,z\n3,w\n", encoding="utf-8")
        clean.write_text("a,b\n1,x\n2,z\n3,w\n", encoding="utf-8")
        for cmd in (("simulate", "--protocol", "oue"),
                    ("pareto", "--protocols", "grr,the")):
            runs = [self._run(*cmd, "--eps", "2", "--k", "3", "--runs", "2",
                              "--data", f"csv:{path}:a:1-3")
                    for path in (dropped, clean)]
            assert [r.returncode for r in runs] == [0, 0]
            assert runs[0].stdout == runs[1].stdout
            assert "dropped 1 rows" in runs[0].stderr
            assert runs[1].stderr == ""

    def test_unknown_protocol_exit_2(self):
        assert self._run("analyze", "--protocol", "zzz", "--eps", "1",
                         "--k", "8").returncode == 2

    def test_unreadable_csv_exits_4_naming_the_file(self, tmp_path, capsys):
        # a cell past the csv module's 131,072-character limit, and bytes
        # that are not UTF-8, are data errors like any other bad row
        big, binary = tmp_path / "big.csv", tmp_path / "binary.csv"
        big.write_text("a\n" + "1" * 200_000 + "\n", encoding="utf-8")
        binary.write_bytes(b"\xff\xfe")
        for path in (big, binary):
            code, out, err = _main(capsys, "simulate", "--protocol", "grr",
                                   "--eps", "2", "--k", "2", "--runs", "1",
                                   "--data", f"csv:{path}:a")
            assert code == 4, err
            assert out == "" and err.startswith("error: ")
            assert err.count("\n") == 1 and str(path) in err

    def test_seed_outside_64_bits_exits_2(self, capsys):
        # streams take the seed mod 2^64, so 2^64 + 7 would run seed 7's
        # stream under another name
        argv = ("simulate", "--protocol", "oue", "--eps", "2", "--k", "10",
                "--runs", "1", "--n", "50", "--seed")
        for seed in (-1, 2 ** 64 + 7):
            code, out, err = _main(capsys, *argv, str(seed))
            assert code == 2 and out == ""
            assert err == f"error: seed must be an integer in [0, 2^64), got {seed}\n"
        code, out, _ = _main(capsys, *argv, str(2 ** 64 - 1))
        assert code == 0 and out.splitlines()[1].endswith(f",{2 ** 64 - 1}")

    def test_pareto_checks_experiment_flags_without_runs(self, capsys):
        # without --runs pareto uses none of these flags, but an
        # out-of-range value still exits 2, as it does with --runs
        argv = ("pareto", "--protocols", "grr,ss", "--eps", "2", "--k", "6")
        for flag, value in (("--n", "0"), ("--seed", "-1"),
                            ("--seed", str(2 ** 64)), ("--workers", "0")):
            code, out, err = _main(capsys, *argv, flag, value)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {flag[2:]} must be"), err
        _, plain, _ = _main(capsys, *argv)
        code, out, _ = _main(capsys, *argv, "--n", "50", "--seed",
                             str(2 ** 64 - 1), "--workers", "2")
        assert code == 0 and out == plain

    def test_option_strings_pinned(self):
        # every subcommand's flags; a flag added or lost fails here (the
        # benchmark commands pass --she-trials and --workers)
        common = ["-h", "--help", "--w-asr", "--out", "--format"]
        experiment = ["--n", "--seed", "--data", "--workers"]
        want = {
            "analyze": [*common, "--she-trials", "--protocol", "--eps", "--k",
                        "--param"],
            "optimize": [*common, "--protocol", "--eps", "--k", "--n"],
            "simulate": [*common, "--she-trials", *experiment, "--protocol",
                         "--eps", "--k", "--runs", "--param"],
            "pareto": [*common, "--she-trials", *experiment, "--protocols",
                       "--eps", "--k", "--runs"],
        }
        parser = cli.build_parser()
        sub, = (a for a in parser._actions if a.dest == "command")
        got = {name: [s for a in p._actions for s in a.option_strings]
               for name, p in sub.choices.items()}
        assert got == want
        assert [s for a in parser._actions
                for s in a.option_strings] == ["-h", "--help"]

    def test_fuzzed_argv_exit_cleanly(self, tmp_path, capsys):
        # seeded argv: each starts valid, then up to two flags take a value
        # from a pool of boundaries, non-finite and malformed values, or go
        # missing.  Every one must end in an answer or in exit 2, 3 or 4.
        # Sizes stay small: k <= 16 (or 1e30, which numpy refuses before
        # allocating), n <= 500, runs <= 2, she-trials <= 1000, and never
        # more than 2 workers.
        good, text = tmp_path / "good.csv", tmp_path / "text.csv"
        good.write_text("a,b\n1,x\n,y\n2,z\n3,w\n", encoding="utf-8")
        text.write_text("a\n1\nx\n", encoding="utf-8")
        big, binary = tmp_path / "big.csv", tmp_path / "binary.csv"
        big.write_text("a\n" + "1" * 200_000 + "\n", encoding="utf-8")
        binary.write_bytes(b"\xff\xfe")
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        point = {"--eps": ["0.5", "2", "8"], "--k": ["2", "3", "10", "16"]}
        grid = {"--eps": [*point["--eps"], "1:3:1", "2:8:3"],
                "--k": [*point["--k"], "2:16:7"]}
        common = {"--w-asr": ["0", "0.5", "1"], "--format": ["csv", "json"],
                  "--out": [None, str(tmp_path / "o.csv")]}
        she = {"--she-trials": ["1", "100", "1000"]}
        experiment = {"--n": ["50", "500"], "--runs": ["1", "2"],
                      "--seed": ["0", "7", str(2 ** 64 - 1)],
                      "--data": ["dirichlet", f"csv:{good}:a:1-3"],
                      "--workers": ["1", "2"]}
        commands = {
            "analyze": {"--protocol": PROTOCOL_NAMES, **grid, **common, **she},
            "optimize": {"--protocol": ADAPTIVE_NAMES, **point, **common,
                         "--n": ["1", "500"]},
            "simulate": {"--protocol": PROTOCOL_NAMES, **point, **common,
                         **she, **experiment},
            "pareto": {"--protocols": ["all", "grr,oue", "she,athe",
                                       " ss , the "],
                       **grid, **common, **she, **experiment},
        }
        bad = {
            "--protocol": ["zzz"], "--protocols": ["", ",", "grr,zzz"],
            "--eps": ["0", "-1", "1e-300", "800", "inf", "nan", "nope",
                      "1:inf:1", "3:1:1", "1:2:0", "1:2", "0:1e308:1e-308"],
            "--k": ["1", "0", "-3", "2.5", "1e30", "nan", "x", "2:3:1e-300"],
            "--param": ["0.3", "2", "3", "1", "0", "-1", "1e30", "inf", "nan"],
            "--w-asr": ["-0.1", "1.5", "inf", "nan"],
            "--n": ["0", "-1", "1e30", "inf", "nan", "x"],
            "--runs": ["0", "-1"], "--seed": [str(2 ** 64), "-1", "x"],
            "--workers": ["0", "-2"], "--she-trials": ["0", "-5"],
            "--data": [f"csv:{good}:a", f"csv:{good}:b", f"csv:{good}:missing",
                       f"csv:{good}:a:9-0", f"csv:{good}:a:x-y",
                       f"csv:{text}:a:1-3", f"csv:{big}:a", f"csv:{binary}:a",
                       f"csv:{empty}:a", f"csv:{tmp_path / 'absent.csv'}:a",
                       "csv:", "bogus"],
            "--format": ["xml"],
            "--out": ["/nonexistent-dir/o.csv", str(tmp_path)],
        }
        rng = random.Random(20261019)
        codes = []
        for _ in range(200):
            command = rng.choice(list(commands))
            pools = commands[command]
            args = {flag: rng.choice(pool) for flag, pool in pools.items()}
            # --param is optional where it exists, and unknown elsewhere
            mutated = rng.sample([*pools, "--param"], rng.choice((0, 1, 1, 2)))
            for flag in mutated:
                # the default of 10^6 trials costs 0.4 s per SHE point
                if flag != "--she-trials" and rng.random() < 0.2:
                    args[flag] = None
                else:
                    args[flag] = rng.choice(bad[flag])
            argv = [command]
            for flag, value in args.items():
                if value is not None:
                    argv += [flag, value]
            try:
                code, _, _ = _main(capsys, *argv)
            except Exception as exc:
                pytest.fail(f"{argv} raised {exc!r}")
            assert code in (0, 2, 3, 4), argv
            codes.append(code)
        # the draws reach answers and every error class
        assert set(codes) == {0, 2, 3, 4}
