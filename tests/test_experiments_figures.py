"""Unit-level checks of the remaining figure modules (reduced inputs).

The benchmarks assert the paper's claims over all 11 workloads; these
tests pin the modules' mechanics on one or two workloads so failures
localise quickly.  The shared run cache makes repeats cheap.
"""

import pytest

from repro.experiments import (
    fig05_context_switch,
    fig08_eviction_impact,
    fig11_speedup,
    fig12_num_batches,
    fig13_batch_size,
    fig14_batch_time,
    fig15_premature_eviction,
    fig18_fault_latency_sweep,
    sec65_context_cost,
)

ONE = ("KCORE",)
TWO = ("KCORE", "BFS-TWC")


class TestFigureModules:
    def test_fig5_rows_and_average(self):
        result = fig05_context_switch.run(scale="tiny", workloads=ONE)
        assert [label for label, _ in result.rows] == ["KCORE", "AVERAGE"]
        assert result.value("KCORE", "relative_perf") > 0

    def test_fig8_normalisation(self):
        result = fig08_eviction_impact.run(scale="tiny", workloads=ONE)
        base = result.value("KCORE", "baseline")
        ideal = result.value("KCORE", "ideal_eviction")
        assert 0 < base <= 1.0
        assert ideal >= base * 0.99

    def test_fig11_baseline_column_is_one(self):
        result = fig11_speedup.run(scale="tiny", workloads=ONE)
        assert result.value("KCORE", "BASELINE") == 1.0
        for column in result.columns:
            assert result.value("KCORE", column) > 0

    def test_fig12_and_fig13_consistency(self):
        batches = fig12_num_batches.run(scale="tiny", workloads=TWO)
        sizes = fig13_batch_size.run(scale="tiny", workloads=TWO)
        for name in TWO:
            # Fewer batches <=> bigger batches: the relative percentages
            # move in opposite directions around 100 when total migrated
            # pages stay comparable (loose coupling check).
            b = batches.value(name, "relative_pct")
            s = sizes.value(name, "relative_pct")
            assert b > 0 and s > 0

    def test_fig14_baseline_normalised_to_one(self):
        result = fig14_batch_time.run(scale="tiny", workloads=ONE)
        assert result.value("KCORE", "baseline") == 1.0

    def test_fig15_percentages(self):
        result = fig15_premature_eviction.run(scale="tiny", workloads=ONE)
        assert 0.0 <= result.value("KCORE", "baseline_pct") <= 100.0

    def test_fig18_three_series(self):
        result = fig18_fault_latency_sweep.run(
            scale="tiny", workloads=ONE, fht_values=(20_000, 50_000)
        )
        assert result.columns == ["to", "ue", "to_ue"]
        assert len(result.rows) == 2
        for _, values in result.rows:
            assert values["to_ue"] > 0

    def test_sec65_reference_row(self):
        result = sec65_context_cost.run(
            scale="tiny", workload="KCORE", multipliers=(0.0, 1.0)
        )
        assert result.value("x1", "normalised") == 1.0

    def test_sec65_runs_cached_cells(self, tmp_path):
        """The multiplier rides in the cells' GpuConfig, so a rerun is
        answered from the run cache and counted like any other cell."""
        from repro.experiments import common

        common.set_cache_dir(tmp_path)
        common.clear_run_cache()
        common.reset_cache_stats()
        try:
            cold = sec65_context_cost.run(
                scale="tiny", workload="KCORE", multipliers=(0.0, 2.0)
            )
            assert common.cache_stats()["misses"] == 2
            common.clear_run_cache()
            warm = sec65_context_cost.run(
                scale="tiny", workload="KCORE", multipliers=(0.0, 2.0)
            )
            assert common.cache_stats()["disk_hits"] == 2
            assert common.cache_stats()["misses"] == 2
        finally:
            common.set_cache_dir(None)
            common.clear_run_cache()
        assert warm.rows == cold.rows
        assert cold.value("x0", "switch_cycles") < cold.value(
            "x2", "switch_cycles"
        )


class TestRunnerFlags:
    def test_output_flag_writes_tables(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(
            ["table1", "--scale", "tiny", "--output", str(tmp_path)]
        ) == 0
        assert (tmp_path / "table1.txt").exists()
        capsys.readouterr()

    def test_chart_flag_draws(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--scale", "tiny", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_ablation_id_resolves(self, capsys):
        from repro.experiments.runner import main

        assert main(["abl-to-degree", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "degree=0" in out
