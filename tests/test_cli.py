"""Tests for the command-line interface."""

import csv

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def sales_csv(tmp_path):
    path = tmp_path / "sales.csv"
    rng = np.random.default_rng(0)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["price", "qty"])
        for price, qty in zip(rng.integers(1, 60, 500), rng.integers(1, 9, 500)):
            writer.writerow([int(price), int(qty)])
    return path


class TestCompare:
    def test_synthetic(self, capsys):
        assert main(["compare", "--generate", "zipf", "--n", "48", "--seed", "3",
                     "--budget", "24"]) == 0
        out = capsys.readouterr().out
        assert "Synopsis comparison" in out
        assert "opt-a-auto" in out and "sap1" in out

    def test_csv_column(self, sales_csv, capsys):
        assert main(["compare", "--csv", str(sales_csv), "--column", "price",
                     "--budget", "24"]) == 0
        out = capsys.readouterr().out
        assert "all-ranges SSE" in out

    def test_missing_column_fails_cleanly(self, sales_csv, capsys):
        assert main(["compare", "--csv", str(sales_csv), "--column", "nope"]) == 1
        assert "not found" in capsys.readouterr().err


class TestFigure1:
    def test_small_sweep(self, capsys):
        assert main([
            "figure1", "--generate", "uniform", "--n", "32", "--seed", "1",
            "--budgets", "12", "20",
            "--methods", "naive", "a0", "sap1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "a0" in out


class TestEstimate:
    def test_count_query(self, sales_csv, capsys):
        assert main([
            "estimate", "--csv", str(sales_csv), "--column", "price",
            "--table", "sales", "--method", "sap1", "--budget", "40",
            "--query", "SELECT COUNT(*) FROM sales WHERE price BETWEEN 10 AND 30",
        ]) == 0
        out = capsys.readouterr().out
        assert "estimate:" in out and "exact:" in out and "rel.err:" in out

    def test_no_exact_flag(self, sales_csv, capsys):
        assert main([
            "estimate", "--csv", str(sales_csv), "--column", "price",
            "--query", "SELECT SUM(price) FROM t WHERE price >= 20",
            "--no-exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "estimate:" in out and "exact:" not in out

    def test_bad_sql_fails_cleanly(self, sales_csv, capsys):
        assert main([
            "estimate", "--csv", str(sales_csv), "--column", "price",
            "--query", "DROP TABLE t",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_sharded_synopsis(self, sales_csv, capsys):
        assert main([
            "estimate", "--csv", str(sales_csv), "--column", "price",
            "--table", "sales", "--method", "sap1", "--budget", "120",
            "--shards", "4",
            "--query", "SELECT COUNT(*) FROM sales WHERE price BETWEEN 10 AND 30",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded[4]" in out


class TestBenchRefresh:
    def test_table_and_json(self, tmp_path, capsys):
        output = tmp_path / "refresh.json"
        assert main([
            "bench-refresh", "--rows", "2000", "--domain", "128",
            "--shards", "8", "--appends", "50", "--budget", "512",
            "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "Incremental refresh" in out and "speedup:" in out
        import json

        payload = json.loads(output.read_text())
        assert payload["shards"] == 8
        assert payload["shards_rebuilt"] >= 1
        assert payload["speedup"] > 0

    def test_bad_parameters_fail_cleanly(self, capsys):
        assert main(["bench-refresh", "--shards", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestTiming:
    def test_tiny_timing(self, capsys):
        assert main(["timing", "--sizes", "32", "--opt-a-up-to", "0"]) == 0
        out = capsys.readouterr().out
        assert "Construction time" in out
        assert "sap1" in out


class TestAdvise:
    def test_ranking_printed(self, capsys):
        assert main(["advise", "--generate", "uniform", "--n", "40", "--seed", "2",
                     "--budget", "24"]) == 0
        out = capsys.readouterr().out
        assert "Advisor ranking" in out
        assert "a0" in out


class TestFigureChart:
    def test_ascii_chart(self, capsys):
        assert main([
            "figure1", "--generate", "uniform", "--n", "32", "--seed", "1",
            "--budgets", "12", "20", "--methods", "naive", "a0", "--chart",
        ]) == 0
        out = capsys.readouterr().out
        assert "log10(SSE)" in out and "legend:" in out


class TestInspect:
    def test_bucket_table(self, capsys):
        assert main(["inspect", "--generate", "zipf", "--n", "32", "--seed", "4",
                     "--method", "a0", "--budget", "12"]) == 0
        out = capsys.readouterr().out
        assert "bucket" in out and "max suffix err" in out


class TestDumpMetrics:
    def test_json_to_stdout(self, capsys):
        import json

        assert main([
            "dump-metrics", "--generate", "zipf", "--n", "64", "--seed", "5",
            "--queries", "200", "--audit-rate", "1.0",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["batch_queries"] == 400  # count + sum batches
        assert payload["stats"]["audited_queries"] == 400
        rows = payload["error_report"]["synopses"]
        assert {row["aggregate"] for row in rows} == {"count", "sum"}

    def test_prometheus_to_file(self, tmp_path, capsys):
        target = tmp_path / "metrics.prom"
        assert main([
            "dump-metrics", "--generate", "uniform", "--n", "48", "--seed", "2",
            "--queries", "100", "--format", "prometheus",
            "--output", str(target),
        ]) == 0
        assert "metrics written to" in capsys.readouterr().out
        text = target.read_text()
        assert "# TYPE repro_batch_queries_total counter" in text
        assert "repro_stat_audited_queries 200" in text

    def test_csv_dataset(self, sales_csv, capsys):
        import json

        assert main([
            "dump-metrics", "--csv", str(sales_csv), "--column", "price",
            "--queries", "50", "--method", "a0", "--budget", "24",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["batches"] == 2

    def test_invalid_audit_rate_fails_cleanly(self, capsys):
        assert main([
            "dump-metrics", "--generate", "zipf", "--n", "32",
            "--audit-rate", "7",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_serve_reports_both_paths(self, capsys):
        assert main([
            "serve", "--rows", "5000", "--queries", "800", "--threads", "2",
            "--budget", "64",
        ]) == 0
        out = capsys.readouterr().out
        assert "coalesced QueryServer" in out
        assert "naive execute() loop" in out
        assert "speedup:" in out

    def test_serve_writes_json_record(self, tmp_path, capsys):
        import json

        target = tmp_path / "serve.json"
        assert main([
            "serve", "--rows", "5000", "--queries", "400", "--threads", "2",
            "--budget", "64", "--max-batch", "128", "--max-delay-ms", "5",
            "--output", str(target),
        ]) == 0
        assert "result written to" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        assert payload["query_count"] == 400
        assert payload["max_batch"] == 128
        assert payload["max_abs_difference"] == 0.0
        assert payload["batches"] >= 1


class TestServePool:
    def test_clean_drain_exits_0(self, tmp_path, capsys):
        import json

        target = tmp_path / "pool.json"
        assert main([
            "serve", "--rows", "4000", "--domain", "256", "--queries", "200",
            "--budget", "64", "--workers", "2", "--max-batch", "64",
            "--drain-timeout-ms", "20000",
            "--output", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "Pool serve" in out
        assert "drain: clean" in out
        payload = json.loads(target.read_text())
        assert payload["drain_clean"] is True
        assert payload["failed"] == 0
        assert payload["fresh"] + payload["degraded"] == 200
        assert payload["max_abs_difference"] == 0.0

    def test_forced_shutdown_exits_5(self, capsys):
        # Wedge every dispatched batch far past the drain budget: the
        # drain must force-kill the workers, resolve every future with
        # the explicit cut-off error, and report the forced exit code.
        from repro.cli import EXIT_FORCED_SHUTDOWN
        from repro.engine.resilience import FaultInjector

        injector = FaultInjector(seed=0)
        injector.slow("worker_batch", 30.0)
        with injector:
            code = main([
                "serve", "--rows", "2000", "--domain", "128",
                "--queries", "40", "--budget", "32", "--workers", "2",
                "--max-batch", "64", "--drain-timeout-ms", "400",
            ])
        assert code == EXIT_FORCED_SHUTDOWN == 5
        out = capsys.readouterr().out
        assert "drain: FORCED" in out
        assert "failed (drain cut-off)" in out

    def test_invalid_worker_count_fails_cleanly(self, capsys):
        assert main([
            "serve", "--rows", "2000", "--queries", "40", "--budget", "32",
            "--workers", "-3",
        ]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchPool:
    def test_table_and_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "pool_bench.json"
        assert main([
            "bench-pool", "--rows", "4000", "--domain", "256",
            "--shards", "8", "--budget", "256", "--queries", "300",
            "--threads", "2", "--workers", "2", "--max-batch", "64",
            "--output", str(target),
        ]) == 0
        out = capsys.readouterr().out
        assert "Worker pool" in out
        assert "pickle-free: True" in out
        payload = json.loads(target.read_text())
        assert payload["pool_workers"] == 2
        assert payload["max_abs_difference"] == 0.0
        assert payload["engine_pickle_free"] is True

    def test_workers_must_exceed_baseline(self, capsys):
        assert main(["bench-pool", "--workers", "1"]) == 1
        assert "must exceed" in capsys.readouterr().err


class TestReport:
    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        # Patch the harness onto a small dataset so the test stays fast.
        import repro.experiments.report as report_module

        small = __import__("repro").data.zipf_frequencies(32, seed=1)
        monkeypatch.setattr(report_module, "paper_dataset", lambda: small)
        target = tmp_path / "report.md"
        assert main(["report", "--output", str(target)]) == 0
        text = target.read_text()
        assert "# Reproduction report" in text and "Claim C4" in text


class TestResilienceFlags:
    @pytest.fixture
    def heavy_csv(self, tmp_path):
        # ~260 distinct values with small counts: OPT-A's DP takes tens
        # of seconds unbounded, so a small deadline reliably trips.
        path = tmp_path / "heavy.csv"
        rng = np.random.default_rng(0)
        values = np.repeat(np.arange(300), rng.integers(0, 8, 300))
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["price"])
            for value in values:
                writer.writerow([int(value)])
        return path

    def test_deadline_exceeded_exits_3(self, heavy_csv, capsys):
        assert main([
            "estimate", "--csv", str(heavy_csv), "--column", "price",
            "--method", "opt-a", "--budget", "24", "--deadline-ms", "150",
            "--query", "SELECT COUNT(*) FROM t WHERE price BETWEEN 10 AND 200",
            "--no-exact",
        ]) == 3
        assert "build deadline exceeded" in capsys.readouterr().err

    def test_fallback_chain_serves_and_prints_level(self, heavy_csv, capsys):
        assert main([
            "estimate", "--csv", str(heavy_csv), "--column", "price",
            "--method", "opt-a", "--budget", "24", "--deadline-ms", "150",
            "--fallback-chain", "a0,naive",
            "--query", "SELECT COUNT(*) FROM t WHERE price BETWEEN 10 AND 200",
            "--no-exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "synopsis: A0" in out
        assert "served:   fresh" in out

    def test_exhausted_chain_exits_4(self, heavy_csv, capsys):
        assert main([
            "estimate", "--csv", str(heavy_csv), "--column", "price",
            "--method", "opt-a", "--budget", "24", "--deadline-ms", "5",
            "--fallback-chain", "a0",
            "--query", "SELECT COUNT(*) FROM t WHERE price BETWEEN 10 AND 200",
            "--no-exact",
        ]) == 4
        assert "build failed" in capsys.readouterr().err

    def test_unknown_chain_method_fails_cleanly(self, sales_csv, capsys):
        assert main([
            "estimate", "--csv", str(sales_csv), "--column", "price",
            "--fallback-chain", "nonsense",
            "--query", "SELECT COUNT(*) FROM t WHERE price BETWEEN 10 AND 30",
        ]) == 1
        assert "unknown builder" in capsys.readouterr().err


class TestCoverageIntervals:
    def test_multi_seed_run_writes_validating_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_coverage_intervals.json"
        assert main([
            "coverage-intervals", "--rows", "800", "--queries", "40",
            "--budget", "160", "--seeds", "0", "1",
            "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "seed 1" in out

        import json

        studies = json.loads(out_path.read_text())
        assert [s["seed"] for s in studies] == [0, 1]
        assert all(s["final_stage_bitwise"] for s in studies)
        # The artifact the run wrote satisfies its registered schema.
        assert main(["validate-bench", str(out_path)]) == 0

    def test_unreachable_gate_fails(self, capsys):
        assert main([
            "coverage-intervals", "--rows", "800", "--queries", "20",
            "--budget", "160", "--min-coverage", "1.1",
        ]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "coverage below" in captured.err

    def test_bad_parameters_fail_cleanly(self, capsys):
        assert main(["coverage-intervals", "--queries", "0"]) == 1


class TestValidateBench:
    def test_scans_root_and_reports_violations(self, tmp_path, capsys):
        good = tmp_path / "BENCH_serve.json"
        good.write_text(
            '{"row_count": 1000, "domain": 64, "query_count": 100,'
            ' "thread_count": 2, "max_batch": 64, "max_delay_ms": 2.0,'
            ' "naive_seconds": 0.2, "served_seconds": 0.1,'
            ' "naive_qps": 500.0, "served_qps": 1000.0, "speedup": 2.0,'
            ' "batches": 2, "mean_batch_size": 50.0, "cache_hits": 0,'
            ' "max_abs_difference": 0.0}'
        )
        assert main(["validate-bench", "--root", str(tmp_path)]) == 0
        assert "ok    BENCH_serve.json" in capsys.readouterr().out

        good.write_text('{"row_count": 1000}')
        assert main(["validate-bench", "--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "FAIL  BENCH_serve.json" in captured.out
        assert "missing required field" in captured.out
        assert "1 artifact(s) failed" in captured.err

    def test_empty_root_is_an_error(self, tmp_path, capsys):
        assert main(["validate-bench", "--root", str(tmp_path)]) == 1
        assert "no BENCH_*.json artifacts" in capsys.readouterr().out
