"""Tests for the wall-clock benchmark suite (``python -m repro bench``)."""

import json

import pytest

from repro.bench.suite import (
    SCHEMA_VERSION,
    SUITE,
    environment_fingerprint,
    percentile,
    result_filename,
    run_benchmark,
    run_suite,
    sample_stats,
    suite_names,
)


class TestStatistics:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)

    def test_percentile_single_sample(self):
        assert percentile([7.0], 95) == 7.0

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_sample_stats_fields(self):
        stats = sample_stats([3.0, 1.0, 2.0, 4.0])
        assert stats["median_s"] == pytest.approx(2.5)
        assert stats["min_s"] == 1.0
        assert stats["max_s"] == 4.0
        assert stats["iqr_s"] == pytest.approx(
            percentile([1.0, 2.0, 3.0, 4.0], 75)
            - percentile([1.0, 2.0, 3.0, 4.0], 25)
        )
        assert stats["mean_s"] == pytest.approx(2.5)


class TestEnvironmentFingerprint:
    def test_fingerprint_has_required_fields(self):
        env = environment_fingerprint()
        for key in ("python", "implementation", "platform", "machine",
                    "cpus", "numpy", "calibration_s"):
            assert key in env, key
        assert env["calibration_s"] > 0


class TestSuiteDefinition:
    def test_curated_benchmarks_present(self):
        assert suite_names() == [
            "tile_decode",
            "scatter_assembly",
            "read_many_thrash",
            "parallel_dispatch",
            "multiquery_openloop",
            "service_scaling",
        ]

    def test_run_benchmark_validates_arguments(self):
        bench = SUITE[0]
        with pytest.raises(ValueError):
            run_benchmark(bench, repetitions=0)
        with pytest.raises(ValueError):
            run_benchmark(bench, warmup=-1)
        with pytest.raises(ValueError):
            run_benchmark(bench, scale="galactic")

    def test_run_suite_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_suite(["nonsense"], out_dir=None)


class TestSuiteExecution:
    @pytest.fixture(scope="class")
    def results(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        return out, run_suite(
            repetitions=2, warmup=0, scale="smoke", out_dir=str(out)
        )

    def test_every_benchmark_ran(self, results):
        _out, res = results
        assert [r.name for r in res] == suite_names()
        for result in res:
            assert len(result.samples_s) == 2
            assert all(s > 0 for s in result.samples_s)
            assert result.bytes_processed > 0

    def test_result_files_written_with_schema(self, results):
        out, res = results
        for result in res:
            path = out / result_filename(result.name)
            assert path.is_file()
            doc = json.loads(path.read_text())
            assert doc["schema"] == SCHEMA_VERSION
            assert doc["name"] == result.name
            assert doc["unit"] == "seconds"
            assert doc["repetitions"] == 2
            assert len(doc["samples_s"]) == 2
            for key in ("median_s", "p95_s", "iqr_s", "min_s", "max_s",
                        "mean_s"):
                assert key in doc["stats"], key
            assert doc["environment"]["calibration_s"] > 0
            assert doc["throughput_mb_s"] > 0

    def test_environment_shared_across_suite(self, results):
        _out, res = results
        fingerprints = {json.dumps(r.environment, sort_keys=True) for r in res}
        assert len(fingerprints) == 1

    def test_subset_selection(self, tmp_path):
        res = run_suite(
            ["tile_decode"],
            repetitions=1,
            warmup=0,
            scale="smoke",
            out_dir=str(tmp_path),
        )
        assert [r.name for r in res] == ["tile_decode"]
        assert (tmp_path / "BENCH_tile_decode.json").is_file()
        assert not (tmp_path / "BENCH_scatter_assembly.json").exists()

    def test_missing_out_dir_is_created(self, tmp_path):
        out = tmp_path / "nested" / "bench-out"
        run_suite(["tile_decode"], repetitions=1, warmup=0,
                  scale="smoke", out_dir=str(out))
        assert (out / "BENCH_tile_decode.json").is_file()

    def test_out_dir_none_skips_writing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_suite(["parallel_dispatch"], repetitions=1, warmup=0,
                  scale="smoke", out_dir=None)
        assert not list(tmp_path.glob("BENCH_*.json"))
