"""CLI surface of the skeleton cache: `repro cache {stats,clear,warm}` and
`--skeleton-cache` on analyze/sweep."""

import json

import pytest

from repro.cli import main
from repro.dft import galileo
from repro.systems import cardiac_assist_system, random_corpus

STATS_KEYS = {
    "root",
    "entries",
    "total_bytes",
    "max_bytes",
    "hash_version",
    "format_version",
    "hits",
    "misses",
    "stores",
    "evictions",
    "corrupt_evictions",
    "temp_reclaimed",
    "compression",
    "payload_bytes",
    "compressed_bytes",
    "compression_ratio",
}


@pytest.fixture
def corpus_dir(tmp_path):
    for index, tree in enumerate(random_corpus(3, num_basic_events=4, seed=11)):
        galileo.write_file(tree, str(tmp_path / f"tree{index}.dft"))
    return tmp_path


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "skel-cache")


class TestCacheStats:
    def test_json_golden_on_fresh_cache(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == STATS_KEYS
        golden = {
            "root": cache_dir,
            "entries": 0,
            "total_bytes": 0,
            "max_bytes": None,
            "hash_version": 1,
            "format_version": 2,
            "compression": "zlib-1",
            "payload_bytes": 0,
            "compressed_bytes": 0,
            "compression_ratio": None,
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "corrupt_evictions": 0,
            "temp_reclaimed": 0,
        }
        assert stats == golden

    def test_json_counts_warmed_entries(self, cache_dir, corpus_dir, capsys):
        assert (
            main(["cache", "warm", str(corpus_dir / "*.dft"), "--cache-dir", cache_dir])
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0

    def test_text_mode(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        output = capsys.readouterr().out
        assert "Entries    : 0" in output
        assert "Byte cap   : unlimited" in output
        assert "Compression: zlib-1" in output
        assert "hash v1" in output
        assert "format v2" in output


class TestCacheWarm:
    def test_warm_then_idempotent(self, cache_dir, corpus_dir, capsys):
        pattern = str(corpus_dir / "*.dft")
        assert main(["cache", "warm", pattern, "--cache-dir", cache_dir]) == 0
        assert "3 built, 0 already cached, 0 failed" in capsys.readouterr().out
        assert main(["cache", "warm", pattern, "--cache-dir", cache_dir]) == 0
        assert "0 built, 3 already cached, 0 failed" in capsys.readouterr().out

    def test_unmatched_glob_is_an_error(self, cache_dir, tmp_path, capsys):
        assert (
            main(
                ["cache", "warm", str(tmp_path / "no-*.dft"), "--cache-dir", cache_dir]
            )
            == 2
        )
        assert "matched no files" in capsys.readouterr().err

    def test_partially_unmatched_glob_is_an_error(self, cache_dir, corpus_dir, capsys):
        """A typo'd pattern must not silently shrink the warm set."""
        assert (
            main(
                [
                    "cache",
                    "warm",
                    str(corpus_dir / "*.dft"),
                    str(corpus_dir / "*.dtf"),
                    "--cache-dir",
                    cache_dir,
                ]
            )
            == 2
        )
        assert "matched no files" in capsys.readouterr().err

    def test_broken_tree_fails_with_exit_1(self, cache_dir, corpus_dir, capsys):
        (corpus_dir / "broken.dft").write_text("not galileo at all\n")
        assert (
            main(["cache", "warm", str(corpus_dir / "*.dft"), "--cache-dir", cache_dir])
            == 1
        )
        assert "1 failed" in capsys.readouterr().out


class TestCacheClear:
    def test_clear_reports_removed_count(self, cache_dir, corpus_dir, capsys):
        main(["cache", "warm", str(corpus_dir / "*.dft"), "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 3 cache entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 0 cache entries" in capsys.readouterr().out


class TestSkeletonCacheFlag:
    @pytest.fixture
    def cas_file(self, tmp_path):
        path = tmp_path / "cas.dft"
        galileo.write_file(cardiac_assist_system(), str(path))
        return str(path)

    def test_analyze_reports_miss_then_hit(self, cas_file, cache_dir, capsys):
        assert (
            main(["analyze", cas_file, "--time", "1.0", "--skeleton-cache", cache_dir])
            == 0
        )
        assert "Cache      : miss" in capsys.readouterr().out
        assert (
            main(["analyze", cas_file, "--time", "1.0", "--skeleton-cache", cache_dir])
            == 0
        )
        output = capsys.readouterr().out
        assert "Cache      : hit" in output
        assert "Unreliability(t=1) = 0.657900" in output

    def test_analyze_json_records_cache_state(self, cas_file, cache_dir, capsys):
        assert (
            main(["analyze", cas_file, "--json", "--skeleton-cache", cache_dir]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["options"]["skeleton_cache"] == "miss"

    def test_cached_values_match_uncached(self, cas_file, cache_dir, capsys):
        assert main(["analyze", cas_file, "--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        main(["analyze", cas_file, "--json", "--skeleton-cache", cache_dir])
        capsys.readouterr()
        assert (
            main(["analyze", cas_file, "--json", "--skeleton-cache", cache_dir]) == 0
        )
        cached = json.loads(capsys.readouterr().out)
        for ours, theirs in zip(cached["measures"], plain["measures"]):
            for a, b in zip(ours["values"], theirs["values"]):
                assert a == pytest.approx(b, abs=1e-9)

    def test_importance_needs_an_uncached_study(self, cas_file, cache_dir, capsys):
        args = ["analyze", cas_file, "--time", "1.0", "--importance"]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert "Importance ranking: " in plain
        assert main(args + ["--skeleton-cache", cache_dir]) == 2
        captured = capsys.readouterr()
        assert "Unreliability(t=1) = 0.657900" in captured.out
        assert "Importance ranking" not in captured.out
        assert "without a skeleton cache" in captured.err

    def test_sweep_with_cache_and_shared_rate(self, tmp_path, cache_dir, capsys):
        path = tmp_path / "param.dft"
        path.write_text(
            'param lam = 0.5;\n'
            'toplevel "top";\n'
            '"top" and "a" "b";\n'
            '"a" lambda=lam;\n'
            '"b" lambda=0.7;\n'
        )
        args = [
            "sweep",
            str(path),
            "--param",
            "lam=0.1,0.5,1.0",
            "--json",
            "--skeleton-cache",
            cache_dir,
            "--share-uniformisation",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["options"]["skeleton_cache"] == "miss"
        assert payload["options"]["shared_uniformisation_rate"] > 0
        assert main(args) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["options"]["skeleton_cache"] == "hit"
        for ours, theirs in zip(again["rows"], payload["rows"]):
            assert ours["measures"] == theirs["measures"]
