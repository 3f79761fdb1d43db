"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.dft import galileo
from repro.systems import (
    cardiac_assist_system,
    pand_race_system,
    random_corpus,
    repairable_and_system,
)


@pytest.fixture
def cas_file(tmp_path):
    path = tmp_path / "cas.dft"
    galileo.write_file(cardiac_assist_system(), str(path))
    return str(path)


@pytest.fixture
def repairable_file(tmp_path):
    path = tmp_path / "repairable.dft"
    galileo.write_file(repairable_and_system(), str(path))
    return str(path)


@pytest.fixture
def nondeterministic_file(tmp_path):
    path = tmp_path / "race.dft"
    galileo.write_file(pand_race_system(), str(path))
    return str(path)


class TestAnalyzeCommand:
    def test_reports_unreliability(self, cas_file, capsys):
        assert main(["analyze", cas_file, "--time", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "Unreliability(t=1) = 0.657900" in output
        assert "Aggregation" in output

    def test_multiple_times_and_mttf(self, cas_file, capsys):
        assert main(["analyze", cas_file, "--time", "0.5", "2.0", "--mttf"]) == 0
        output = capsys.readouterr().out
        assert "t=0.5" in output and "t=2" in output
        assert "Mean time to failure" in output

    def test_unavailability_flag(self, repairable_file, capsys):
        assert main(["analyze", repairable_file, "--unavailability"]) == 0
        output = capsys.readouterr().out
        assert "unavailability = 0.111111" in output

    def test_nondeterministic_tree_reports_bounds(self, nondeterministic_file, capsys):
        assert main(["analyze", nondeterministic_file]) == 0
        output = capsys.readouterr().out
        assert "in [" in output

    def test_unsupported_measure_still_prints_the_others(self, nondeterministic_file, capsys):
        """--mttf on a non-deterministic tree: bounds printed, then exit 2."""
        assert main(["analyze", nondeterministic_file, "--mttf"]) == 2
        captured = capsys.readouterr()
        assert "in [" in captured.out
        assert "non-deterministic" in captured.out  # per-measure error line
        assert "error:" in captured.err

    def test_ordering_and_aggregation_options(self, cas_file, capsys):
        assert main(
            ["analyze", cas_file, "--ordering", "smallest", "--aggregation", "strong"]
        ) == 0
        assert "Unreliability" in capsys.readouterr().out

    def test_minimiser_choice_preserves_result(self, cas_file, capsys):
        """The signature reference engine yields the exact same report."""
        assert main(["analyze", cas_file, "--time", "1.0"]) == 0
        default_output = capsys.readouterr().out
        assert (
            main(["analyze", cas_file, "--time", "1.0", "--minimiser", "signature"])
            == 0
        )
        reference_output = capsys.readouterr().out
        assert "Unreliability(t=1) = 0.657900" in reference_output
        assert default_output == reference_output

    def test_missing_file_is_an_error(self, capsys):
        assert main(["analyze", "/does/not/exist.dft"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "broken.dft"
        path.write_text('toplevel "X";\n"X" unknown_gate "A";\n')
        assert main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestAnalyzeJson:
    def test_json_output_schema_golden(self, cas_file, capsys):
        """Golden test for the ``--json`` schema (repro.study/1)."""
        assert main(["analyze", cas_file, "--time", "0.5", "1.0", "--mttf", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "schema",
            "tree",
            "options",
            "model",
            "measures",
            "statistics",
            "timings",
        }
        assert payload["schema"] == "repro.study/1"
        assert set(payload["tree"]) == {"name", "summary"}
        assert set(payload["options"]) == {
            "ordering",
            "aggregation",
            "minimiser",
            "fuse",
            "tolerance",
            "aggregation_processes",
        }
        assert payload["options"]["minimiser"] == "closure"
        assert set(payload["model"]) == {
            "kind",
            "states",
            "nondeterministic",
            "final_ioimc_states",
            "final_ioimc_transitions",
            "community_size",
        }
        assert payload["model"]["kind"] == "ctmc"
        assert payload["model"]["nondeterministic"] is False
        unreliability, mttf = payload["measures"]
        assert unreliability["kind"] == "unreliability"
        assert unreliability["times"] == [0.5, 1.0]
        assert unreliability["values"][1] == pytest.approx(0.657900, abs=1e-6)
        assert mttf["kind"] == "mttf"
        assert len(mttf["values"]) == 1
        stats = payload["statistics"]
        assert {"num_steps", "peak_product_states", "final_states", "steps"} <= set(stats)
        assert len(stats["steps"]) == stats["num_steps"]
        assert {"conversion", "aggregation", "markov", "evaluation", "total"} == set(
            payload["timings"]
        )

    def test_json_bounds_for_nondeterministic_tree(self, nondeterministic_file, capsys):
        assert main(["analyze", nondeterministic_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["kind"] == "ctmdp"
        measure = payload["measures"][0]
        assert measure["kind"] == "unreliability_bounds"
        assert measure["lower"][0] < measure["upper"][0]

    def test_bounds_flag_on_deterministic_tree(self, cas_file, capsys):
        assert main(["analyze", cas_file, "--bounds", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        measure = payload["measures"][0]
        assert measure["kind"] == "unreliability_bounds"
        assert measure["lower"][0] == pytest.approx(measure["upper"][0])


class TestBatchCommand:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        for index, tree in enumerate(random_corpus(3, num_basic_events=4, seed=11)):
            galileo.write_file(tree, str(tmp_path / f"tree{index}.dft"))
        return tmp_path

    def test_batch_glob_rows_and_aggregate(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir / "*.dft"), "--time", "1.0"]) == 0
        output = capsys.readouterr().out
        assert output.count("Unreliability(t=1)") == 3
        assert "3 trees analysed (0 failed)" in output

    def test_batch_explicit_paths_and_processes(self, corpus_dir, capsys):
        paths = sorted(str(p) for p in corpus_dir.glob("*.dft"))
        assert main(["batch", *paths, "--processes", "2"]) == 0
        assert "2 processes" in capsys.readouterr().out

    def test_batch_json_schema(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir / "*.dft"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.batch/1"
        assert payload["aggregate"]["trees"] == 3
        assert all(row["ok"] for row in payload["rows"])
        # batch rows keep statistics compact (no per-step records).
        assert "steps" not in payload["rows"][0]["result"]["statistics"]

    def test_batch_reports_failures_with_exit_code(self, corpus_dir, capsys):
        (corpus_dir / "broken.dft").write_text('toplevel "X";\n"X" unknown_gate "A";\n')
        assert main(["batch", str(corpus_dir / "*.dft")]) == 1
        output = capsys.readouterr().out
        assert "FAILED" in output
        assert "1 failed" in output

    def test_batch_no_match_is_an_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "nothing-*.dft")]) == 2
        assert "matched no files" in capsys.readouterr().err

    def test_batch_partially_unmatched_glob_is_an_error(self, corpus_dir, capsys):
        """A typo'd pattern must not silently shrink the corpus."""
        assert main(["batch", str(corpus_dir / "*.dft"), str(corpus_dir / "*.dtf")]) == 2
        assert "matched no files" in capsys.readouterr().err

    def test_batch_prints_every_requested_measure(self, corpus_dir, capsys):
        assert main(["batch", str(corpus_dir / "*.dft"), "--mttf"]) == 0
        output = capsys.readouterr().out
        assert output.count("Mean time to failure") == 3

    def test_batch_mixes_nondeterministic_trees(self, corpus_dir, capsys):
        galileo.write_file(pand_race_system(), str(corpus_dir / "race.dft"))
        assert main(["batch", str(corpus_dir / "*.dft")]) == 0
        assert "in [" in capsys.readouterr().out

    def test_batch_measure_failures_are_visible_and_nonzero(self, corpus_dir, capsys):
        """An unsupported measure keeps the row but fails the exit code."""
        galileo.write_file(pand_race_system(), str(corpus_dir / "race.dft"))
        assert main(["batch", str(corpus_dir / "*.dft"), "--mttf"]) == 1
        captured = capsys.readouterr()
        assert "in [" in captured.out  # bounds still printed for the race tree
        assert "0 failed" in captured.out  # no row-level failures
        assert "could not be evaluated" in captured.err


class TestEntryPoint:
    def test_module_invocation_roundtrips_version(self):
        """``python -m repro --version`` must work as a real subprocess."""
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": repo_src},
        )
        assert completed.returncode == 0
        assert completed.stdout.strip().startswith("repro ")

    def test_console_script_target_resolves(self):
        """The pyproject ``repro`` console script points at repro.cli:main."""
        import repro.cli

        assert callable(repro.cli.main)


class TestOtherCommands:
    def test_baseline(self, cas_file, capsys):
        assert main(["baseline", cas_file]) == 0
        output = capsys.readouterr().out
        assert "DIFTree unreliability" in output
        assert "0.657900" in output

    def test_modules(self, cas_file, capsys):
        assert main(["modules", cas_file]) == 0
        output = capsys.readouterr().out
        assert "Independent modules" in output
        assert "CPU_unit" in output
        assert "detaches" in output

    def test_community(self, cas_file, capsys):
        assert main(["community", cas_file]) == 0
        output = capsys.readouterr().out
        assert "monitor" in output
        assert "community of 23 I/O-IMC" in output

    def test_dot_to_stdout(self, cas_file, capsys):
        assert main(["dot", cas_file]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_final_model_to_file(self, cas_file, tmp_path, capsys):
        output_path = tmp_path / "final.dot"
        assert main(["dot", cas_file, "--final-model", "-o", str(output_path)]) == 0
        assert output_path.read_text().startswith("digraph")

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestSweepCommand:
    @pytest.fixture
    def parametric_file(self, tmp_path):
        path = tmp_path / "parametric.dft"
        path.write_text(
            'toplevel "sys";\n'
            "param lam = 0.5;\n"
            '"sys" and "A" "B";\n'
            '"A" lambda=lam;\n'
            '"B" lambda=1.0;\n'
        )
        return str(path)

    def test_sweep_over_declared_parameter(self, parametric_file, capsys):
        assert main(["sweep", parametric_file, "--param", "lam=0.1:1.0:5"]) == 0
        output = capsys.readouterr().out
        assert output.count("Unreliability(t=1)") == 5
        assert "5 samples over lam" in output
        assert "shared pipeline" in output

    def test_sweep_axis_comma_list_and_grid(self, parametric_file, capsys):
        assert (
            main(
                [
                    "sweep",
                    parametric_file,
                    "--param",
                    "lam=0.5,1.0",
                    "--param",
                    "B=0.5,1.0",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert output.count("Unreliability(t=1)") == 4  # 2x2 grid

    def test_sweep_attaches_parameters_to_basic_events(self, parametric_file, capsys):
        """An axis naming a basic event sweeps that event's failure rate."""
        assert main(["sweep", parametric_file, "--param", "B=0.5,2.0"]) == 0
        output = capsys.readouterr().out
        assert "[B=0.5]" in output and "[B=2]" in output

    def test_sweep_json_schema(self, parametric_file, capsys):
        assert (
            main(["sweep", parametric_file, "--param", "lam=0.25,0.75", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.sweep/3"
        assert payload["parameters"] == ["lam"]
        assert payload["aggregate"] == {"samples": 2, "failed": 0, "processes": 1}
        assert [row["sample"]["lam"] for row in payload["rows"]] == [0.25, 0.75]

    def test_sweep_parallel_json_is_bit_identical_to_serial(
        self, parametric_file, capsys
    ):
        def run(extra):
            assert (
                main(
                    ["sweep", parametric_file, "--param", "lam=0.1:2.0:6", "--json"]
                    + extra
                )
                == 0
            )
            payload = json.loads(capsys.readouterr().out)
            payload.pop("timings")
            payload["aggregate"].pop("processes")
            for row in payload["rows"]:
                row.pop("wall_seconds")
                row.pop("instantiate_seconds", None)
                row.pop("solve_seconds", None)
            return payload

        serial = run([])
        parallel = run(["--processes", "2", "--chunk-size", "2"])
        assert parallel == serial

    def test_sweep_results_match_analyze(self, parametric_file, capsys):
        assert main(["sweep", parametric_file, "--param", "lam=0.5", "--json"]) == 0
        swept = json.loads(capsys.readouterr().out)
        assert main(["analyze", parametric_file, "--json"]) == 0
        analysed = json.loads(capsys.readouterr().out)
        sweep_value = swept["rows"][0]["measures"][0]["values"][0]
        analyze_value = analysed["measures"][0]["values"][0]
        assert sweep_value == pytest.approx(analyze_value, abs=1e-9)

    def test_unknown_axis_is_a_clean_error(self, parametric_file, capsys):
        assert main(["sweep", parametric_file, "--param", "nu=1.0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nu" in err

    def test_malformed_axis_is_a_clean_error(self, parametric_file, capsys):
        assert main(["sweep", parametric_file, "--param", "lam"]) == 2
        assert "cannot parse sweep axis" in capsys.readouterr().err

    def test_non_positive_sample_is_a_clean_error(self, parametric_file, capsys):
        assert main(["sweep", parametric_file, "--param", "lam=-1.0"]) == 2
        assert "positive finite" in capsys.readouterr().err

    def test_nondeterministic_tree_sweeps_bounds(self, nondeterministic_file, capsys):
        assert main(["sweep", nondeterministic_file, "--param", "A=0.5,1.5"]) == 0
        assert "in [" in capsys.readouterr().out


class TestGalileoParamErrorsViaCli:
    """Satellite check: parameter parse errors surface as clean CLI messages."""

    def _write(self, tmp_path, text):
        path = tmp_path / "bad.dft"
        path.write_text(text)
        return str(path)

    def test_undefined_parameter(self, tmp_path, capsys):
        path = self._write(tmp_path, 'toplevel "A";\n"A" lambda=lam;\n')
        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "undefined parameter 'lam'" in err

    def test_duplicate_definition(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            'toplevel "A";\nparam lam = 1;\nparam lam = 2;\n"A" lambda=lam;\n',
        )
        assert main(["analyze", path]) == 2
        assert "declared twice" in capsys.readouterr().err

    def test_non_positive_rate(self, tmp_path, capsys):
        path = self._write(
            tmp_path, 'toplevel "A";\nparam lam = 0;\n"A" lambda=lam;\n'
        )
        assert main(["analyze", path]) == 2
        assert "positive finite rate" in capsys.readouterr().err


class TestBatchStreamingCli:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        for index, tree in enumerate(random_corpus(3, num_basic_events=4, seed=11)):
            galileo.write_file(tree, str(tmp_path / f"tree{index}.dft"))
        return tmp_path

    def test_output_jsonl_streams_rows(self, corpus_dir, capsys):
        sink = corpus_dir / "rows.jsonl"
        assert (
            main(
                [
                    "batch",
                    str(corpus_dir / "*.dft"),
                    "--output-jsonl",
                    str(sink),
                    "--chunk-size",
                    "2",
                ]
            )
            == 0
        )
        assert "rows streamed to" in capsys.readouterr().out
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [record["kind"] for record in records] == ["row"] * 3 + ["aggregate"]
        assert all(record["schema"] == "repro.batch/2" for record in records)

    def test_output_jsonl_round_trips_to_batch_result(self, corpus_dir, capsys):
        """CLI-level satellite check: the sink equals the in-memory rows."""
        from repro.core.results import read_batch_jsonl

        sink = corpus_dir / "rows.jsonl"
        assert (
            main(["batch", str(corpus_dir / "*.dft"), "--output-jsonl", str(sink)]) == 0
        )
        capsys.readouterr()
        assert main(["batch", str(corpus_dir / "*.dft"), "--json"]) == 0
        in_memory = json.loads(capsys.readouterr().out)
        with open(sink, "r", encoding="utf-8") as handle:
            restored = read_batch_jsonl(handle)

        def normalise(row_dict):
            row_dict = dict(row_dict)
            row_dict.pop("wall_seconds", None)
            row_dict.pop("schema", None)
            row_dict.pop("kind", None)
            if row_dict.get("result"):
                row_dict["result"] = dict(row_dict["result"])
                row_dict["result"].pop("timings", None)
            return row_dict

        assert [normalise(row.to_dict()) for row in restored.rows] == [
            normalise(row) for row in in_memory["rows"]
        ]

    def test_output_jsonl_keeps_error_rows_and_exit_code(self, corpus_dir, capsys):
        (corpus_dir / "broken.dft").write_text("nonsense\n")
        sink = corpus_dir / "rows.jsonl"
        assert (
            main(["batch", str(corpus_dir / "*.dft"), "--output-jsonl", str(sink)]) == 1
        )
        records = [json.loads(line) for line in sink.read_text().splitlines()]
        failed = [r for r in records if r["kind"] == "row" and not r["ok"]]
        assert len(failed) == 1
        assert failed[0]["error"]
        assert records[-1]["failed"] == 1

    def test_json_and_output_jsonl_are_mutually_exclusive(self, corpus_dir, capsys):
        sink = corpus_dir / "rows.jsonl"
        assert (
            main(
                ["batch", str(corpus_dir / "*.dft"), "--json", "--output-jsonl", str(sink)]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err
