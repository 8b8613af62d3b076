"""Tests for the command-line interface."""

import json

import pytest

from repro.api import algorithm_names
from repro.cli import main


class TestCli:
    def test_run_algorithm1(self, capsys):
        code = main(["run", "--family", "fan", "--size", "12", "--algorithm", "algorithm1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "valid: True" in out
        assert "ratio" in out

    def test_run_d2(self, capsys):
        code = main(["run", "--family", "tree", "--size", "15", "--algorithm", "d2"])
        assert code == 0
        assert "rounds=3" in capsys.readouterr().out

    def test_run_simulate(self, capsys):
        code = main(
            [
                "run", "--family", "cycle", "--size", "10",
                "--algorithm", "algorithm1", "--simulate",
            ]
        )
        assert code == 0

    def test_run_simulate_unsupported_is_clear_error(self, capsys):
        code = main(
            ["run", "--family", "tree", "--size", "12", "--algorithm", "d2", "--simulate"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "does not support mode 'simulate'" in err
        assert "repro algorithms" in err

    def test_run_json(self, capsys):
        code = main(
            ["run", "--family", "fan", "--size", "12", "--algorithm", "d2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "d2"
        assert payload["valid"] is True
        assert payload["instance"]["family"] == "fan"

    def test_simulate(self, capsys):
        code = main(["simulate", "--family", "tree", "--size", "15", "--algorithm", "d2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "model=local" in out
        assert "rounds=3" in out
        assert "chosen" in out

    def test_simulate_congest_json(self, capsys):
        code = main(
            [
                "simulate", "--family", "tree", "--size", "8",
                "--algorithm", "degree_two", "--model", "congest", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "congest"
        assert payload["spec"]["budget"] == 4
        assert payload["outputs"]

    def test_simulate_congest_rejection_is_actionable(self, capsys):
        code = main(
            [
                "simulate", "--family", "star", "--size", "8",
                "--algorithm", "d2", "--model", "congest",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "in round" in err and "to node" in err
        assert "--budget" in err

    def test_simulate_faults(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "12",
                "--algorithm", "d2", "--faults", "drop=0.2,crash=0", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashed"] == [0]
        assert payload["dropped_messages"] > 0
        assert payload["spec"]["faults"]["drop_probability"] == 0.2

    def test_simulate_bad_faults_is_clear_error(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "10",
                "--algorithm", "d2", "--faults", "sabotage=1",
            ]
        )
        assert code == 2
        assert "unknown fault knob" in capsys.readouterr().err

    def test_simulate_round_limit_is_clean_error(self, capsys):
        code = main(
            [
                "simulate", "--family", "tree", "--size", "15",
                "--algorithm", "d2", "--max-rounds", "1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "did not halt within 1 rounds" in err
        assert "--max-rounds" in err

    def test_simulate_choices_are_engine_capable_only(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--family", "fan", "--size", "10", "--algorithm", "exact"])

    def test_simulate_churn_json(self, capsys):
        code = main(
            [
                "simulate", "--family", "tree", "--size", "12",
                "--algorithm", "d2", "--seed", "1",
                "--churn", "rate=0.5,until=4", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["churn"]["rate"] == 0.5
        assert payload["spec"]["churn"]["until"] == 4
        assert payload["churn_events"] >= 1

    def test_simulate_byzantine_human_output(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "12",
                "--algorithm", "d2", "--byzantine", "lie=3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "byzantine 3: behavior=lie" in out
        assert "deviations=" in out and "detections=" in out

    def test_simulate_adversarial_model_with_delay(self, capsys):
        code = main(
            [
                "simulate", "--family", "tree", "--size", "12",
                "--algorithm", "d2", "--model", "adversarial",
                "--delay", "1", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "adversarial"
        assert payload["delayed_messages"] > 0

    def test_simulate_scheduled_crash(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "12",
                "--algorithm", "d2", "--faults", "crash=5@2", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["crashed"] == [5]
        assert payload["spec"]["faults"]["crash_schedule"] == [[5, 2]]

    def test_simulate_bad_churn_is_clear_error(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "10",
                "--algorithm", "d2", "--churn", "add:0-1",
            ]
        )
        assert code == 2
        assert "@<round>" in capsys.readouterr().err

    def test_simulate_bad_byzantine_is_clear_error(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "10",
                "--algorithm", "d2", "--byzantine", "wat=3",
            ]
        )
        assert code == 2
        assert "unknown byzantine behavior" in capsys.readouterr().err

    def test_simulate_bad_crash_round_is_clear_error(self, capsys):
        code = main(
            [
                "simulate", "--family", "fan", "--size", "10",
                "--algorithm", "d2", "--faults", "crash=0@x",
            ]
        )
        assert code == 2
        assert "non-negative integer round" in capsys.readouterr().err

    def test_compare(self, capsys):
        code = main(["compare", "--family", "ladder", "--size", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm1" in out
        assert "exact" in out

    def test_compare_derives_choices_from_registry(self, capsys):
        code = main(["compare", "--family", "fan", "--size", "10"])
        assert code == 0
        out = capsys.readouterr().out
        for name in algorithm_names("mds"):
            assert name in out

    def test_compare_workers_matches_serial(self, capsys):
        assert main(["compare", "--family", "fan", "--size", "12", "--json"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["compare", "--family", "fan", "--size", "12", "--json", "--workers", "2"]
        ) == 0
        parallel = capsys.readouterr().out

        def strip_walltime(text):
            return [
                {k: v for k, v in report.items() if k != "wall_time"}
                for report in json.loads(text)
            ]

        assert strip_walltime(serial) == strip_walltime(parallel)

    def test_compare_mvc(self, capsys):
        code = main(["compare", "--family", "fan", "--size", "10", "--problem", "mvc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "d2_vc" in out
        assert "local_cuts_vc" in out

    def test_algorithms_table(self, capsys):
        code = main(["algorithms"])
        assert code == 0
        out = capsys.readouterr().out
        for name in algorithm_names():
            assert name in out
        assert "fast+simulate" in out

    def test_algorithms_json(self, capsys):
        code = main(["algorithms", "--problem", "mds", "--json"])
        assert code == 0
        specs = json.loads(capsys.readouterr().out)
        assert sorted(s["name"] for s in specs) == algorithm_names("mds")
        by_name = {s["name"]: s for s in specs}
        assert "simulate" in by_name["algorithm1"]["modes"]
        assert "simulate" not in by_name["d2"]["modes"]

    def test_families(self, capsys):
        code = main(["families"])
        assert code == 0
        out = capsys.readouterr().out
        assert "clique_pendants" in out

    def test_report_tiny(self, capsys):
        code = main(["report", "--scale", "tiny"])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--family", "nope", "--algorithm", "d2"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--family", "fan", "--algorithm", "nope"])

    @pytest.mark.parametrize("size", ["-5", "0", "many"])
    def test_non_positive_size_is_usage_error(self, size, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--family", "path", "--size", size, "--algorithm", "greedy"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_non_positive_sweep_size_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "run", "--dir", str(tmp_path / "run"), "--sizes", "8,-5"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
