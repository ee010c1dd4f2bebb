"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCharacterize:
    def test_prints_table4(self, capsys):
        assert main(["characterize", "--samples", "5000"]) == 0
        out = capsys.readouterr().out
        assert "Mean one-way delay" in out
        assert "Loss probability" in out

    def test_profile_choice(self, capsys):
        assert main(["characterize", "--samples", "2000", "--profile", "lan"]) == 0
        assert "lan" in capsys.readouterr().out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["characterize", "--profile", "mars"])


class TestAccuracy:
    def test_prints_table3(self, capsys):
        assert main(["accuracy", "--count", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        for predictor in ("Arima", "Last", "LPF", "Mean", "WinMean"):
            assert predictor in out


class TestTraceAndSelect:
    def test_trace_roundtrip_and_selection(self, tmp_path, capsys):
        path = tmp_path / "delays.txt"
        assert main(["trace", "--output", str(path), "--count", "3000"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and path.exists()

        assert main([
            "select-order", "--input", str(path),
            "--max-p", "1", "--max-d", "1", "--max-q", "1",
            "--limit", "1500",
        ]) == 0
        out = capsys.readouterr().out
        assert "selected" in out
        assert "ARIMA(" in out


class TestQos:
    def test_subset_of_detectors(self, capsys):
        assert main([
            "qos", "--cycles", "500", "--runs", "1",
            "--mttc", "60", "--ttr", "12",
            "--detectors", "Last+JAC_med,Mean+CI_low",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 8" in out
        assert "Last" in out and "Mean" in out

    def test_empty_detector_list_rejected(self, capsys):
        assert main([
            "qos", "--cycles", "500", "--runs", "1", "--detectors", " , ",
        ]) == 2

    def test_save_and_report_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        assert main([
            "qos", "--cycles", "500", "--runs", "1",
            "--mttc", "60", "--ttr", "12",
            "--detectors", "Last+JAC_med",
            "--output", str(path),
        ]) == 0
        capsys.readouterr()
        assert path.exists()
        assert main(["report", "--input", str(path), "--chart"]) == 0
        out = capsys.readouterr().out
        assert "loaded 1 detectors" in out
        assert "Figure 7" in out
        assert "L=Last" in out  # the chart legend

    def test_chart_flag(self, capsys):
        assert main([
            "qos", "--cycles", "500", "--runs", "1",
            "--mttc", "60", "--ttr", "12",
            "--detectors", "Last+JAC_med", "--chart",
        ]) == 0
        out = capsys.readouterr().out
        assert "L=Last" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCalibrate:
    def test_calibrate_from_collected_trace(self, tmp_path, capsys):
        path = tmp_path / "delays.txt"
        assert main(["trace", "--output", str(path), "--count", "5000"]) == 0
        capsys.readouterr()
        assert main([
            "calibrate", "--input", str(path), "--check-samples", "3000",
        ]) == 0
        out = capsys.readouterr().out
        assert "floor" in out
        assert "fitted profile check" in out
        assert "Mean one-way delay" in out


class TestChaos:
    def test_horizon_inside_stabilization_exits_2(self, capsys):
        # --stabilization defaults to 20 s, so a 20 s horizon leaves no
        # bounded suffix: an error line and exit 2, not a traceback.
        assert main(["chaos", "--add-channel", "--horizon", "20"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "stabilization_time < horizon" in err

    PLAN = {"name": "cli", "seed": 5,
            "events": [{"kind": "loss-burst", "start": 0, "end": 1, "rate": 0.5}]}

    @pytest.mark.parametrize("text", [
        '{"events": [{"kind": "tsunami", "start": 0, "end": 1}]}',
        '{"events": [',
        '{"events": [{"start": 0, "end": 1}]}',
        '{"events": [{"kind": "delay-spike", "start": 0, "end": 1, "magnitude": Infinity}]}',
        '{"events": [{"kind": "delay-spike", "start": 0, "end": 1, "magnitude": NaN}]}',
        '{"events": [{"kind": "loss-burst", "start": 0, "end": Infinity}]}',
    ], ids=["unknown-kind", "malformed", "no-kind", "inf-magnitude",
            "nan-magnitude", "inf-end"])
    def test_invalid_plan_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["chaos", "--plan", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_plan_exits_2(self, tmp_path, capsys):
        assert main(["chaos", "--plan", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("source", ["--plan", "--add-channel"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, source):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.PLAN))
        args = ["--plan", str(path)] if source == "--plan" else ["--add-channel"]
        assert main(["chaos", *args, "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_seed_zero_overrides_the_plan_seed(self, tmp_path, capsys):
        path, saved = tmp_path / "plan.json", tmp_path / "saved.json"
        path.write_text(json.dumps(self.PLAN))
        assert main([
            "chaos", "--plan", str(path), "--seed", "0", "--duration", "2",
            "--eta", "0.5", "--save-plan", str(saved),
        ]) == 0
        assert "seed=0" in capsys.readouterr().out
        assert json.loads(saved.read_text())["seed"] == 0
