import os
import subprocess
import sys
from pathlib import Path

import pytest

from iirsim.cli import main
from iirsim.metrics import from_json
from iirsim.pipeline import load_model

SRC = Path(__file__).resolve().parent.parent / "src"

LINE_FIXTURE = """\
# sensor -> aggregator -> sub-sink -> sink, 10 m apart
node_count = 4
placement = line
grid_spacing = 10
comm_radius = 10
sink_id = 3
sub_sink = 2
aggregator_ids = 1
rounds = 3
noise_sigma = 0
drift_amplitude = 0
event_rate = 0
dedup_enabled = false
theta_p = 0
delta_o = 0
quorum_q = 0
rescue_score = 0
range_lo = -1e9
range_hi = 1e9
"""

DISCONNECTED = """\
node_count = 4
placement = line
grid_spacing = 10
comm_radius = 5
sink_id = 3
sub_sink = 2
aggregator_ids = 1
"""

SMALL_GRID = """\
node_count = 16
comm_radius = 15
rounds = 15
aggregator_every = 5
seed = 3
"""


@pytest.fixture
def scenario(tmp_path):
    def write(text, name="scenario.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestRun:
    def test_zero_rounds_ok(self, scenario, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        code = main(["run", "--scenario", scenario(LINE_FIXTURE),
                     "--rounds", "0", "--out", out])
        assert code == 0
        text = open(out).read()
        assert text.splitlines()[1].split(",")[2] == "0"  # readings_generated

    def test_disconnected_nonzero_exit(self, scenario, tmp_path, capsys):
        code = main(["run", "--scenario", scenario(DISCONNECTED),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "DisconnectedTopology" in capsys.readouterr().err

    def test_repeat_identical_output(self, scenario, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        argvs = [["run", "--scenario", scenario(SMALL_GRID), "--format",
                  "json", "--quiet", "--out", o] for o in (out1, out2)]
        assert main(argvs[0]) == 0 and main(argvs[1]) == 0
        assert open(out1).read() == open(out2).read()

    def test_seed_override(self, scenario, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["run", "--scenario", scenario(SMALL_GRID), "--format", "json",
              "--quiet", "--seed", "1", "--out", out1])
        main(["run", "--scenario", scenario(SMALL_GRID), "--format", "json",
              "--quiet", "--seed", "2", "--out", out2])
        assert open(out1).read() != open(out2).read()

    def test_unknown_key_surfaced(self, scenario, tmp_path, capsys):
        code = main(["run", "--scenario", scenario("node_cout = 4\n"),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "UnknownKey" in capsys.readouterr().err

    # bad: None, or (the input to replace, its bytes; None for no such file)
    @pytest.mark.parametrize("bad,weights,error", [
        (("scenario", None), "0\n" * 5, "FileNotFoundError"),
        (("model", None), "0\n" * 5, "FileNotFoundError"),
        (None, "0\nabc\n0\n0\n0\n", "InvalidValue"),
        (None, "0\n1\n", "InvalidValue"),
        (("out", None), "0\n" * 5, "FileNotFoundError"),
        (("scenario", b"\xff\xfe"), "0\n" * 5, "InvalidScenario"),
        (("model", b"\xff\xfe"), "0\n" * 5, "InvalidValue"),
        (("scenario", b"e_elec = nan\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", b"theta_p = nan\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", b"event_rate = nan\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", b"dedup_eps = nan\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", b"initial_energy_j = inf\n"), "0\n" * 5,
         "InvalidScenario"),
        (("scenario", b"initial_energy_j = nan\n"), "0\n" * 5,
         "InvalidScenario"),
        (("scenario", b"rounds = 3\nrounds = 4\n"), "0\n" * 5,
         "InvalidValue"),
        (("scenario", b"mode = baseline\naggregator_every = -3\n"),
         "0\n" * 5, "InvalidScenario"),
        (None, "0\nnan\n0\n0\n0\n", "InvalidValue"),
        (None, "0\n0\n-inf\n0\n0\n", "InvalidValue"),
    ], ids=["missing_scenario", "missing_model", "non_numeric_weight",
            "wrong_weight_count", "out_dir_missing", "non_utf8_scenario",
            "non_utf8_model", "nan_radio_constant", "nan_theta_p",
            "nan_event_rate", "nan_dedup_eps", "inf_initial_energy",
            "nan_initial_energy", "repeated_key", "negative_aggregator_every",
            "nan_weight", "inf_weight"])
    def test_bad_input_is_an_error_line(self, scenario, tmp_path, capsys,
                                        bad, weights, error):
        model = tmp_path / "model.txt"
        model.write_text(weights)
        paths = {"scenario": scenario(LINE_FIXTURE), "model": str(model),
                 "out": str(tmp_path / "r.csv")}
        if bad is not None:
            name, content = bad
            if content is None:
                paths[name] = str(tmp_path / "absent" / "file.txt")
            else:
                path = tmp_path / f"bad-{name}.txt"
                path.write_bytes(content)
                paths[name] = str(path)
        code = main(["run", "--quiet",
                     *(f"--{k}={v}" for k, v in paths.items())])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1

    def test_python_dash_m(self, scenario, tmp_path):
        out = tmp_path / "r.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "iirsim", "run", "--scenario", scenario(""),
             "--rounds", "1", "--format", "json", "--quiet", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert from_json(out.read_text()).rounds_completed == 1

class TestCompare:
    def test_permissive_delivered_ratio_one(self, scenario, tmp_path, capsys):
        out = str(tmp_path / "cmp.csv")
        code = main(["compare", "--scenario", scenario(LINE_FIXTURE),
                     "--out", out, "--quiet"])
        assert code == 0
        table = open(str(tmp_path / "cmp_compare.csv")).read()
        row = [l for l in table.splitlines()
               if l.startswith("readings_delivered_to_sink")][0]
        assert row.split(",")[3] == "1.0"
        assert os.path.exists(str(tmp_path / "cmp_baseline.csv"))
        assert os.path.exists(str(tmp_path / "cmp_framework.csv"))

    def test_zero_rounds_all_undefined(self, scenario, tmp_path):
        out = str(tmp_path / "cmp.csv")
        code = main(["compare", "--scenario", scenario(SMALL_GRID),
                     "--rounds", "0", "--out", out, "--quiet"])
        assert code == 0
        table = open(str(tmp_path / "cmp_compare.csv")).read().splitlines()
        for line in table[1:]:
            assert line.split(",")[3] == "undefined"

    def test_framework_reduces_bits(self, scenario, tmp_path):
        out = str(tmp_path / "cmp.json")
        code = main(["compare", "--scenario", scenario(SMALL_GRID),
                     "--format", "json", "--out", out, "--quiet"])
        assert code == 0
        bl = from_json(open(str(tmp_path / "cmp_baseline.json")).read())
        fw = from_json(open(str(tmp_path / "cmp_framework.json")).read())
        assert fw.total_bits_transmitted < bl.total_bits_transmitted


class TestTrain:
    def test_zero_events_one_class(self, scenario, tmp_path, capsys):
        # events off: every candidate is labeled discard; the zero-weight
        # perceptron already classifies them all correctly
        text = (SMALL_GRID.replace("rounds = 15", "rounds = 40")
                + "event_rate = 0\ntheta_p = 0\n")
        out = str(tmp_path / "model.txt")
        code = main(["train", "--scenario", scenario(text), "--out", out])
        assert code == 0
        assert "accuracy 1.0000" in capsys.readouterr().out
        model = load_model(out)
        assert model.weights == (0.0,) * 5

    def test_model_round_trip_through_run(self, scenario, tmp_path):
        text = (SMALL_GRID.replace("rounds = 15", "rounds = 60")
                + "event_rate = 0.4\n")
        model_path = str(tmp_path / "model.txt")
        assert main(["train", "--scenario", scenario(text), "--quiet",
                     "--out", model_path]) == 0
        saved = load_model(model_path)
        out = str(tmp_path / "run.json")
        assert main(["run", "--scenario", scenario(text), "--model",
                     model_path, "--quiet", "--out", out]) == 0
        assert load_model(model_path) == saved

    def test_no_candidates_error(self, scenario, tmp_path, capsys):
        # zero rounds produce no pipeline input at all
        code = main(["train", "--scenario", scenario(SMALL_GRID),
                     "--rounds", "0", "--out", str(tmp_path / "m.txt")])
        assert code == 1
        assert "EmptyTrainingSet" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--model", "x"], ["--format", "json"]],
                             ids=["model", "format"])
    def test_run_only_options_rejected(self, scenario, tmp_path, option):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--scenario", scenario(SMALL_GRID),
                  "--out", str(tmp_path / "m.txt"), *option])
        assert exc.value.code == 2
