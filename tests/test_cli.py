import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from iirsim.cli import main
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


# valid by the parsers, but a history deque cannot be that long
HUGE_WINDOW = LINE_FIXTURE + "window_w = 100000000000000000000\n"

# band_hi - band_lo overflows, so the opinion feature would be inf / inf
INFINITE_BAND_WIDTH = """\
band_lo = -1e308
band_hi = 1e308
range_lo = -1e308
range_hi = 1e308
theta_p = 0
rescue_score = 2
rounds = 20
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
        text = Path(out).read_text()
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
        assert Path(out1).read_text() == Path(out2).read_text()

    def test_seed_override(self, scenario, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["run", "--scenario", scenario(SMALL_GRID), "--format", "json",
              "--quiet", "--seed", "1", "--out", out1])
        main(["run", "--scenario", scenario(SMALL_GRID), "--format", "json",
              "--quiet", "--seed", "2", "--out", out2])
        assert Path(out1).read_text() != Path(out2).read_text()

    def test_seed_may_exceed_every_count(self, scenario, tmp_path):
        # a seed is only mixed into stream seeds, so it has no upper bound
        seed = f"seed = {2**64 - 1}\n"
        out = tmp_path / "r.json"
        assert main(["run", "--scenario", scenario(LINE_FIXTURE + seed),
                     "--format", "json", "--quiet", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rounds_completed"] == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_without_extension_takes_the_format(self, scenario, tmp_path,
                                                    monkeypatch, fmt):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", scenario(LINE_FIXTURE), "--format",
                     fmt, "--quiet", "--out", "report"]) == 0
        assert [p.name for p in tmp_path.glob("report*")] == [f"report.{fmt}"]

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
        (("scenario", LINE_FIXTURE.replace("aggregator_ids = 1",
                                           "aggregator_ids = 1, 1").encode()),
         "0\n" * 5, "InvalidScenario"),
        (("scenario", b"placement = uniform\narea_size = -50\n"
                      b"comm_radius = 40\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", b"drift_period = 1e-320\n"), "0\n" * 5,
         "InvalidScenario"),
        (("scenario", b"noise_sigma = 1e308\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", b"field_base = 1.7e308\ndrift_amplitude = 1e308\n"),
         "0\n" * 5, "InvalidScenario"),
        (("scenario", b"event_magnitude = 1e308\nevent_rate = 1\n"),
         "0\n" * 5, "InvalidScenario"),
        (("scenario", b"grid_spacing = 1e200\n"), "0\n" * 5,
         "InvalidScenario"),
        (("scenario", b"placement = uniform\narea_size = 1e200\n"),
         "0\n" * 5, "InvalidScenario"),
        (("scenario", HUGE_WINDOW.encode()), "0\n" * 5, "InvalidScenario"),
        (("scenario", INFINITE_BAND_WIDTH.encode()), "0\n" * 5,
         "InvalidScenario"),
        (("scenario", b"sink_id = 500\n"), "0\n" * 5, "InvalidScenario"),
        (("scenario", f"rounds = {10**400}\n".encode()), "0\n" * 5,
         "InvalidScenario"),
        (("scenario", f"node_count = {10**26}\n".encode()), "0\n" * 5,
         "InvalidScenario"),
    ], ids=["missing_scenario", "missing_model", "non_numeric_weight",
            "wrong_weight_count", "out_dir_missing", "non_utf8_scenario",
            "non_utf8_model", "nan_radio_constant", "nan_theta_p",
            "nan_event_rate", "nan_dedup_eps", "inf_initial_energy",
            "nan_initial_energy", "repeated_key", "negative_aggregator_every",
            "nan_weight", "inf_weight", "repeated_aggregator_id",
            "negative_area_size", "drift_phase_overflows",
            "noise_overflows", "field_and_drift_overflow", "event_overflows",
            "grid_distances_overflow", "uniform_distances_overflow",
            "huge_window", "infinite_band_width", "sink_id_out_of_range",
            "huge_rounds", "huge_node_count"])
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
        assert json.loads(out.read_text())["rounds_completed"] == 1

class TestCompare:
    def test_permissive_delivered_ratio_one(self, scenario, tmp_path, capsys):
        out = str(tmp_path / "cmp.csv")
        code = main(["compare", "--scenario", scenario(LINE_FIXTURE),
                     "--out", out, "--quiet"])
        assert code == 0
        table = (tmp_path / "cmp_compare.csv").read_text()
        row = [l for l in table.splitlines()
               if l.startswith("readings_delivered_to_sink")][0]
        assert row.split(",")[3] == "1.0"
        assert os.path.exists(str(tmp_path / "cmp_baseline.csv"))
        assert os.path.exists(str(tmp_path / "cmp_framework.csv"))

    def test_table_printed_in_aligned_columns(self, scenario, tmp_path,
                                              capsys):
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--scenario", scenario(LINE_FIXTURE),
                     "--out", out]) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in
                (tmp_path / "cmp_compare.csv").read_text().splitlines()]
        # each printed cell starts where its column's header does
        starts = [printed[0].index(name) for name in rows[0]]
        assert [[line[i:].split(" ", 1)[0] for i in starts]
                for line in printed] == rows

    def test_zero_rounds_all_undefined(self, scenario, tmp_path):
        out = str(tmp_path / "cmp.csv")
        code = main(["compare", "--scenario", scenario(SMALL_GRID),
                     "--rounds", "0", "--out", out, "--quiet"])
        assert code == 0
        table = (tmp_path / "cmp_compare.csv").read_text().splitlines()
        for line in table[1:]:
            assert line.split(",")[3] == "undefined"

    def test_framework_reduces_bits(self, scenario, tmp_path):
        out = str(tmp_path / "cmp.json")
        code = main(["compare", "--scenario", scenario(SMALL_GRID),
                     "--format", "json", "--out", out, "--quiet"])
        assert code == 0
        bl = json.loads((tmp_path / "cmp_baseline.json").read_text())
        fw = json.loads((tmp_path / "cmp_framework.json").read_text())
        assert fw["total_bits_transmitted"] < bl["total_bits_transmitted"]

    def test_table_is_csv_whatever_the_format(self, scenario, tmp_path):
        code = main(["compare", "--scenario", scenario(LINE_FIXTURE),
                     "--format", "json", "--out", str(tmp_path / "cmp.json"),
                     "--quiet"])
        assert code == 0
        table = (tmp_path / "cmp_compare.csv").read_text()
        assert table.startswith("metric,baseline,framework,ratio\n")
        assert not (tmp_path / "cmp_compare.json").exists()


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

    def test_out_report_is_taken_literally(self, scenario, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = SMALL_GRID.replace("rounds = 15", "rounds = 40")
        assert main(["train", "--scenario", scenario(text), "--quiet",
                     "--out", "report"]) == 0
        assert load_model(str(tmp_path / "report")).weights
        assert not (tmp_path / "model.txt").exists()
        assert main(["train", "--scenario", scenario(text), "--quiet"]) == 0
        assert (tmp_path / "model.txt").read_text() == \
            (tmp_path / "report").read_text()

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

    @pytest.mark.parametrize("text", [HUGE_WINDOW, INFINITE_BAND_WIDTH],
                             ids=["huge_window", "infinite_band_width"])
    def test_bad_scenario_writes_no_model(self, scenario, tmp_path, capsys,
                                          text):
        out = tmp_path / "m.txt"
        code = main(["train", "--scenario", scenario(text), "--quiet",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidScenario: ") and err.count("\n") == 1
        assert not out.exists()

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
