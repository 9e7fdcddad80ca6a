import dataclasses

import pytest

from iirsim.config import ScenarioConfig, parse_scenario
from iirsim.errors import (InvalidScenario, InvalidValue, MalformedLine,
                           UnknownKey)
from iirsim.pipeline import PipelineConfig


class TestParse:
    def test_empty_file_gives_defaults(self):
        assert parse_scenario("") == ScenarioConfig()

    def test_single_key(self):
        sc = parse_scenario("node_count = 100\n")
        assert sc.node_count == 100
        assert sc.rounds == ScenarioConfig().rounds

    def test_typo_rejected_with_line_number(self):
        with pytest.raises(UnknownKey, match="line 1"):
            parse_scenario("node_cout = 100\n")

    def test_comments_and_blanks_ignored(self):
        sc = parse_scenario("# experiment\n\nseed = 5  # trailing\n")
        assert sc.seed == 5

    def test_malformed_line(self):
        with pytest.raises(MalformedLine, match="line 2"):
            parse_scenario("seed = 1\nnot a pair\n")

    def test_invalid_value_names_key(self):
        with pytest.raises(InvalidValue, match="rounds"):
            parse_scenario("rounds = soon\n")

    def test_mode_choice(self):
        assert parse_scenario("mode = baseline\n").mode == "baseline"
        with pytest.raises(InvalidValue):
            parse_scenario("mode = turbo\n")

    def test_sub_sink_forms(self):
        assert parse_scenario("sub_sink = auto\n").sub_sink == "auto"
        assert parse_scenario("sub_sink = none\n").sub_sink is None
        assert parse_scenario("sub_sink = 7\n").sub_sink == 7

    def test_aggregator_id_list(self):
        sc = parse_scenario("aggregator_ids = 3, 5, 9\n")
        assert sc.aggregator_ids == (3, 5, 9)

    def test_repeated_key_rejected(self):
        with pytest.raises(InvalidValue, match="line 3.*rounds"):
            parse_scenario("rounds = 3\nseed = 2\nrounds = 4\n")

    def test_bool_keys(self):
        assert parse_scenario("dedup_enabled = false\n").dedup_enabled is False
        with pytest.raises(InvalidValue):
            parse_scenario("dedup_enabled = yes\n")


class TestValidate:
    def test_defaults_valid(self):
        ScenarioConfig().validate()

    def test_band_ordering(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(band_lo=30.0, band_hi=20.0).validate()

    def test_range_must_cover_band(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(range_hi=25.0).validate()

    def test_min_node_count(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(node_count=1).validate()

    def test_negative_rounds(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(rounds=-1).validate()

    def test_quorum_bounds(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(quorum_q=1.5).validate()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_every_float_key_must_be_finite(self, value):
        keys = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type == "float"]
        assert {"theta_p", "initial_energy_j"} <= set(keys)
        for key in keys:
            with pytest.raises(InvalidScenario, match=f"^{key} must be finite"):
                parse_scenario(f"{key} = {value}\n").validate()

    def test_negative_aggregator_every(self):
        with pytest.raises(InvalidScenario, match="aggregator_every"):
            ScenarioConfig(aggregator_every=-3).validate()
        ScenarioConfig(aggregator_every=0).validate()

    @pytest.mark.parametrize("key", ["e_elec", "e_amp"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_radio_constants_must_be_finite(self, key, value):
        with pytest.raises(InvalidScenario):
            parse_scenario(f"{key} = {value}\n").validate()


class TestPipelineConfig:
    def test_defaults_agree(self):
        assert ScenarioConfig().pipeline_config() == PipelineConfig()

    def test_scenario_value_reaches_pipeline(self):
        cfg = parse_scenario("theta_p = 0.3\n").pipeline_config()
        assert cfg == PipelineConfig(theta_p=0.3)
