import dataclasses
import sys

import pytest

from iirsim.config import (_NON_NEGATIVE, _POSITIVE, ScenarioConfig,
                           parse_scenario)
from iirsim.energy import RadioParams
from iirsim.errors import (InvalidScenario, InvalidValue, MalformedLine,
                           UnknownKey)


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
        assert parse_scenario("aggregator_ids =\n").aggregator_ids == ()

    def test_repeated_key_rejected(self):
        with pytest.raises(InvalidValue, match="line 3.*rounds"):
            parse_scenario("rounds = 3\nseed = 2\nrounds = 4\n")

    def test_bool_keys(self):
        assert parse_scenario("dedup_enabled = false\n").dedup_enabled is False
        assert parse_scenario("dedup_enabled = true\n").dedup_enabled is True
        with pytest.raises(InvalidValue):
            parse_scenario("dedup_enabled = yes\n")

    def test_every_key_round_trips(self):
        # key: (text in the file, value), every value off its default and
        # every float written with a fraction, so that each key's parser,
        # its result type included, is pinned
        cases = {
            "node_count": ("64", 64), "placement": ("uniform", "uniform"),
            "grid_spacing": ("12.5", 12.5), "area_size": ("80.5", 80.5),
            "comm_radius": ("18.25", 18.25), "sink_id": ("3", 3),
            "sub_sink": ("7", 7), "aggregator_ids": ("4, 9,11", (4, 9, 11)),
            "aggregator_every": ("5", 5), "rounds": ("30", 30),
            "seed": ("9", 9), "mode": ("baseline", "baseline"),
            "e_elec": ("4.5e-8", 4.5e-8), "e_amp": ("2.5e-10", 2.5e-10),
            "initial_energy_j": ("0.75", 0.75), "field_base": ("21.5", 21.5),
            "drift_amplitude": ("1.5", 1.5), "drift_period": ("40.5", 40.5),
            "noise_sigma": ("0.25", 0.25), "event_rate": ("0.2", 0.2),
            "event_radius": ("15.5", 15.5),
            "event_magnitude": ("12.5", 12.5), "event_duration": ("3", 3),
            "dedup_enabled": ("false", False), "dedup_eps": ("0.05", 0.05),
            "band_lo": ("18.5", 18.5), "band_hi": ("32.5", 32.5),
            "theta_p": ("0.2", 0.2), "window_w": ("6", 6),
            "delta_o": ("0.75", 0.75), "range_lo": ("-10.5", -10.5),
            "range_hi": ("60.5", 60.5), "tau_r": ("1.5", 1.5),
            "quorum_q": ("0.4", 0.4), "rescue_score": ("0.5", 0.5),
            "batch_cap": ("8", 8),
        }
        defaults = {f.name: f.default
                    for f in dataclasses.fields(ScenarioConfig)}
        assert set(cases) == set(defaults)
        assert all(value != defaults[k] for k, (_, value) in cases.items())
        sc = parse_scenario("".join(f"{k} = {text}\n"
                                    for k, (text, _) in cases.items()))
        assert sc == ScenarioConfig(**{k: v for k, (_, v) in cases.items()})
        for key, (_, value) in cases.items():
            assert type(getattr(sc, key)) is type(value), key


class TestValidate:
    def test_defaults_valid(self):
        ScenarioConfig().validate()

    def test_drift_phase_must_stay_finite(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(drift_period=1e-320).validate()
        # no round after round 0 is sensed, so the phase stays 0
        for rounds in (0, 1):
            ScenarioConfig(drift_period=1e-320, rounds=rounds).validate()

    def test_band_ordering(self):
        with pytest.raises(InvalidScenario):
            ScenarioConfig(band_lo=30.0, band_hi=20.0).validate()

    def test_band_width_must_be_finite(self):
        wide = dict(band_lo=-1e308, band_hi=1e308, range_lo=-1e308,
                    range_hi=1e308)
        assert ScenarioConfig(**wide).band_width == float("inf")
        with pytest.raises(InvalidScenario, match="band"):
            ScenarioConfig(**wide).validate()
        ScenarioConfig(**dict(wide, band_lo=-1e307, band_hi=1e307)).validate()

    def test_window_w_must_fit_a_deque(self):
        with pytest.raises(InvalidScenario, match="window_w"):
            ScenarioConfig(window_w=sys.maxsize + 1).validate()
        ScenarioConfig(window_w=sys.maxsize).validate()

    def test_every_int_key_but_the_seed_is_bounded(self):
        # rounds = 10**400 used to end in OverflowError at the drift phase,
        # and node_count = 10**26 to start placing that many nodes
        keys = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type == "int" and f.name != "seed"]
        assert {"node_count", "rounds", "window_w"} <= set(keys)
        for key in keys:
            for value in (sys.maxsize + 1, 10**26, 10**400):
                with pytest.raises(InvalidScenario,
                                   match=f"^{key} must be at most"):
                    ScenarioConfig(**{key: value}).validate()

    def test_seed_is_not_bounded(self):
        sc = parse_scenario(f"seed = {2**64 - 1}\n")
        assert sc.seed == 2**64 - 1
        sc.validate()

    # numeric keys whose range is a rule of their own, not a sign rule
    OWN_RULE = ("node_count", "sink_id", "seed", "quorum_q", "band_lo",
                "band_hi", "range_lo", "range_hi", "field_base",
                "drift_amplitude", "event_magnitude")

    def test_every_numeric_key_has_a_sign_rule(self):
        numeric = {f.name for f in dataclasses.fields(ScenarioConfig)
                   if f.type in ("int", "float")}
        tables = (_POSITIVE, _NON_NEGATIVE, self.OWN_RULE)
        named = [key for table in tables for key in table]
        assert len(named) == len(set(named))  # no key in two tables
        assert set(named) == numeric

    @pytest.mark.parametrize("key", _POSITIVE)
    def test_positive_key_rejects_zero(self, key):
        zero = type(getattr(ScenarioConfig(), key))(0)
        with pytest.raises(InvalidScenario, match=f"^{key} must be positive"):
            ScenarioConfig(**{key: zero}).validate()

    @pytest.mark.parametrize("key", _NON_NEGATIVE)
    def test_non_negative_key_rejects_negative(self, key):
        negative = type(getattr(ScenarioConfig(), key))(-1)
        with pytest.raises(InvalidScenario,
                           match=f"^{key} must be non-negative"):
            ScenarioConfig(**{key: negative}).validate()
        ScenarioConfig(**{key: negative + 1}).validate()

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

    def test_negative_area_size(self):
        with pytest.raises(InvalidScenario, match="area_size"):
            ScenarioConfig(placement="uniform", area_size=-50.0,
                           comm_radius=40.0).validate()
        ScenarioConfig(placement="uniform", area_size=0.0).validate()

    def test_repeated_aggregator_id(self):
        with pytest.raises(InvalidScenario, match="aggregator_ids"):
            parse_scenario("aggregator_ids = 5, 7, 5\n").validate()
        parse_scenario("aggregator_ids = 5, 7\n").validate()

    # (rejected, accepted neighbour, message); both on 100 nodes, sink 5
    @pytest.mark.parametrize("bad,good,message", [
        (dict(sink_id=-1), dict(sink_id=0), "sink_id out of range"),
        (dict(sink_id=100), dict(sink_id=99), "sink_id out of range"),
        (dict(sub_sink=5), dict(sub_sink=4), "sub_sink conflicts"),
        (dict(sub_sink=-1), dict(sub_sink=0), "sub_sink conflicts"),
        (dict(sub_sink=100), dict(sub_sink=99), "sub_sink conflicts"),
        (dict(sub_sink="none"), dict(sub_sink="auto"), "sub_sink must be"),
        (dict(sub_sink="foo"), dict(sub_sink="auto"), "sub_sink must be"),
        (dict(aggregator_ids=(-1,)), dict(aggregator_ids=(0,)),
         "aggregator id -1 out of range"),
        (dict(aggregator_ids=(7, 100)), dict(aggregator_ids=(7, 99)),
         "aggregator id 100 out of range"),
        (dict(sub_sink=None), dict(sub_sink=None, mode="baseline"),
         "framework mode requires a sub-sink"),
    ], ids=["sink_negative", "sink_past_the_end", "sub_sink_is_sink",
            "sub_sink_negative", "sub_sink_past_the_end", "sub_sink_none_str",
            "sub_sink_other_str", "aggregator_negative",
            "aggregator_past_the_end", "framework_without_sub_sink"])
    def test_role_rules(self, bad, good, message):
        with pytest.raises(InvalidScenario, match=message):
            ScenarioConfig(**{"sink_id": 5, **bad}).validate()
        ScenarioConfig(**{"sink_id": 5, **good}).validate()

    # set from Python, where no parser turns the value into an int first
    @pytest.mark.parametrize("bad,message", [
        (dict(sink_id="3"), "sink_id must be an integer"),
        (dict(sink_id=True), "sink_id must be an integer"),
        (dict(node_count=2.5), "node_count must be an integer"),
        (dict(rounds=2.5), "rounds must be an integer"),
        (dict(batch_cap=True), "batch_cap must be an integer"),
        (dict(sub_sink=True), "sub_sink must be"),
        (dict(sub_sink=3.0), "sub_sink must be"),
        (dict(aggregator_ids=("5",)), "aggregator id '5' is not an integer"),
        (dict(aggregator_ids=(7, True)), "aggregator id True is not an integer"),
    ], ids=["sink_str", "sink_bool", "node_count_float", "rounds_float",
            "batch_cap_bool", "sub_sink_bool", "sub_sink_float",
            "aggregator_str", "aggregator_bool"])
    def test_int_fields_must_hold_ints(self, bad, message):
        with pytest.raises(InvalidScenario, match=message):
            ScenarioConfig(**bad).validate()

    def test_every_int_key_is_checked(self):
        keys = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type == "int"]
        assert {"node_count", "sink_id", "rounds", "batch_cap"} <= set(keys)
        for key in keys:
            for value in (1.0, True, "1"):
                with pytest.raises(InvalidScenario,
                                   match=f"^{key} must be an integer"):
                    ScenarioConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key", ["e_elec", "e_amp"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_radio_constants_must_be_finite(self, key, value):
        with pytest.raises(InvalidScenario):
            parse_scenario(f"{key} = {value}\n").validate()


class TestRadio:
    def test_defaults_agree(self):
        assert ScenarioConfig().radio() == RadioParams()
