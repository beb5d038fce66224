"""Config resolution: defaults, file parsing, override precedence."""

import math
import re

import pytest

from electronlab.config import REGISTRY, SUBCOMMANDS, _parse_value, parse_config
from electronlab.errors import ConfigError


class TestDefaults:
    def test_empty_file_yields_documented_defaults(self):
        cfg = parse_config("", ["subcommand=epr"])
        assert cfg.seed == 12345
        assert cfg.out == "out"
        assert cfg.format == "csv"
        assert cfg.params["epr.mode"] == "curve"
        assert cfg.params["epr.n"] == 1_000_000
        assert cfg.params["epr.angles_deg"] == (0.0, 45.0, 22.5, 67.5)

    def test_params_scoped_to_subcommand(self):
        cfg = parse_config("", ["subcommand=budget"])
        assert all(key.startswith("budget.") for key in cfg.params)
        assert cfg.params["budget.band_energy_mev"] == 80.0
        assert cfg.params["budget.convention"] == 0.5

    def test_resolved_view_is_complete(self):
        cfg = parse_config("", ["subcommand=electron"])
        flat = cfg.resolved()
        assert flat["subcommand"] == "electron"
        assert flat["seed"] == 12345
        assert flat["electron.zmax"] == pytest.approx(2.0 * math.pi)
        electron_keys = {k for k in REGISTRY if k.startswith("electron.")}
        assert electron_keys <= set(flat)


class TestFileParsing:
    def test_file_sets_values(self):
        text = "subcommand = epr\nepr.phi1_deg = 30\nseed = 7\n"
        cfg = parse_config(text)
        assert cfg.subcommand == "epr"
        assert cfg.params["epr.phi1_deg"] == 30.0
        assert cfg.seed == 7

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# a comment\nsubcommand = budget  # trailing note\n\n"
        cfg = parse_config(text)
        assert cfg.subcommand == "budget"

    def test_override_beats_file(self):
        cfg = parse_config("subcommand = epr\nepr.phi1_deg = 0\n",
                           ["epr.phi1_deg=45"])
        assert cfg.params["epr.phi1_deg"] == 45.0

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("subcommand = epr\nnot a key value pair\n")

    @pytest.mark.parametrize("text", [
        # str.splitlines would also break at each of these, inside the comment
        *(f"seed = 3 # café{c}\nepr.mode = x\n"
          for c in "\x1c\x1d\x1e\v\f\x85\u2028\u2029"),
        "seed = 3\r\nepr.mode = x\r\n",
        "seed = 3\repr.mode = x\r",
    ])
    def test_lines_break_only_at_newlines(self, text):
        with pytest.raises(ConfigError, match="^line 2: 'epr.mode' must be one of"):
            parse_config(text)

    def test_unknown_key_reports_line_and_name(self):
        with pytest.raises(ConfigError, match="line 1.*epr.phase1"):
            parse_config("epr.phase1 = 7\n", ["subcommand=epr"])

    def test_type_mismatch_names_the_key(self):
        with pytest.raises(ConfigError, match="epr.phi1_deg"):
            parse_config("subcommand = epr\nepr.phi1_deg = banana\n")

    def test_choice_violation_names_the_key(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("subcommand = epr\nformat = xml\n")

    def test_int_keys_reject_floats(self):
        with pytest.raises(ConfigError, match="epr.n"):
            parse_config("subcommand = epr\nepr.n = 1.5e6\n")


class TestOverrides:
    def test_missing_subcommand_rejected(self):
        with pytest.raises(ConfigError, match="subcommand"):
            parse_config("")

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config("", ["subcommand=epr", "epr.n"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("", ["subcommand=epr", "epr.bogus=1"])

    def test_vector_values(self):
        cfg = parse_config("", ["subcommand=sterngerlach",
                                "sterngerlach.u=0.5,0,2"])
        assert cfg.params["sterngerlach.u"] == (0.5, 0.0, 2.0)

    def test_vector_wrong_arity(self):
        with pytest.raises(ConfigError, match="sterngerlach.u"):
            parse_config("", ["subcommand=sterngerlach", "sterngerlach.u=1,2"])

    def test_angles_wrong_arity(self):
        with pytest.raises(ConfigError, match="epr.angles_deg"):
            parse_config("", ["subcommand=epr", "epr.angles_deg=0,45,22.5"])

    def test_budget_convention_choices(self):
        with pytest.raises(ConfigError, match="budget.convention"):
            parse_config("", ["subcommand=budget", "budget.convention=0.7"])


def _text(value):
    return ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("key", sorted(k for k, opt in REGISTRY.items() if opt.default is not None))
def test_default_passes_its_own_checks(key):
    """Defaults never go through _parse_value, so a bad one would not be refused.

    The subcommand's default, None, means that none is chosen yet."""
    opt = REGISTRY[key]
    value = _parse_value(opt, _text(opt.default), "default")
    assert value == opt.default and type(value) is type(opt.default)


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_default_type_is_one_the_parser_derives(key):
    """_parse_value reads an option's type off its default: a tuple of floats, an int, a
    float, or else text. A bool would be parsed as an int, so none may be one."""
    default = REGISTRY[key].default
    assert not isinstance(default, bool)
    assert (type(default) in (int, float, str, type(None))
            or type(default) is tuple and all(type(part) is float for part in default))


# The last value inside and the first value outside each finite end of every
# declared interval; a bracket includes its end, a parenthesis excludes it.
INSIDE = [
    ("electron.points", "1"), ("electron.points", "1000000"),
    ("epr.step_deg", "0.00036"), ("epr.step_deg", repr(math.nextafter(720.0, 0.0))),
    ("epr.n", "1"), ("epr.n", "1000000000"),
    ("sterngerlach.threshold", "5e-324"), ("sterngerlach.threshold", repr(math.nextafter(1.0, 0.0))),
    ("sterngerlach.record_every", "1"), ("sterngerlach.record_every", str(10**400)),  # > max float
    ("seed", "0"), ("seed", str(10**400)),
    ("epr.workers", "1"), ("epr.workers", str(10**400)),
]
OUTSIDE = [
    ("electron.points", "0"), ("electron.points", "1000001"),
    ("epr.step_deg", repr(math.nextafter(0.00036, 0.0))), ("epr.step_deg", "720.0"),
    ("epr.n", "0"), ("epr.n", "1000000001"),
    ("sterngerlach.threshold", "0.0"), ("sterngerlach.threshold", "1.0"),
    ("sterngerlach.record_every", "0"),
    ("seed", "-1"),
    ("epr.workers", "0"),
]


def test_interval_cases_cover_every_declared_interval():
    declared = {key for key, opt in REGISTRY.items() if opt.within is not None}
    assert {key for key, _ in INSIDE} == {key for key, _ in OUTSIDE} == declared


def _case_id(text):
    return text if len(text) < 30 else f"{len(text)}-digit"


def _subcommand(key):
    """The subcommand a key belongs to; a global key such as seed belongs to all of them."""
    prefix = key.partition(".")[0]
    return prefix if prefix in SUBCOMMANDS else SUBCOMMANDS[0]


@pytest.mark.parametrize("key, text", INSIDE, ids=_case_id)
def test_value_inside_its_interval_accepted(key, text):
    cfg = parse_config("", [f"subcommand={_subcommand(key)}", f"{key}={text}"])
    assert cfg.resolved()[key] == type(REGISTRY[key].default)(text)


@pytest.mark.parametrize("key, text", OUTSIDE, ids=_case_id)
def test_value_outside_its_interval_refused_from_flag_and_file(key, text):
    subcommand = _subcommand(key)
    message = rf"'{key}' must lie in {re.escape(REGISTRY[key].within)}, got {re.escape(text)}$"
    with pytest.raises(ConfigError, match="^override: " + message):
        parse_config("", [f"subcommand={subcommand}", f"{key}={text}"])
    with pytest.raises(ConfigError, match="^line 2: " + message):
        parse_config(f"subcommand = {subcommand}\n{key} = {text}\n")
