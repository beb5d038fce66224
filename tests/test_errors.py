"""The two refusal rules, `within` and `one_of`, and every library bound that uses them."""

import math

import pytest

from electronlab import ga3
from electronlab.config import parse_config
from electronlab.electron_model import HELICITIES, PlaneWaveElectron
from electronlab.epr_model import (
    MINUS,
    PLUS,
    SIDES,
    AnalyzerPair,
    coincidence_probability,
    conditional_outcome,
    expectation,
    hidden_phase_samples,
    monte_carlo_singles,
    reduce_angle,
    rotor_phase,
    single_probability,
)
from electronlab.cli import main
from electronlab.errors import ConfigError, DomainError, _ends, one_of, within
from electronlab.spin_dynamics import (
    FieldRamp,
    LLParams,
    SpinState,
    classify_deflection,
    integrate,
    linear_ramp,
    schedule,
)
from electronlab.uncertainty import relative_feature_error

BIG = 1.7976931348623157e308           # the largest double
TINY = 5e-324                          # the smallest positive double
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
INF, NAN = math.inf, math.nan
HALF = BIG / 2                         # the largest setting difference whose double is finite
ABOVE_HALF = math.nextafter(HALF, INF)
DIFFERENCES = f"[{-HALF!r}, {HALF!r}]"
UNIT = f"[{1.0 - 1e-9!r}, {1.0 + 1e-9!r})"       # |n - 1| <= 1e-9, as doubles
NORM2 = f"[{1.0 - 1e-12!r}, {1.0 + 1e-12!r})"    # |n^2 - 1| <= 1e-12, as doubles
STEPS = "(0.5, 50000000.5]"                      # the ratios that round to 1 ... 5e7 steps


def below(x):
    return math.nextafter(x, -INF)


def refusal(name, bound, value):
    """The one message of each rule: `bound` is an interval string or the choices."""
    if isinstance(bound, str):
        return f"{name} must lie in {bound}, got {value!r}"
    return f"{name} must be one of {list(bound)}, got {value!r}"


class TestWithin:
    @pytest.mark.parametrize("value, interval", [
        (0.0, "[0, 1]"), (1.0, "[0, 1]"), (0.5, "(0, 1)"),
        (-0.0, "[0, 1)"), (0.0, "(-1, 0]"), (-0.0, "(-1, 0]"),
        (-BIG, "(-inf, inf)"), (BIG, "(-inf, inf)"), (INF, "[0, inf]"),
        (10**400, "[1, inf)"), (1, "[1, 1000000]"), (1_000_000, "[1, 1000000]"),
        (360 / 1_000_000, "[0.00036, 720)"),
        (True, "[1, 1]"),  # a bool is the int 1 or 0
        (TINY, "(0, inf)"),
    ])
    def test_inside(self, value, interval):
        within(value, interval, "x")

    @pytest.mark.parametrize("value, interval", [
        (0.0, "(0, 1)"), (1.0, "(0, 1)"), (-TINY, "[0, 1]"), (ABOVE_ONE, "[0, 1]"),
        (-0.0, "(0, 1)"), (0.0, "(-1, 0)"), (-0.0, "(-1, 0)"),
        (-INF, "(-inf, inf)"), (INF, "(-inf, inf)"), (INF, "[0, inf)"),
        (NAN, "(-inf, inf)"), (NAN, "[0, inf]"),
        (-10**400, "[1, inf)"), (0, "[1, inf)"), (1_000_001, "[1, 1000000]"),
        (720.0, "[0.00036, 720)"),
        (True, "(1, inf)"), (False, "[1, inf)"),
        (-0.0, "(0, inf)"), (0.0, "(0, inf)"),
    ])
    def test_outside(self, value, interval):
        with pytest.raises(DomainError) as info:
            within(value, interval, "x")
        assert str(info.value) == refusal("x", interval, value)

    def test_message(self):
        with pytest.raises(DomainError, match=r"^rate must lie in \(-inf, inf\), got nan$"):
            within(NAN, "(-inf, inf)", "rate")


class TestOneOf:
    @pytest.mark.parametrize("value, choices", [
        ("plus", HELICITIES), ("minus", HELICITIES), (0, range(4)), (3, range(4)),
        (True, range(4)), (1.0, (0.5, 1.0)),
    ])
    def test_inside(self, value, choices):
        one_of(value, choices, "x")

    @pytest.mark.parametrize("value, choices", [
        ("Plus", HELICITIES), ("", HELICITIES), (-1, range(4)), (4, range(4)),
        (1.5, range(4)), ("1", range(4)), (NAN, (0.5, 1.0)),
    ])
    def test_outside(self, value, choices):
        with pytest.raises(DomainError) as info:
            one_of(value, choices, "x")
        assert str(info.value) == refusal("x", choices, value)

    def test_message(self):
        with pytest.raises(DomainError, match=r"^helicity must be one of \['plus', 'minus'\], got '\+'$"):
            one_of("+", HELICITIES, "helicity")


def _electron(**kw):
    return PlaneWaveElectron(**{"rho0": 1.0, "u": 1.0, **kw})


def _squares(v):
    """Two components whose squares, summed as the rotor checks sum them, are exactly v.

    Only about every other double near 1 is the square of a double, so the
    largest square not above v takes a tiny second component for the rest.
    """
    a = math.sqrt(v)
    if a**2 > v:
        a = below(a)
    b = math.sqrt(v - a**2)
    assert a**2 + b**2 == v or math.isnan(v)
    return a, b


UP = SpinState((0.0, 0.0, 1.0))

# (name, interval or choices, call, last values inside, first values outside); an
# infinite end has no last value inside, so only a finite end gives one
SITES = [
    ("rho0", "(0, inf)", lambda v: _electron(rho0=v), [TINY], [0.0, -0.0, INF, NAN]),
    ("velocity", "[0, inf)", lambda v: _electron(u=v), [0.0, -0.0], [-TINY, INF, NAN]),
    ("helicity", HELICITIES, lambda v: _electron(helicity=v), ["plus", "minus"], ["+", "PLUS"]),
    ("field_split", "(0, 1)", lambda v: _electron(field_split=v), [TINY, BELOW_ONE],
     [0.0, 1.0, NAN]),
    ("rate", "(-inf, inf)", lambda v: FieldRamp((1.0, 0.0, 0.0), v, 1.0, lambda t: 1.0),
     [-BIG, BIG], [-INF, INF, NAN]),
    ("kappa", "(-inf, inf)", lambda v: LLParams(kappa=v), [-BIG, BIG], [-INF, INF, NAN]),
    ("record_every", "[1, inf)", lambda v: schedule(1.0, 1e-3, v), [1, 10**400], [0, -1]),
    ("dt", "(0, inf)", lambda v: schedule(1.0, v), [1.0], [0.0, -0.0, -1.0, INF, NAN]),
    ("threshold", "(0, 1)", lambda v: classify_deflection(UP, (0.0, 0.0, 1.0), v),
     [TINY, BELOW_ONE], [0.0, 1.0, NAN]),
    ("side", SIDES, lambda v: rotor_phase(0.0, v), ["A", "B"], ["C", "a"]),
    ("side", SIDES, lambda v: single_probability(0.0, v), ["A", "B"], ["C", "a"]),
    ("known outcome", (PLUS, MINUS), lambda v: conditional_outcome(v, AnalyzerPair(0.0, 0.0)),
     [PLUS, MINUS], ["undetermined", "+"]),
    ("sample count", "[1, inf)", lambda v: hidden_phase_samples(v, seed=0), [1], [0]),
    ("seed", "[0, inf)", lambda v: hidden_phase_samples(1, seed=v), [0], [-1]),
    ("trial count", "[1, inf)", lambda v: monte_carlo_singles(0.0, n=v, seed=0), [1], [0]),
    ("seed", "[0, inf)", lambda v: monte_carlo_singles(0.0, n=1, seed=v), [0], [-1]),
    ("worker count", "[1, inf)", lambda v: monte_carlo_singles(0.0, n=1, seed=0, workers=v),
     [1, 10**400], [0]),
    ("analyzer angle", "(-inf, inf)", lambda v: monte_carlo_singles(v, n=1, seed=0),
     [-BIG, BIG], [-INF, INF, NAN]),
    ("angle", "(-inf, inf)", reduce_angle, [-BIG, BIG], [-INF, INF, NAN]),
    ("setting difference", DIFFERENCES, lambda v: expectation(AnalyzerPair(v, 0.0)),
     [-HALF, HALF], [-ABOVE_HALF, ABOVE_HALF, -INF, INF, NAN]),
    ("setting difference", DIFFERENCES, lambda v: coincidence_probability(AnalyzerPair(v, 0.0)),
     [-HALF, HALF], [-ABOVE_HALF, ABOVE_HALF, -INF, INF, NAN]),
    ("setting difference", DIFFERENCES, lambda v: conditional_outcome(PLUS, AnalyzerPair(v, 0.0)),
     [-HALF, HALF], [-ABOVE_HALF, ABOVE_HALF, -INF, INF, NAN]),
    ("height error", "[0, inf)", lambda v: relative_feature_error(30.0, v), [0.0, -0.0],
     [-TINY, INF, NAN]),
    ("grade index", range(4), lambda v: ga3.grade(ga3.Multivector3(1.0), v), [0, 3],
     [-1, 4, 1.5]),
    # |(v, 0, 0)| is v, since the square root of a rounded square is exact; the squares
    # of sqrt(TINY) and sqrt(BIG) are the smallest and about the largest double
    ("spin direction length", UNIT, lambda v: SpinState((v, 0.0, 0.0)),
     [1.0 - 1e-9, below(1.0 + 1e-9)], [below(1.0 - 1e-9), 1.0 + 1e-9, NAN]),
    ("field direction length", UNIT, lambda v: FieldRamp((v, 0.0, 0.0), 1.0, 1.0, lambda t: 1.0),
     [1.0 - 1e-9, below(1.0 + 1e-9)], [below(1.0 - 1e-9), 1.0 + 1e-9, NAN]),
    ("direction vector length", "(0, inf)", lambda v: linear_ramp(1.0, 1.0, (v, 0.0, 0.0)),
     [math.sqrt(TINY), math.sqrt(BIG)], [0.0, INF, NAN]),
    ("velocity component", "(-inf, inf)", lambda v: LLParams(u=(0.0, 0.0, v)), [-BIG, BIG],
     [-INF, INF, NAN]),
    ("duration / dt", STEPS, lambda v: schedule(v, 1.0), [math.nextafter(0.5, 1.0), 50000000.5],
     [0.5, math.nextafter(50000000.5, INF), INF, NAN]),
    ("rotor norm^2", NORM2, lambda v: ga3.Rotor3(*_squares(v), 0.0, 0.0),
     [1.0 - 1e-12, below(1.0 + 1e-12)], [below(1.0 - 1e-12), 1.0 + 1e-12, NAN]),
    ("rotor plane norm^2", NORM2, lambda v: ga3.rotor(ga3.pseudovector(*_squares(v), 0.0), 0.0),
     [1.0 - 1e-12, below(1.0 + 1e-12)], [below(1.0 - 1e-12), 1.0 + 1e-12, NAN]),
    ("rotor plane non-bivector norm", "[0, 1e-12]",
     lambda v: ga3.rotor(ga3.Multivector3(s=v, b12=1.0), 0.0), [0.0, 1e-12],
     [math.nextafter(1e-12, 1.0), INF, NAN]),
    ("rotor angle", "(-inf, inf)", lambda v: ga3.rotor(ga3.E12, v), [-BIG, BIG],
     [-INF, INF, NAN]),
    # from u = 0 the step's velocity is exactly v
    ("velocity after the step", "(0, inf)",
     lambda v: _electron(u=0.0).ehrenfest_step((0.0, 0.0, -v), 1.0), [TINY],
     [0.0, -TINY, INF, NAN]),
]


INSIDE = [pytest.param(call, value, id=f"{name}={value!r:.12}")
          for name, _, call, inside, _ in SITES for value in inside]
OUTSIDE = [pytest.param(call, name, bound, value, id=f"{name}={value!r:.12}")
           for name, bound, call, _, outside in SITES for value in outside]


@pytest.mark.parametrize("call, value", INSIDE)
def test_last_value_inside_is_accepted(call, value):
    call(value)


@pytest.mark.parametrize("call, name, bound, value", OUTSIDE)
def test_first_value_outside_is_refused(call, name, bound, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == refusal(name, bound, value)


def test_a_precession_vector_that_overflows_is_refused():
    params = LLParams(kappa=BIG, u=(0.0, 0.0, 2.0))
    with pytest.raises(DomainError, match=r"^precession vector kappa\*\(u x dB/dt\) component "
                                          r"must lie in \(-inf, inf\), got inf$"):
        integrate(UP, linear_ramp(1.0, 1.0, (1.0, 0.0, 0.0)), params)


def test_a_relative_feature_error_that_overflows_is_refused():
    with pytest.raises(DomainError, match=r"^relative feature error must lie in \[0, inf\), "
                                          r"got inf$"):
        relative_feature_error(1e-320, 1e308)


def test_finite_angles_whose_difference_overflows_are_refused():
    with pytest.raises(DomainError, match=r"^setting difference must lie in .*, got inf$"):
        expectation(AnalyzerPair(BIG, -BIG))


def test_config_prefixes_the_same_message():
    with pytest.raises(ConfigError) as info:
        parse_config("", ["subcommand=electron", "electron.points=0"])
    assert str(info.value) == "override: 'electron.points' must lie in [1, 1000000], got 0"


def test_a_curve_parses_each_distinct_interval_once(tmp_path):
    _ends.cache_clear()
    assert main(["epr", "--curve", "--step-deg", "0.036", "--out", str(tmp_path)]) == 0
    info = _ends.cache_info()
    assert info.hits + info.misses >= 10_000  # one setting-difference check per setting
    assert info.misses == info.currsize <= 16
