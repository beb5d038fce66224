"""Exception types shared across the package, and the two refusal rules.

`within` refuses a value outside an interval and `one_of` a value outside a set
of choices; every single-value bound is checked by one of them, so each refusal
reads the same way. `within` parses each interval string once. Only `phase` keeps
its own text, naming z and t; `profile_rows` tests a block of phases at once and calls
`phase` only to word a refusal. Own text also stays where a check is relative
(`total_energy`), bounds no single value (force axis, wavefunction grade,
`cli._json_text`) or is a type rule (`config._finite`).
"""

import functools


class ElectronLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ElectronLabError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ConfigError(ElectronLabError, ValueError):
    """A run configuration is malformed, unknown, or of the wrong type."""


def within(value, interval: str, name: str) -> None:
    """Raise DomainError unless `value` lies in `interval`, written "[lo, hi)".

    A bracket includes its end and a parenthesis excludes it; an end may
    be `inf`. NaN fails every comparison, so it lies in no interval.
    """
    lo, hi = _ends(interval)
    if not ((lo < value or value == lo and interval[0] == "[")
            and (value < hi or value == hi and interval[-1] == "]")):
        raise DomainError(f"{name} must lie in {interval}, got {value!r}")


@functools.cache  # every interval in the package is built from constants: a few dozen keys
def _ends(interval: str) -> tuple[float, float]:
    return tuple(map(float, interval[1:-1].split(",")))


def one_of(value, choices, name: str) -> None:
    """Raise DomainError unless `value` is one of `choices`."""
    if value not in choices:
        raise DomainError(f"{name} must be one of {list(choices)}, got {value!r}")
