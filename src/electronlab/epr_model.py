"""Local analyzer-correlation model for paired photons.

Each analyzer rotation acts as a rotor in the plane transverse to the
flight axis; multiplied with the pseudoscalar structure of the photon's
spin vector it reduces to a complex phase, e^{+i phi} on side A and
e^{-i phi} on side B. Single detections depend on an unknown initial
phase, uniform on [0, 2pi), which makes every single-detector rate 1/2.
In the product of the two sides that phase cancels identically, leaving
the coincidence probability cos^2(phi1 - phi2 - delta).

The model fixes the single-detection statistics and the coincidence
statistics separately; it supplies no per-trial rule that generates
joint +/- outcomes reproducing both at once (conditioning independent
draws on the shared phase gives 1/4 + cos[2(phi1-phi2)]/8 instead of
the cos^2 form). Coincidence quantities are therefore computed in
closed form, and Monte Carlo sampling is offered for singles only,
where a sampling story exists.

Monte Carlo streams are assigned to fixed-size trial blocks keyed by
(seed, block index), so results are reproducible bit for bit and do not
depend on how blocks are distributed over workers.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import one_of, within

SIDE_A = "A"
SIDE_B = "B"
SIDES = (SIDE_A, SIDE_B)

PLUS = "plus"
MINUS = "minus"
UNDETERMINED = "undetermined"

_HALF_PI_TOL = 1e-9       # exact-multiple detection for determinate settings
_BLOCK = 1 << 16          # trials per seeded Monte Carlo block
_SUB = 1 << 15            # trials per sub-block, the piece of a block a worker holds at once

TWO_PI = 2.0 * math.pi
# cos(2 * difference) must stay finite, so a setting difference lies in half the double range
_DIFFERENCES = f"[{-sys.float_info.max / 2!r}, {sys.float_info.max / 2!r}]"


def reduce_angle(angle: float) -> float:
    """Map an angle to [0, 2pi) for reporting; the physics is 2pi-periodic."""
    within(angle, "(-inf, inf)", "angle")
    reduced = math.fmod(angle, TWO_PI)
    if reduced < 0.0:
        reduced += TWO_PI
    return 0.0 if reduced >= TWO_PI else reduced


@dataclass(frozen=True)
class AnalyzerPair:
    """Polarizer angles at A and B plus the source phase difference."""

    phi1: float
    phi2: float
    delta: float = 0.0

    def setting_difference(self) -> float:
        """Effective difference with the source phase folded into side B.

        Every coincidence quantity reads its angles through this, so a
        non-finite angle, or a difference too large to double, is refused.
        """
        difference = self.phi1 - self.phi2 - self.delta
        within(difference, _DIFFERENCES, "setting difference")
        return difference


@dataclass(frozen=True)
class ChshSettings:
    """The four analyzer angles of one CHSH run."""

    phi1: float
    phi1p: float
    phi2: float
    phi2p: float


@dataclass(frozen=True)
class CoincidenceTable:
    """Joint-outcome probabilities; ++/-- agree, +-/-+ carry the rest."""

    cpp: float
    cmm: float
    cpm: float
    cmp: float


def rotor_phase(angle: float, side: str = SIDE_A) -> complex:
    """Analyzer rotation as a unit complex phase: exp(i angle) at side A.

    Side B turns by -angle. The phase is the (scalar, e1e2) pair of the
    rotor exp(e1e2 * angle), since e1e2 is the pseudoscalar times e3.
    """
    one_of(side, SIDES, "side")
    return cmath.exp(1j * (angle if side == SIDE_A else -angle))


def single_probability(angle: float, side: str = SIDE_A, delta: float = 0.0,
                       phi0: float = 0.0) -> float:
    """Detection probability of one photon after one analyzer rotation.

    cos^2(angle + phi0) at A; the source phase shifts side B's argument.
    """
    one_of(side, SIDES, "side")
    arg = angle + phi0 if side == SIDE_A else angle + delta + phi0
    return math.cos(arg) ** 2


def coincidence_probability(pair: AnalyzerPair) -> float:
    """Joint detection probability cos^2(phi1 - phi2 - delta).

    The hidden initial phase enters both sides with opposite sign and is
    absent from the closed form. The half-angle evaluation below equals
    cos^2 and returns exact 0/1 at the determinate settings.
    """
    return 0.5 * (1.0 + math.cos(2.0 * pair.setting_difference()))


def coincidence_table(pair: AnalyzerPair) -> CoincidenceTable:
    p = coincidence_probability(pair)
    return CoincidenceTable(cpp=p, cmm=p, cpm=1.0 - p, cmp=1.0 - p)


def expectation(pair: AnalyzerPair) -> float:
    """Correlation 2*cos^2(difference) - 1 = cos(2*difference); in [-1, 1]."""
    return math.cos(2.0 * pair.setting_difference())


def chsh_sum(settings: ChshSettings, delta: float = 0.0) -> float:
    """E(p1,p2) - E(p1,p2') + E(p1',p2) + E(p1',p2')."""
    e = lambda a, b: expectation(AnalyzerPair(a, b, delta))
    return (e(settings.phi1, settings.phi2)
            - e(settings.phi1, settings.phi2p)
            + e(settings.phi1p, settings.phi2)
            + e(settings.phi1p, settings.phi2p))


def conditional_outcome(known_a: str, pair: AnalyzerPair) -> str:
    """Outcome at B implied by the outcome at A, when the angles force one.

    Determinate only at differences that are multiples of pi/2 (within
    1e-9 rad): even multiples of pi/2 correlate, odd ones anticorrelate.
    """
    one_of(known_a, (PLUS, MINUS), "known outcome")
    r = math.fmod(pair.setting_difference(), math.pi)
    if r < 0.0:
        r += math.pi
    if r < _HALF_PI_TOL or math.pi - r < _HALF_PI_TOL:
        return known_a
    if abs(r - 0.5 * math.pi) < _HALF_PI_TOL:
        return MINUS if known_a == PLUS else PLUS
    return UNDETERMINED


def _block_streams(seed: int, index: int,
                   size: int) -> tuple[np.random.Generator, np.random.Generator]:
    """One block's hidden-phase stream and detector-draw stream.

    The block's stream is `default_rng([seed, index])`: its first `size`
    doubles u give the phases, bitwise `rng.uniform(0, 2pi, size)`, which
    numpy computes as 0.0 + 2pi*u, and the next `size` give the draws.
    The draw stream is a second PCG64 on the same seed, jumped ahead past
    the phases, so both can be read in step, a sub-block at a time, with
    the same bits as the stream read whole.
    """
    seq = np.random.SeedSequence([seed, index])
    return (np.random.Generator(np.random.PCG64(seq)),
            np.random.Generator(np.random.PCG64(seq).advance(size)))


def _block_sizes(n: int) -> list[int]:
    full, rest = divmod(n, _BLOCK)
    return [_BLOCK] * full + ([rest] if rest else [])


def hidden_phase_samples(n: int, seed: int) -> np.ndarray:
    """The uniform initial phases the singles sampler draws, in order."""
    within(n, "[1, inf)", "sample count")
    within(seed, "[0, inf)", "seed")
    parts = [_block_streams(seed, k, size)[0].random(size) * TWO_PI
             for k, size in enumerate(_block_sizes(n))]
    return np.concatenate(parts)


def monte_carlo_singles(angle: float, n: int = 1_000_000, seed: int = 0,
                        workers: int = 1) -> tuple[int, float]:
    """Sample n single-detection trials over the hidden phase.

    Each trial draws phi0 uniform on [0, 2pi) and registers a hit with
    probability cos^2 of the rotated phase. Returns (hits, hits/n).
    Fixed seed gives bit-identical results at any worker count. Side B
    at source phase delta samples as side A at angle + delta.

    A trial is a hit when r < cos(x)**2 in float64, with x = base + phi0
    and base the analyzer angle reduced to [0, 2pi), so that x keeps
    every bit of phi0 that matters at any angle. A float32 cos**2 screens
    the trials: the screen s is off from the float64 value by at most
    e = 2**-21 + 2**-23*x + 2**-24 (cosine, cast of x, square). The
    difference fl32(r) - s is taken in float32; the cast moves r, which
    lies in [0, 1), by at most 2**-25, and the band
    2**-17 + (base + 2pi)*2**-20 is at least 8 times e + 2**-25. Trials
    whose float32 difference exceeds the band in magnitude are decided by
    the screen; the rest are decided in float64 from r itself. The band is
    compared in float32 too, and the subtraction and the band's cast each
    move a value by at most 2**-24 of itself, so a trial the screen
    decides has |fl32(r) - s| above half the band and |r - s| above half
    the band less 2**-25, more than e; r - cos(x)**2 then has the sign
    the float32 difference keeps. So the hits are exactly those of the
    float64 rule.
    """
    within(n, "[1, inf)", "trial count")
    within(seed, "[0, inf)", "seed")
    within(workers, "[1, inf)", "worker count")
    within(angle, "(-inf, inf)", "analyzer angle")  # an infinite one would give no hits
    base = reduce_angle(angle)
    band = 2.0 ** -17 + (base + TWO_PI) * 2.0 ** -20

    def run_blocks(share: list[tuple[int, int]]) -> int:
        # one set of sub-block buffers per worker, about 672 KiB, reused by every block
        u, diff, mask = np.empty(2 * _SUB), np.empty(_SUB, np.float32), np.empty(_SUB, bool)
        hits = 0
        for index, size in share:
            phases, draws = _block_streams(seed, index, size)
            for start in range(0, size, _SUB):
                m = min(_SUB, size - start)
                x, r = phases.random(out=u[:m]), draws.random(out=u[_SUB:_SUB + m])
                x *= TWO_PI
                x += base
                d = np.cos(x, out=diff[:m], dtype=np.float32, casting="same_kind")
                d *= d
                np.subtract(r, d, out=d, dtype=np.float32, casting="same_kind")
                hits += np.count_nonzero(np.less(d, -band, out=mask[:m]))
                near = np.flatnonzero(np.less_equal(np.abs(d, out=d), band, out=mask[:m]))
                hits += np.count_nonzero(r[near] < np.cos(x[near]) ** 2)
        return int(hits)

    tasks = list(enumerate(_block_sizes(n)))
    # threads beyond the cores or the blocks would only sit idle
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers == 1:
        hits = run_blocks(tasks)
    else:
        # imported here: concurrent.futures pulls in logging, which a
        # one-worker run never needs, at every process start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(run_blocks, [tasks[k::workers] for k in range(workers)]))
    return hits, hits / n
