"""Seeded synthetic counter traces with optional injected attacks.

Stands in for a hardware capture: every counter gets one integer delta per
tick, drawn from a per-counter log-normal baseline (counter activity is
positively skewed, with many small values and a long right tail).  An attack
is a multiplicative boost on a short run of ticks of the affected counters,
mirroring how an exploit burst perturbs counters in proportion to activity.

Everything is driven by one seeded generator, so a config maps to exactly
one trace, byte for byte.  The evaluation half scores a detector's alerts
against the generator's ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .detector import Alert
from .events import CANDIDATE_EVENTS, check_counters
from .trace import Trace, tick_of


@dataclass(frozen=True)
class BaselineSpec:
    """Log-normal parameters for one counter: mu and sigma of log-values."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


def _steady(level: int) -> BaselineSpec:
    """Baseline pinned to one integer level after rounding.

    sigma = 1/(12*level) puts the rounding boundaries ~6 log-sigmas out, so
    draws land on `level` with probability ~1-1e-9.  Steady workloads read
    this way at a fixed cadence: flat per-interval deltas, and any genuine
    burst is maximally isolated against them.  Wider shapes make iid windows
    score-noisy: a random point in a 50-sample window of continuous draws
    carries a heavy outlier-score tail whatever the sigma, which swamps the
    default alert threshold with false positives.
    """
    return BaselineSpec(mu=math.log(level), sigma=1.0 / (12.0 * level))


# Per-counter defaults, spanning several orders of magnitude the way real
# events do.  Nothing here is measured; only the relative scales matter.
DEFAULT_BASELINES: dict[str, BaselineSpec] = {
    "iTLB-load-misses": _steady(18),
    "dTLB-loads": _steady(61452),
    "bus-cycles": _steady(23917),
    "LLC-store-misses": _steady(47),
    "LLC-loads": _steady(1123),
    "LLC-load-misses": _steady(261),
}

_FALLBACK_BASELINE = _steady(400)


@dataclass(frozen=True)
class AttackSpec:
    """A burst: deltas of affected counters on ticks [tick(at), tick(at)+width)
    are multiplied by magnitude."""

    at: float
    magnitude: float
    width: int
    affected: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.magnitude < math.inf:
            raise ValueError(f"magnitude must be finite and >= 1, got {self.magnitude}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if not 0 <= self.at < math.inf:
            raise ValueError(f"attack time must be finite and >= 0, got {self.at}")


@dataclass(frozen=True)
class SynthConfig:
    seed: int
    duration: float
    tick_interval: float = 0.100
    counters: tuple[str, ...] = CANDIDATE_EVENTS
    baseline: Mapping[str, BaselineSpec] | None = None
    attack: AttackSpec | None = None

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if not self.tick_interval > 0:
            raise ValueError(f"tick_interval must be > 0, got {self.tick_interval}")
        check_counters(self.counters)
        if self.attack is not None:
            end = self.attack.at + self.attack.width * self.tick_interval
            if end > self.duration + 1e-9:
                raise ValueError(
                    f"attack window ends at {end}s, past duration {self.duration}s"
                )

    def baseline_for(self, name: str) -> BaselineSpec:
        table = self.baseline if self.baseline is not None else DEFAULT_BASELINES
        return table.get(name, _FALLBACK_BASELINE)


@dataclass(frozen=True)
class GroundTruth:
    attack_tick: int | None
    affected: tuple[str, ...]


@dataclass(frozen=True)
class EvalMetrics:
    true_positives: int
    false_positives: int
    false_negatives: int
    detection_latency: int | None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def generate_trace(config: SynthConfig) -> tuple[Trace, GroundTruth]:
    """One sample per counter per tick; same config, same bytes.

    Sample i of every counter is stamped (i+1) * tick_interval, the readout
    instant at the end of its interval, so aligned ticks run 1..n_ticks.
    Deltas are baseline draws rounded to integers; attack ticks of affected
    counters are multiplied by the magnitude before rounding, which makes
    magnitude 1 an exact no-op.
    """
    n_ticks = tick_of(config.duration, config.tick_interval)
    if n_ticks < 1:
        raise ValueError("duration shorter than one tick")

    attack_tick: int | None = None
    affected: tuple[str, ...] = ()
    if config.attack is not None:
        attack_tick = tick_of(config.attack.at, config.tick_interval)
        if config.attack.affected is None:
            affected = tuple(config.counters)
        else:
            affected = tuple(config.attack.affected)

    rng = np.random.default_rng(config.seed)
    stamps = (np.arange(n_ticks) + 1) * config.tick_interval
    columns: dict[str, np.ndarray] = {}

    for name in config.counters:
        spec = config.baseline_for(name)
        draws = rng.lognormal(mean=spec.mu, sigma=spec.sigma, size=n_ticks)
        deltas = np.maximum(np.rint(draws), 0.0)

        if attack_tick is not None and name in affected:
            # sample i carries aligned tick i+1
            lo = max(attack_tick - 1, 0)
            hi = min(attack_tick - 1 + config.attack.width, n_ticks)
            if lo < hi:
                with np.errstate(over="ignore"):
                    deltas[lo:hi] = np.rint(deltas[lo:hi] * config.attack.magnitude)
                if not np.isfinite(deltas[lo:hi]).all():
                    raise ValueError(
                        f"attack magnitude {config.attack.magnitude} takes a delta of "
                        f"{name} past the float range"
                    )

        columns[name] = deltas

    trace = Trace({name: stamps for name in columns}, columns)
    return trace, GroundTruth(attack_tick=attack_tick, affected=affected)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def evaluate(alerts: Sequence[Alert], truth: GroundTruth, tolerance: int) -> EvalMetrics:
    """Score alerts against ground truth.

    Every alert within +-tolerance ticks of the attack counts toward one
    true positive (the earliest defines the latency, which may be negative
    if the lagged evaluation lands just before the injection tick); the rest
    are false positives.  A missed attack is one false negative.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")

    if truth.attack_tick is None:
        return EvalMetrics(
            true_positives=0,
            false_positives=len(alerts),
            false_negatives=0,
            detection_latency=None,
        )

    qualifying = [a for a in alerts if abs(a.eval_tick - truth.attack_tick) <= tolerance]
    if not qualifying:
        return EvalMetrics(
            true_positives=0,
            false_positives=len(alerts),
            false_negatives=1,
            detection_latency=None,
        )
    first = min(a.eval_tick for a in qualifying)
    return EvalMetrics(
        true_positives=1,
        false_positives=len(alerts) - len(qualifying),
        false_negatives=0,
        detection_latency=first - truth.attack_tick,
    )


# ---------------------------------------------------------------------------
# Ground-truth sidecar (key=value lines, the format cmd_eval reads back)
# ---------------------------------------------------------------------------

def write_ground_truth(path: str, truth: GroundTruth, tick_interval: float) -> None:
    lines = [f"tick_interval={tick_interval!r}"]
    if truth.attack_tick is not None:
        lines.append(f"attack_tick={truth.attack_tick}")
        lines.append("affected=" + ";".join(truth.affected))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ground_truth(path: str) -> tuple[GroundTruth, float | None]:
    convert = {"tick_interval": float, "attack_tick": int}
    pairs: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: bad ground-truth line: {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            try:
                pairs[key] = convert.get(key, str)(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None

    tick_interval = pairs.get("tick_interval")
    if tick_interval is not None and not 0 < tick_interval < math.inf:
        raise ValueError(f"{path}: tick_interval must be finite and > 0, got {tick_interval}")
    attack_tick = pairs.get("attack_tick")
    affected: tuple[str, ...] = ()
    if attack_tick is not None:
        raw_affected = pairs.get("affected", "")
        affected = tuple(n for n in raw_affected.split(";") if n)
    return GroundTruth(attack_tick=attack_tick, affected=affected), tick_interval
