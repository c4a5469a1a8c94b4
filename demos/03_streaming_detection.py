"""
Streaming detection, one sample at a time
=========================================

The detector never needs the whole trace.  Each counter keeps a bounded
window; every arriving sample is scored a fixed lag behind the newest one,
and the per-counter scores for a tick average into the attack factor f.
This feeds a `Detector` one readout at a time on two counters, with a
burst planted at tick 60.
"""

from hpcwatch.detector import Detector, DetectorConfig, lag

config = DetectorConfig()  # k=5, window 50, threshold 1.5, 100 ms ticks
print(f"lag: {lag(config)} ticks, warm-up: {config.warmup} samples\n")

# Steady readouts with one hot run.  The second counter stays flat to show
# the averaging: only the burst counter reacts, so f lands halfway between
# its score and 1.
def readout(name: str, tick: int) -> float:
    base = {"LLC-loads": 1100.0, "bus-cycles": 24000.0}[name]
    if name == "LLC-loads" and tick in (60, 61):
        return base * 30.0
    return base

# The detector evaluates a tick once a later one arrives.  It appends every
# attack-factor point to `points`; poll() hands over the alerts raised.
points = []
detector = Detector(config, points=points)


def show(alerts) -> None:
    raised = {alert.eval_tick: alert for alert in alerts}
    for point in points:
        alert = raised.get(point.eval_tick)
        if alert is not None:
            print(
                f"tick {point.tick:3}: ALERT for tick {point.eval_tick} "
                f"(t={alert.eval_time:.1f}s) f={point.f}"
            )
        elif point.tick % 20 == 0:
            print(f"tick {point.tick:3}: f={point.f:.3f} over {point.contributing} counters")
    points.clear()


for tick in range(100):
    for name in ("LLC-loads", "bus-cycles"):
        detector.push(name, tick, readout(name, tick))
    show(detector.poll())
show(detector.finish())  # end of input: the last tick is evaluated too

# The alert names the evaluated tick, not the arrival tick: the burst at
# tick 60 is reported while the stream is at tick 63, three ticks later.
