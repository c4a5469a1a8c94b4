"""
Streaming detection, one sample at a time
=========================================

The detector never needs the whole trace.  Each counter keeps a bounded
window; every arriving sample is scored a fixed lag behind the newest one,
and the per-counter scores for a tick average into the attack factor f.
This feeds a `Detector` one tick of readouts at a time on two counters,
with a burst planted at tick 60.
"""

import numpy as np

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

# extend() takes a block of lines as columns, as trace.parse_block gives
# them: the events, each line's index into them, its timestamp and its
# delta; it snaps each timestamp to its tick.  It only gathers lines;
# poll() runs them as one block and hands over the alerts raised.  A
# tick is evaluated once a later one arrives, and it reads the scores
# judging the tick `lag` before it: a score counts iff it is computed
# before the clock passes that tick.  The detector appends each evaluated
# tick's eval tick, f and contributing count to the three columns of
# `points`.
points = ([], [], [])
detector = Detector(config, points=points)


def show(alerts) -> None:
    raised = {alert.eval_tick: alert for alert in alerts}
    for eval_tick, f, contributing in zip(*points):
        tick = eval_tick + lag(config)
        alert = raised.get(eval_tick)
        if alert is not None:
            print(
                f"tick {tick:3}: ALERT for tick {eval_tick} "
                f"(t={alert.eval_time:.1f}s) f={f}"
            )
        elif tick % 20 == 0:
            print(f"tick {tick:3}: f={f:.3f} over {contributing} counters")
    for column in points:
        column.clear()


names = ["LLC-loads", "bus-cycles"]
for tick in range(100):
    deltas = np.array([readout(name, tick) for name in names])
    stamps = np.full(len(names), tick * config.tick_interval)
    detector.extend(names, np.arange(len(names)), stamps, deltas)
    show(detector.poll())
show(detector.finish())  # end of input: the last tick is evaluated too

# The alert names the evaluated tick, not the arrival tick: the burst at
# tick 60 is reported while the stream is at tick 63, three ticks later.
