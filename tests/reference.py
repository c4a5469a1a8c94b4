"""The tick loop replayed one push and one evaluation at a time.

Tests hold ``Detector`` (through ``detect`` and ``run_offline``) to this
replay: it pushes each parsed line through ``push_sample`` and evaluates
each due tick with ``evaluate_tick`` and ``threshold_check``, the
one-window, one-tick primitives, without the block arrays of ``Detector``.
"""

from __future__ import annotations

from hpcwatch.detector import (
    Alert,
    DetectorConfig,
    WindowState,
    evaluate_tick,
    lag,
    push_sample,
    threshold_check,
)
from hpcwatch.report import alert_row
from hpcwatch.trace import LineError, Sample, parse_line, tick_of


def replay_detect(
    lines: list[str],
    config: DetectorConfig = DetectorConfig(),
    points: list | None = None,
    alerts: list[Alert] | None = None,
) -> tuple[list[tuple[str, int]], int]:
    """Alert rows, each with the count of lines read when it fired, and the
    malformed count, from one push and one evaluation at a time.  Before a
    line is pushed, every tick its tick passes is evaluated once, in order;
    a tick with no score at its eval tick gives no point, so only those
    with one are visited.  ``points``, if given, receives the (eval tick, f,
    contributing) of each point, and ``alerts`` the ``Alert`` of each row."""
    wanted = set(config.counters)
    states: dict[str, WindowState] = {}
    scores: dict[str, dict[int, float]] = {name: {} for name in wanted}
    waiting: set[int] = set()  # ticks that read a landed score
    last_ts: dict[str, float] = {}
    rows: list[tuple[str, int]] = []
    malformed = 0
    next_eval = clock = None  # oldest tick not evaluated, newest tick pushed
    last_alert = None
    read = 0

    def evaluate_until(tick: int) -> None:
        nonlocal next_eval, last_alert
        due = sorted(t for t in waiting if t < tick)
        waiting.difference_update(due)
        for t in due:
            if t < next_eval:
                continue  # evaluated before its score landed
            point = evaluate_tick(scores, t, config)
            if points is not None:
                points.append((point.eval_tick, point.f, point.contributing))
            alert = threshold_check(point, config)
            if alert is None or (
                last_alert is not None and alert.eval_tick - last_alert <= config.coalesce
            ):
                continue
            last_alert = alert.eval_tick
            rows.append((",".join(alert_row(alert)), read))
            if alerts is not None:
                alerts.append(alert)
        next_eval = max(next_eval, tick)

    for read, raw in enumerate(lines, start=1):
        parsed = parse_line(raw, read)
        if not isinstance(parsed, Sample):
            malformed += isinstance(parsed, LineError)
            continue
        name = parsed.event
        if name in last_ts and parsed.timestamp <= last_ts[name]:
            malformed += 1
            continue
        last_ts[name] = parsed.timestamp
        if name not in wanted or parsed.delta is None:
            continue  # align gives it no tick, so it does not move the clock
        tick = tick_of(parsed.timestamp, config.tick_interval)
        next_eval = tick if next_eval is None else next_eval
        clock = tick if clock is None else max(clock, tick)
        evaluate_until(tick)
        state = states.setdefault(name, WindowState(event=name, window=config.window))
        result = push_sample(state, parsed, config)
        if result is not None:
            scores[name][result[0]] = result[1]
            waiting.add(result[0] + lag(config))
    if clock is not None:
        evaluate_until(clock + 1)
    return rows, malformed
