"""Report CSV writers and their matching readers."""

import math
import re

import numpy as np
import pytest

from hpcwatch.detector import Alert
from hpcwatch.report import (
    ALERTS_HEADER,
    ATTACK_FACTOR_HEADER,
    OUTLIERS_HEADER,
    OutlierRow,
    alert_row,
    fmt,
    read_alerts_csv,
    read_attack_factor_csv,
    read_outliers_csv,
    write_alerts_csv,
    write_attack_factor_csv,
    write_outliers_csv,
)

INF = float("inf")


def series(*rows: tuple[int, float, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``run_offline``'s attack-factor columns holding (eval tick, f,
    contributing) ``rows``."""
    eval_ticks, fs, contributing = zip(*rows)
    return np.array(eval_ticks, np.int64), np.array(fs), np.array(contributing, np.int64)


def alert(eval_tick: int, f: float, names: tuple[str, ...]) -> Alert:
    return Alert(
        eval_time=eval_tick * 0.1,
        eval_tick=eval_tick,
        f=f,
        threshold=1.5,
        per_counter_lof={n: f for n in names},
    )


def test_fmt_nine_significant_digits():
    assert fmt(1.0) == "1"
    assert fmt(0.30000000000000004) == "0.3"
    assert fmt(1.23456789012) == "1.23456789"
    assert fmt(INF) == "inf"
    assert fmt(1e-5) == "1e-05"


def test_attack_factor_round_trip(tmp_path):
    path = str(tmp_path / "f.csv")
    points = series((9, 1.0, 6), (10, 151.0 / 48.0, 2), (11, INF, 6))
    write_attack_factor_csv(path, points, tick_interval=0.1)
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(ATTACK_FACTOR_HEADER)
    assert lines[1] == "0.9,1,6"
    assert lines[3] == "1.1,inf,6"
    rows = read_attack_factor_csv(path)
    assert [r[2] for r in rows] == [6, 2, 6]
    assert rows[1][1] == pytest.approx(151.0 / 48.0, rel=1e-8)
    assert math.isinf(rows[2][1])


def test_alerts_round_trip(tmp_path):
    path = str(tmp_path / "alerts.csv")
    alerts = [
        alert(500, INF, ("iTLB-load-misses", "LLC-loads")),
        alert(501, 2.25, ("LLC-loads",)),
    ]
    write_alerts_csv(path, alerts)
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(ALERTS_HEADER)
    assert lines[1] == "50,inf,1.5,iTLB-load-misses;LLC-loads"
    back = read_alerts_csv(path, tick_interval=0.1)
    assert [a.eval_tick for a in back] == [500, 501]
    assert math.isinf(back[0].f) and back[1].f == 2.25
    assert list(back[0].per_counter_lof) == ["iTLB-load-misses", "LLC-loads"]
    assert all(math.isnan(v) for v in back[0].per_counter_lof.values())


def test_alert_row_matches_writer(tmp_path):
    a = alert(42, 3.5, ("bus-cycles",))
    path = str(tmp_path / "alerts.csv")
    write_alerts_csv(path, [a])
    assert open(path).read().splitlines()[1] == ",".join(alert_row(a))


def test_outliers_sorted_and_round_trip(tmp_path):
    path = str(tmp_path / "out.csv")
    rows = [
        OutlierRow(event="LLC-loads", tick=500, time=50.0, value=9000.0, lof=INF, rank=1),
        OutlierRow(event="bus-cycles", tick=20, time=2.0, value=100.0, lof=2.5, rank=1),
        OutlierRow(event="LLC-loads", tick=20, time=2.0, value=80.0, lof=2.0, rank=2),
    ]
    write_outliers_csv(path, rows)
    lines = open(path).read().splitlines()
    assert lines[0] == ",".join(OUTLIERS_HEADER)
    back = read_outliers_csv(path)
    assert [(r.tick, r.event) for r in back] == [
        (20, "LLC-loads"),
        (20, "bus-cycles"),
        (500, "LLC-loads"),
    ]
    assert back == sorted(rows, key=lambda r: (r.tick, r.event, r.rank))


def test_readers_reject_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,2\n")
    for reader in (
        read_attack_factor_csv,
        read_outliers_csv,
        lambda p: read_alerts_csv(p, 0.1),
    ):
        with pytest.raises(ValueError, match="expected header"):
            reader(str(path))


@pytest.mark.parametrize("reader, header", [
    (read_attack_factor_csv, ATTACK_FACTOR_HEADER),
    (read_outliers_csv, OUTLIERS_HEADER),
    (lambda path: read_alerts_csv(path, 0.1), ALERTS_HEADER),
], ids=["attack-factor", "outliers", "alerts"])
@pytest.mark.parametrize("fields", [1, -1], ids=["long", "short"])
def test_readers_reject_a_row_of_the_wrong_length(reader, header, fields, tmp_path):
    path = tmp_path / "bad.csv"
    good = ",".join("1" for _ in header)
    row = ",".join("1" for _ in range(len(header) + fields))
    path.write_text(f"{','.join(header)}\n{good}\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(
        f"{path}:3: expected {len(header)} fields, got {len(header) + fields}"
    )):
        reader(str(path))


def test_readers_reject_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="expected header"):
        read_attack_factor_csv(str(path))


def test_identical_runs_identical_bytes(tmp_path):
    points = series((9, 1.0, 6), (10, 2.0, 6))
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_attack_factor_csv(a, points, 0.1)
    write_attack_factor_csv(b, points, 0.1)
    assert open(a, "rb").read() == open(b, "rb").read()
