"""CSV report emission and ingestion.

Three row shapes, all with a header, '.' decimal separator, rows in time
order, floats at 9 significant digits so identical runs produce identical
bytes:

* attack factor series: eval_time,f,contributing
* alerts:               eval_time,f,threshold,counters
* per-counter outliers: event,tick,time,value,lof,rank

``counters`` packs the contributing event names with ';' so the column
count stays fixed.  Every writer here has a matching reader; the CLI never
emits a file it cannot read back.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .detector import Alert
from .trace import tick_of

ATTACK_FACTOR_HEADER = ["eval_time", "f", "contributing"]
ALERTS_HEADER = ["eval_time", "f", "threshold", "counters"]
OUTLIERS_HEADER = ["event", "tick", "time", "value", "lof", "rank"]

# Rows of a column report converted to Python values at once.
CHUNK = 4096


def fmt(x: float) -> str:
    """9 significant digits; round-trips every value the pipeline emits."""
    return "%.9g" % x


@dataclass(frozen=True)
class OutlierRow:
    event: str
    tick: int
    time: float
    value: float
    lof: float
    rank: int


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_attack_factor_csv(
    path: str, series: tuple[np.ndarray, np.ndarray, np.ndarray], tick_interval: float
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        w.writerow(ATTACK_FACTOR_HEADER)
        for start in range(0, series[0].shape[0], CHUNK):
            chunk = (column[start:start + CHUNK].tolist() for column in series)
            w.writerows(
                [fmt(tick * tick_interval), fmt(f), count] for tick, f, count in zip(*chunk)
            )


def write_alerts_csv(path: str, alerts: Sequence[Alert]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        w.writerow(ALERTS_HEADER)
        for a in alerts:
            w.writerow(alert_row(a))


def alert_row(alert: Alert) -> list[str]:
    """One alert as CSV fields; shared by the report writer and live mode."""
    return [
        fmt(alert.eval_time),
        fmt(alert.f),
        fmt(alert.threshold),
        ";".join(alert.per_counter_lof),
    ]


def write_outliers_csv(path: str, rows: Iterable[OutlierRow]) -> None:
    ordered = sorted(rows, key=lambda r: (r.tick, r.event, r.rank))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = _writer(fh)
        w.writerow(OUTLIERS_HEADER)
        for r in ordered:
            w.writerow([r.event, r.tick, fmt(r.time), fmt(r.value), fmt(r.lof), r.rank])


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------

def _read_rows(
    path: str, expected_header: list[str], convert: Callable[[list[str]], object]
) -> list:
    """The rows after the header, each with the header's field count, as
    ``convert`` reads them; a row it cannot read is a ``ValueError`` that
    names the file and line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != expected_header:
        raise ValueError(
            f"{path}: expected header {','.join(expected_header)!r}, "
            f"got {rows[0] if rows else 'empty file'!r}"
        )
    converted = []
    # a row per line: no field the writers write holds a line feed
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(expected_header):
            raise ValueError(f"{path}:{line_no}: expected {len(expected_header)} fields, "
                             f"got {len(row)}")
        try:
            converted.append(convert(row))
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return converted


def read_attack_factor_csv(path: str) -> list[tuple[float, float, int]]:
    return _read_rows(path, ATTACK_FACTOR_HEADER, lambda r: (float(r[0]), float(r[1]), int(r[2])))


def read_alerts_csv(path: str, tick_interval: float) -> list[Alert]:
    """Rebuild alerts; per-counter scores are not serialized, so the
    snapshot carries the names with a placeholder score."""
    return _read_rows(path, ALERTS_HEADER, lambda r: Alert(
        eval_time=float(r[0]), eval_tick=tick_of(float(r[0]), tick_interval), f=float(r[1]),
        threshold=float(r[2]), per_counter_lof={n: float("nan") for n in r[3].split(";") if n},
    ))


def read_outliers_csv(path: str) -> list[OutlierRow]:
    return _read_rows(path, OUTLIERS_HEADER, lambda r: OutlierRow(
        event=r[0], tick=int(r[1]), time=float(r[2]), value=float(r[3]), lof=float(r[4]),
        rank=int(r[5]),
    ))
