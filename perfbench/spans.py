"""In-memory spans, written once as a Chrome trace-event file.

The file has the shape :func:`repro.stats.export.chrome_trace` writes
(``traceEvents`` of ``ph: "M"`` metadata and ``ph: "X"`` complete
events, ``displayTimeUnit``, ``otherData``), so it loads in Perfetto
beside a simulated-time trace.  Timestamps here are *host*
microseconds since the recorder was created.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

SCHEMA = 1


class Spans:
    """Collects spans; each has a name, a track, times, an id shared by
    every span of one request or point, and the id of its parent span."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        self._next = 0

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        track: str,
        group: Any,
        parent: Optional[int] = None,
        **args: Any,
    ) -> Optional[int]:
        """Record a finished span (``perf_counter`` seconds); returns
        its span id for children to name as parent."""
        if not self.enabled:
            return None
        self._next += 1
        self.records.append({
            "span": self._next,
            "name": name,
            "track": track,
            "group": group,
            "parent": parent,
            "ts_us": (start - self.origin) * 1e6,
            "dur_us": max(0.0, (end - start) * 1e6),
            "args": args,
        })
        return self._next

    def finish(self, span: Optional[int], end: float) -> None:
        """Set the end of a span recorded before it finished."""
        if span is not None:
            record = self.records[span - 1]
            record["dur_us"] = max(
                0.0, (end - self.origin) * 1e6 - record["ts_us"]
            )


def chrome_trace(processes: Dict[str, List[Dict[str, Any]]]) -> Dict:
    """Chrome trace-event object: one viewer process per key of
    ``processes`` (a list of span records each), one thread per track."""
    events: List[Dict[str, Any]] = []
    for pid, (label, records) in enumerate(processes.items()):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": label},
        })
        tracks: Dict[str, int] = {}
        body = []
        for record in sorted(records, key=lambda r: r["ts_us"]):
            tid = tracks.setdefault(record["track"], len(tracks))
            body.append({
                "name": record["name"],
                "cat": "span",
                "ph": "X",
                "ts": record["ts_us"],
                "dur": record["dur_us"],
                "pid": pid,
                "tid": tid,
                "args": dict(
                    record["args"],
                    id=record["group"],
                    span=record["span"],
                    parent=record["parent"],
                ),
            })
        for track, tid in tracks.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": track},
            })
        events.extend(body)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "perfbench", "schema": SCHEMA},
    }


def write_chrome(path: str, processes: Dict[str, List[Dict]]) -> None:
    with open(path, "w") as stream:
        json.dump(chrome_trace(processes), stream)
