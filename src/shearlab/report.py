"""
Deterministic report emission: one CSV per norm series plus a JSON summary.

CSV is RFC-4180 with '.' decimals and 17 significant digits; JSON keys are
sorted, floats use shortest round-trip repr, and a non-finite float is
written as null, so the summary is strict JSON.  Identical configs must
produce byte-identical files, so nothing time- or host-dependent is
written.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SCHEMA = "shearlab-report-v1"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str | Path, times, values, value_name: str = "value") -> None:
    path = Path(path)
    lines = [f"t,{value_name}"]
    for t, v in zip(np.asarray(times, float), np.asarray(values, float)):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()
                if not str(k).startswith("_")}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):        # bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def write_summary(path: str | Path, summary: dict) -> None:
    payload = {"schema": SCHEMA}
    payload.update(_jsonify(summary))
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def emit_report(out_dir: str | Path, norm_series: dict, summary: dict) -> list[str]:
    """
    Write ``<name>.csv`` for every entry of ``norm_series`` (mapping name ->
    (times, values)) and ``summary.json``; returns the file names written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(norm_series):
        times, values = norm_series[name]
        write_csv(out / f"{name}.csv", times, values)
        written.append(f"{name}.csv")
    write_summary(out / "summary.json", summary)
    written.append("summary.json")
    return written
