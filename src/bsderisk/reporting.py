"""Deterministic report payloads for scenario runs.

A report is a flat list of rows (scenario_id, quantity, value, std_error,
check, pass). Payload files are byte-identical across reruns of the same
scenario: floats are serialized with 17 significant digits (full round-trip
precision), field order is fixed, and anything nondeterministic (wall clock,
config echo) lives in a sidecar provenance file that is not part of the
payload contract.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigParseError

__all__ = ["Row", "RunReport", "emit_report", "read_report"]

# a scenario id names the report's files, so it holds no path separator
SCENARIO_ID = re.compile(r"[A-Za-z0-9_.-]+")
CSV_HEADER = ("scenario_id", "quantity", "value", "std_error", "check", "pass")
FORMATS = ("csv", "json-lines")


@dataclass(frozen=True)
class Row:
    scenario_id: str
    quantity: str
    value: float | None
    std_error: float | None = None
    check: str = ""
    passed: bool | None = None


@dataclass
class RunReport:
    scenario_id: str
    rows: list[Row]
    provenance: dict = field(default_factory=dict)

    @property
    def checks_total(self) -> int:
        return sum(1 for r in self.rows if r.passed is not None)

    @property
    def checks_passed(self) -> int:
        return sum(1 for r in self.rows if r.passed)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows if r.passed is not None)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _fmt_bool(value: bool | None) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def _csv_payload(rows: list[Row]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow(
            [r.scenario_id, r.quantity, _fmt(r.value), _fmt(r.std_error),
             r.check, _fmt_bool(r.passed)]
        )
    return buf.getvalue()


def _json_number(value: float | None) -> str:
    """_fmt's text, non-finite values spelled as json.dumps writes them."""
    text = _fmt(value) or "null"
    return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)


def _jsonl_payload(rows: list[Row]) -> str:
    lines = []
    for r in rows:
        fields = [
            f'"scenario_id": {json.dumps(r.scenario_id)}',
            f'"quantity": {json.dumps(r.quantity)}',
            f'"value": {_json_number(r.value)}',
            f'"std_error": {_json_number(r.std_error)}',
            f'"check": {json.dumps(r.check)}',
            f'"pass": {_fmt_bool(r.passed) or "null"}',
        ]
        lines.append("{" + ", ".join(fields) + "}")
    return "\n".join(lines) + ("\n" if lines else "")


def emit_report(report: RunReport, fmt: str, out_dir) -> tuple[Path, Path]:
    """Write the payload and its provenance sidecar, named after the report's
    scenario id; returns both paths. An id that does not match SCENARIO_ID
    raises ValueError before anything is written."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if not SCENARIO_ID.fullmatch(report.scenario_id):
        raise ValueError(f"scenario_id {report.scenario_id!r} cannot name a file: "
                         f"it must match {SCENARIO_ID.pattern}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    suffix = "csv" if fmt == "csv" else "jsonl"
    payload_path = out / f"{report.scenario_id}.{suffix}"
    payload = _csv_payload(report.rows) if fmt == "csv" else _jsonl_payload(report.rows)
    payload_path.write_bytes(payload.encode("utf-8"))

    sidecar_path = out / f"{report.scenario_id}.provenance.json"
    sidecar_path.write_text(
        json.dumps(report.provenance, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload_path, sidecar_path


def _parse_value(text):
    if text in ("", "null", None):
        return None
    if isinstance(text, bool):
        raise ValueError(f"{text!r} is not a number")
    return float(text)


def _parse_bool(text):
    if text in ("", "null", None):
        return None
    if text is True or text == "true":
        return True
    if text is False or text == "false":
        return False
    raise ValueError(f"pass flag {text!r} is not true, false or empty")


def _row(rec, where: str) -> Row:
    """One payload record as a Row. A record that lacks a field, whose value
    or std_error is neither a number nor empty/null, or whose pass flag is
    not true, false or empty/null raises ConfigParseError naming ``where``."""
    try:
        text = [rec[key] for key in ("scenario_id", "quantity", "check")]
        if not all(isinstance(t, str) for t in text):
            raise ValueError("scenario_id, quantity and check must be text")
        return Row(text[0], text[1], _parse_value(rec["value"]),
                   _parse_value(rec["std_error"]), text[2], _parse_bool(rec["pass"]))
    except KeyError as exc:
        raise ConfigParseError(f"{where}: row lacks the field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigParseError(f"{where}: bad row: {exc}") from exc


def read_report(path) -> RunReport:
    """Load a payload file (either format) back into rows; a malformed row
    raises ConfigParseError naming the file and its line."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read report {p}: {exc}") from exc
    rows: list[Row] = []
    if p.suffix == ".csv":
        reader = csv.DictReader(io.StringIO(text))
        if reader.fieldnames != list(CSV_HEADER):
            raise ConfigParseError(f"{p} is not a report payload (header mismatch)")
        for rec in reader:
            # DictReader files a missing field as None and extra ones under None
            if None in rec or None in rec.values():
                raise ConfigParseError(f"{p}:{reader.line_num}: row does not have "
                                       f"the {len(CSV_HEADER)} fields of the header")
            rows.append(_row(rec, f"{p}:{reader.line_num}"))
    else:
        for line_no, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                # numbers are floats; "-0" must read back as -0.0, not the integer 0
                rec = json.loads(line, parse_int=float)
            except json.JSONDecodeError as exc:
                raise ConfigParseError(f"{p}:{line_no}: invalid json line: {exc}") from exc
            rows.append(_row(rec, f"{p}:{line_no}"))
    scenario_id = rows[0].scenario_id if rows else "empty"
    return RunReport(scenario_id=scenario_id, rows=rows)
