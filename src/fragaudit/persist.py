"""Canonical serialization: byte-stable JSON/JSONL/CSV and config hashing.

Floats render as shortest round-trip text (Python repr), keys are sorted, and
no output contains wall-clock state, so rerunning a command with the same
config reproduces every file byte for byte.
"""

import hashlib
import json
import math
import sys

from .errors import FormatError

TOOL_VERSION = "0.1.0"


def canonical_json(obj, indent=None) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent,
                      separators=(",", ": ") if indent else (",", ":"),
                      allow_nan=False)


def json_ready(obj):
    """obj with numpy scalars as Python values and non-finite floats as None.

    canonical_json refuses NaN and infinities (allow_nan=False).
    """
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if hasattr(obj, "item"):  # numpy scalar
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def stamp(obj: dict, cfg_hash: str) -> dict:
    out = dict(obj)
    out["config_hash"] = cfg_hash
    out["tool_version"] = TOOL_VERSION
    return out


def write_json(path, obj: dict, cfg_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(stamp(obj, cfg_hash), indent=2) + "\n")


def write_jsonl(path, dicts, cfg_hash: str) -> None:
    with open(path, "w") as fh:
        for d in dicts:
            fh.write(canonical_json(stamp(d, cfg_hash)) + "\n")


def read_jsonl(path, convert=None):
    """The value of each non-blank line of path, passed through convert if given.

    Every line is parsed before any is converted. A line that is not JSON, or
    whose value convert rejects with a FormatError, raises a FormatError
    naming the file and the line.
    """
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            try:
                if line.strip():
                    rows.append((number, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path} line {number}: {exc}")
    out = []
    for number, value in rows:
        try:
            out.append(value if convert is None else convert(value))
        except FormatError as exc:
            raise FormatError(f"{path} line {number}: {exc}")
    return out


def read_header(blob: bytes, fmt: str, what: str, keys: dict):
    """(header, payload offset) of a file made of one JSON header line and a
    binary payload: the checkpoint and dataset cache formats.

    The header must be an object whose "format" is fmt and which holds each
    key of keys with a value of that key's type; otherwise FormatError.
    """
    nl = blob.find(b"\n")
    if nl < 0:
        raise FormatError(f"missing {what} header", offset=0)
    try:
        header = json.loads(blob[:nl])
    except ValueError as exc:  # not JSON, or not UTF-8
        raise FormatError(f"unreadable {what} header: {exc}", offset=0)
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise FormatError(f"not a fragaudit {what}", offset=0)
    for key, kind in keys.items():
        if type(header.get(key)) is not kind:  # a JSON true is no int
            raise FormatError(f"{what} header needs {key!r} of type {kind.__name__}",
                              offset=0)
    return header, nl + 1


def fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_text(path, body: str, cfg_hash: str) -> None:
    """body under a comment line carrying the config hash and tool version."""
    with open(path, "w") as fh:
        fh.write(f"# config_hash={cfg_hash} tool_version={TOOL_VERSION}\n")
        fh.write(body)


def write_csv(path, header, rows, cfg_hash: str) -> None:
    """CSV under write_text's comment line."""
    write_text(path, "".join(",".join(fmt_cell(v) for v in row) + "\n"
                             for row in [header, *rows]), cfg_hash)


def trace_csv_rows(trace):
    names = sorted(trace.measures)
    header = ["epoch", "train_acc", "train_ce", "test_error"] + names
    rows = []
    for k, epoch in enumerate(trace.epochs):
        row = [epoch, trace.train_acc[k], trace.train_ce[k], trace.test_error[k]]
        row += [trace.measures[m][k] for m in names]
        rows.append(row)
    return header, rows


def error_exit(exc, code: int = 1) -> int:
    payload = exc.payload() if hasattr(exc, "payload") else {
        "error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(canonical_json(payload) + "\n")
    return code
