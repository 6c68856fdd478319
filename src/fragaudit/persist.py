"""Canonical serialization: byte-stable JSON/JSONL/CSV, the binary files of a
JSON header line and a float64 payload, and config hashing.

Floats render as shortest round-trip text (Python repr), keys are sorted, and
no output contains wall-clock state, so rerunning a command with the same
config reproduces every file byte for byte.
"""

import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

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


def read_payload(path, fmt: str, what: str, keys: dict, words):
    """(header, payload) of a write_payload file, the payload one float64 array
    of words(header) values. The header must be an object whose "format" is fmt
    and which holds each key of keys with a value of that key's type; words
    raises FormatError for a header inconsistent otherwise. Every FormatError
    starts with path; an OSError, such as FileNotFoundError, passes through.
    """
    with open(path, "rb") as fh:
        try:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise FormatError(f"missing {what} header", offset=0)
            try:
                header = json.loads(line)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise FormatError(f"unreadable {what} header: {exc}", offset=0)
            if not isinstance(header, dict) or header.get("format") != fmt:
                raise FormatError(f"not a fragaudit {what}", offset=0)
            for key, kind in keys.items():
                if type(header.get(key)) is not kind:  # a JSON true is no int
                    raise FormatError(f"{what} header needs {key!r} of type "
                                      f"{kind.__name__}", offset=0)
            start, need = len(line), words(header) * 8
            size = os.fstat(fh.fileno()).st_size - start
            if size != need:
                raise FormatError(f"payload length {size} != {need}", offset=start)
            payload = np.empty(need // 8, dtype="<f8")
            if fh.readinto(payload) != need:  # the file shrank while it was read
                raise FormatError(f"payload shorter than {need}", offset=start)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
    return header, payload


def write_payload(path, header: dict, arrays) -> None:
    """Write path as one JSON header line and each array's little-endian float64
    buffer in turn (the checkpoint and dataset cache formats) under a name of
    this process beside path, then rename it over path: an interrupted write,
    or two commands writing at once, never leaves a part-written file at path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for a in arrays:
                fh.write(np.ascontiguousarray(a, dtype="<f8"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
