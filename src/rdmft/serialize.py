"""File formats: JSON for structured objects, CSV with a JSON sidecar.

Matrices are stored row-major with interleaved real/imaginary parts and
an explicit shape header, so any language can reassemble them without
guessing conventions.  JSON is strict (no NaN or infinity) with sorted
keys; the only nondeterministic field anywhere is the generated_at
timestamp in sidecar metadata.  Every file is streamed through
_atomic_open, so it is written whole or not at all, and its text is
never held in memory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .ensemble import OneRdm
from .errors import ConfigError, RdmftError
from .functional import InversionReport, TracelessPotential
from .verify import TheoremReport, suite_failures

FORMAT_VERSION = 1


def matrix_to_json(matrix) -> dict:
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    data = np.empty(2 * m.size)
    data[0::2] = m.real.ravel()
    data[1::2] = m.imag.ravel()
    return {"shape": [int(s) for s in m.shape], "data": [float(x) for x in data]}


def matrix_from_json(obj) -> np.ndarray:
    try:
        shape = tuple(int(s) for s in obj["shape"])
        data = np.asarray(obj["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed matrix object: {exc}") from exc
    if data.size != 2 * int(np.prod(shape)):
        raise ConfigError(f"matrix data length {data.size} does not match shape {shape}")
    if not np.isfinite(data).all():
        raise ConfigError("matrix data must be finite")
    return (data[0::2] + 1j * data[1::2]).reshape(shape)


def rdm_to_json(gamma: OneRdm) -> dict:
    return {"nb": gamma.nb, "matrix": matrix_to_json(gamma.matrix)}


def rdm_from_json(obj) -> OneRdm:
    inner = obj.get("matrix", obj) if isinstance(obj, dict) else obj
    return OneRdm(matrix_from_json(inner))


def potential_to_json(v: TracelessPotential) -> dict:
    return {"nb": v.nb, "matrix": matrix_to_json(v.matrix)}


def _field_values(record) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record)}


def inversion_report_to_json(report: InversionReport) -> dict:
    return {
        **_field_values(report),
        "v_star": potential_to_json(report.v_star),
        "gradient": potential_to_json(report.gradient),
        "trace": [asdict(r) for r in report.trace],
    }


def theorem_report_to_json(report: TheoremReport) -> dict:
    return {**_field_values(report), "passed": report.passed}


def suite_report_json(reports, config_obj) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "config": config_obj,
        "config_hash": config_hash(config_obj),
        "failures": suite_failures(reports),
        "reports": [theorem_report_to_json(r) for r in reports],
    }


def _plain(obj):
    """json's default hook: numpy scalars and arrays as the Python values
    and lists they hold, and enum members as their values."""
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_plain)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@contextmanager
def _atomic_open(path: Path, newline=None):
    """A text file that replaces path once the block exits without an exception,
    and is removed on one; made with the umask's permissions, not mkstemp's 0600."""
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = tmp.open("x", newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def dump_json(path, obj) -> Path:
    path = Path(path)
    with _atomic_open(path) as fh:
        try:
            json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False, default=_plain)
        except ValueError as exc:  # a NaN or an infinity, or a circular reference
            raise RdmftError(f"cannot write {path}: {exc}") from exc
        fh.write("\n")
    return path


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def write_csv(path, header, rows, metadata=None) -> Path:
    """Write a CSV table plus a .meta.json sidecar next to it."""
    path = Path(path)
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(x) for x in row])
    sidecar = {
        "format_version": FORMAT_VERSION,
        "columns": list(header),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    sidecar.update(metadata or {})
    dump_json(path.with_suffix(".meta.json"), sidecar)
    return path


def _csv_cell(x):
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    return x
