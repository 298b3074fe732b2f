"""File formats: JSON for structured objects, CSV with a JSON sidecar.

Matrices are stored row-major with interleaved real/imaginary parts and
an explicit shape header, so any language can reassemble them without
guessing conventions.  JSON is always written with sorted keys; the only
nondeterministic field anywhere is the generated_at timestamp in sidecar
metadata.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ensemble import OneRdm
from .errors import ConfigError
from .functional import InversionReport, TracelessPotential
from .verify import TheoremReport

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
    return (data[0::2] + 1j * data[1::2]).reshape(shape)


def rdm_to_json(gamma: OneRdm) -> dict:
    return {"nb": gamma.nb, "matrix": matrix_to_json(gamma.matrix)}


def rdm_from_json(obj) -> OneRdm:
    inner = obj.get("matrix", obj) if isinstance(obj, dict) else obj
    return OneRdm(matrix_from_json(inner))


def potential_to_json(v: TracelessPotential) -> dict:
    return {"nb": v.nb, "matrix": matrix_to_json(v.matrix)}


def inversion_report_to_json(report: InversionReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "classification": report.classification.value,
        "f_value": float(report.f_value),
        "residual": float(report.residual),
        "iterations": int(report.iterations),
        "v_star": potential_to_json(report.v_star),
        "gradient": potential_to_json(report.gradient),
        "trace": [
            {
                "iteration": r.iteration,
                "g_value": float(r.g_value),
                "residual": float(r.residual),
                "step_norm": float(r.step_norm),
            }
            for r in report.trace
        ],
    }


def theorem_report_to_json(report: TheoremReport) -> dict:
    return {
        "theorem_id": report.theorem_id,
        "trials": report.trials,
        "failures": report.failures,
        "worst_margin": None if report.worst_margin is None else float(report.worst_margin),
        "config": report.config,
        "details": list(report.details),
        "notes": report.notes,
        "passed": report.passed,
    }


def suite_report_json(reports, config_obj) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "config": config_obj,
        "config_hash": config_hash(config_obj),
        "failures": int(sum(r.failures for r in reports)),
        "reports": [theorem_report_to_json(r) for r in reports],
    }


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def dump_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n")
    return path


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}") from exc


def write_csv(path, header, rows, metadata=None) -> Path:
    """Write a CSV table plus a .meta.json sidecar next to it."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(x) for x in row])
    sidecar = {
        "format_version": FORMAT_VERSION,
        "columns": list(header),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    sidecar.update(_plain(metadata or {}))
    path.with_suffix(".meta.json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return path


def _csv_cell(x):
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    return x
