"""Shared JSON layout for matrices, CSV text and deterministic float formatting.

Matrix object: {"n": int, "re": [[float...]], "im": [[float...]]}.  Writers
emit exactly symmetrized entries for Hermitian payloads; "im" may be omitted
for real matrices on input.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .hermitian import as_array, hermitian_part


def matrix_to_json(m) -> dict:
    arr = as_array(m)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return {"n": int(arr.shape[0]),
            "re": arr.real.tolist(),
            "im": arr.imag.tolist()}


def matrix_from_json(obj, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError(f"field '{field}' must be an object, got {type(obj).__name__}")
    for key in ("n", "re"):
        if key not in obj:
            raise ValueError(f"field '{field}' missing key '{key}'")
    n = obj["n"]
    re = np.asarray(obj["re"], dtype=np.float64)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=np.float64)
    if re.shape != (n, n) or im.shape != (n, n):
        raise ValueError(f"field '{field}': 're'/'im' must be {n}x{n} arrays")
    return re + 1j * im


def hermitian_from_json(obj, field: str = "matrix") -> np.ndarray:
    arr = matrix_from_json(obj, field)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"field '{field}' has non-finite entries (NaN or inf)")
    asym = np.max(np.abs(arr - arr.conj().T)) if arr.size else 0.0
    if asym > 1e-9 * max(1.0, float(np.max(np.abs(arr))) if arr.size else 1.0):
        raise ValueError(f"field '{field}' is not Hermitian (asymmetry {asym:.3e})")
    return hermitian_part(arr)


def fmt_float(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def csv_text(header, rows) -> str:
    """CSV text with bare newline line ends: the header row, then each row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def dump_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
