"""Correctness checks on the program's outputs, run outside the timed region.

Two checks, both against properties a correct program must have:

* every field the call wrote satisfies the total-measure sum rules
  (tPDC columns and tDTF rows sum to 1) to ``SUM_RULE_TOL``;
* the call's outputs match the values recorded in ``expected.json`` for
  its inputs (mean tPDC MSE per method from ``summary.json``, and a
  fingerprint of every written field) to a relative ``RTOL``.

``RTOL`` is far above the deviation that reordering floating-point sums
causes (measured: at most 1.0e-15 relative from the BLAS thread count,
8e-14 from reversing the lag sum in the AR recursion) and far below what
a change to an estimator causes (4e-3 from a long-AR order of 49 instead
of 50), so a reordering passes and a different estimate does not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from spectralgc.connectivity import load_field_csv

SUM_RULE_TOL = 1e-12
RTOL = 1e-9

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def field_file(out_dir, entry: str) -> Path:
    return Path(out_dir) / ("fields.csv" if entry == "analyze_panel" else "fields_r0.csv")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["inputs"]


def _close(got, want) -> bool:
    return abs(got - want) <= RTOL * abs(want)


def check_mse(summary: dict, expected_mse: dict) -> list:
    """Mismatches between a Monte Carlo summary's mean MSEs and the recorded ones."""
    got = summary.get("mse", {})
    return [
        f"{method} MSE {got.get(method)!r} != recorded {want!r}"
        for method, want in expected_mse.items()
        if method not in got or not _close(got[method], want)
    ]


def inspect_fields(path) -> tuple:
    """Reload a field file; returns (worst sum-rule residual, fingerprint per field).

    The fingerprint of a field is the mean squared magnitude of its values.
    """
    residual, fingerprints = 0.0, {}
    for f in load_field_csv(path):
        axis = {"tPDC": 1, "tDTF": 2}.get(f.kind)
        if axis is not None:
            residual = max(residual, float(np.max(np.abs(f.values.sum(axis=axis) - 1.0))))
        fingerprints[f"{f.kind}/{f.method_tag}"] = float(np.mean(np.abs(f.values) ** 2))
    return residual, fingerprints


def check_fields(path, expected_fingerprints: dict) -> list:
    """Sum-rule violations and fingerprint mismatches of one written field file."""
    residual, fingerprints = inspect_fields(path)
    problems = []
    if not residual <= SUM_RULE_TOL:
        problems.append(f"sum-rule residual {residual:.3e} exceeds {SUM_RULE_TOL:g}")
    if set(fingerprints) != set(expected_fingerprints):
        problems.append(f"fields {sorted(fingerprints)} != recorded {sorted(expected_fingerprints)}")
    problems += [
        f"field {key} fingerprint {fingerprints[key]!r} != recorded {want!r}"
        for key, want in expected_fingerprints.items()
        if key in fingerprints and not _close(fingerprints[key], want)
    ]
    return problems
