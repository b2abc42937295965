"""Embedded reference coefficient matrices.

Each preset is a ``nimatrix/1`` payload shipped as package data: its
blocks stay lists of rows, which ``presets export`` writes as they are
(``save`` writes ``nimatrix/2``).  All but ``ddpm-18`` are single-terminal:
they store no noise block and load with the one-column ``c1`` block.  A
preset has a few extra metadata keys:

- ``printed_row_sums`` / ``printed_row_norms``: the per-row check
  columns published alongside the matrix (3-decimal precision).
- ``marginal_targets``: per-row marginal signal coefficients for
  presets printed in unit-diagonal scaling; feed to
  :func:`nimatrix.coeffmatrix.normalize_rows` before executing.
- ``scale_convention``: set when entries are printed at a scale other
  than their runnable values (e.g. ``x100-normalize-rows``).

Entries carry the precision they were published with, so traced
matrices agree with presets only to that precision.
"""

from __future__ import annotations

import json
from importlib import resources

from .coeffmatrix import CoefficientMatrix, from_payload
from .errors import ParameterError

PRESET_NAMES = (
    "ddpm-18", "ddim-18", "flow-euler-18", "deis3-18",
    "dpm-solver-2s-18", "dpm-solver-3s-18", "dpmpp-2s-18", "dpmpp-3s-18",
    "sd3-euler-28", "sd3-euler-28-sharp",
    "opt-5", "opt-10", "opt-15",
)


def list_presets() -> tuple:
    return PRESET_NAMES


def preset_payload(name: str) -> dict:
    """The raw preset dictionary, including metadata keys."""
    if name not in PRESET_NAMES:
        raise ParameterError(f"unknown preset {name!r}; "
                             f"available: {', '.join(PRESET_NAMES)}")
    ref = resources.files(__package__) / "data" / f"{name}.json"
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_preset(name: str) -> CoefficientMatrix:
    """The preset as a validated coefficient matrix (as printed)."""
    return from_payload(preset_payload(name))


def preset_description(name: str) -> str:
    return preset_payload(name).get("description", "")
