"""Runtime constants that the underlying method leaves unspecified.

Every constant that is not pinned by a formula lives here, with the default
the acceptance suite is tuned against.  A config file is a sequence of
``key = value`` lines (``#`` comments allowed); unknown keys are rejected so
typos surface early, and so is a value outside the range the drivers can
use (`_RANGES`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class Config:
    # Lopsidedness threshold ("sufficiently large constant"); both case
    # branches always run, so exactness never hinges on it.
    lam: int = 8
    # Epsilon for the balanced-terminal algorithm (replaces the asymptotic
    # n^{-2g(n)}), and its branch switch: use the pair branch when
    # k/eps > |T|/4.  At most 1: a selector needs eps in (0, 1].
    eps_balanced: float = 0.25

    # Clustering: partition-count bound C1 * ceil(log2 n) and intra-cluster
    # distance bound C2 * d * ceil(log2 n).  C2 tracks the worst-case ball
    # radius of the clustering loop, which is why it is large.
    cnc_partition_factor: int = 2
    cnc_distance_factor: int = 160

    # Kernel index: V_low threshold |N(v)| <= clow_mult * delta, cluster size
    # gate |V_i| <= kernel_gate_mult * delta * ceil(log2 n).
    clow_mult: int = 8
    kernel_gate_mult: int = 8

    # Crossing families: declared per-source degree bound is
    # crossing_c * ceil(log2 |B|)^crossing_polylog_exp * max(1, (|B|-r)/l).
    # The composed construction is used only when that bound beats the
    # complete family; at desk scale the complete fallback therefore wins,
    # which the pipelines' unconditional exactness relies on.
    crossing_c: int = 2
    crossing_polylog_exp: int = 2

    # Disperser: base left degree max(d, ceil(log2 n)^disperser_base_exp);
    # exhaustive verification gate on the number of left k-subsets.
    disperser_base_exp: int = 1
    exhaustive_subset_limit: int = 200_000
    sampled_check_trials: int = 2000

    # Expander decomposition: expansion target, separator budget fraction
    # (clamped below at 1 vertex), retry floor.
    expander_phi: float = 0.1
    expander_budget_frac: float = 0.01
    expander_phi_floor: float = 1.0 / 1024

    # Terminal reduction constants, verbatim from the method description.
    tr_xlow_mult: int = 1000
    tr_prune_gate_mult: int = 10
    tr_tsmall_log_exp: int = 2
    tr_prune_log_exp: int = 3
    tr_tbar_div: int = 100

    # Gabow: estimate of the mixing-backend constant used in the expander
    # degree formula (the actual certificate is checked after construction).
    gabow_mixing_c: float = 2.0

    # Brute-force oracle size guards.
    oracle_unweighted_guard: int = 64
    oracle_weighted_guard: int = 24

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT = Config()

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}


# The values a config file may set, as (least, greatest, least excluded).
# Floats must also be finite.  A zero epsilon is a division by zero, and
# one above 1 has no selector (`build_selector`).  A zero or nan phi (or phi
# floor) never ends the expander retry loop, which halves phi until it drops
# below the floor.  Exponents are capped: a large one makes a polylog factor
# a number of millions of digits.
_POSITIVE = (0, None, True)
_UP_TO_ONE = (0, 1, True)
_AT_LEAST_ONE = (1, None, False)
_NON_NEGATIVE = (0, None, False)
_EXPONENT = (0, 16, False)
_RANGES = {
    "lam": _AT_LEAST_ONE,
    "eps_balanced": _UP_TO_ONE,
    "cnc_partition_factor": _AT_LEAST_ONE,
    "cnc_distance_factor": _AT_LEAST_ONE,
    "clow_mult": _AT_LEAST_ONE,
    "kernel_gate_mult": _AT_LEAST_ONE,
    "crossing_c": _AT_LEAST_ONE,
    "crossing_polylog_exp": _EXPONENT,
    "disperser_base_exp": _EXPONENT,
    "exhaustive_subset_limit": _NON_NEGATIVE,
    "sampled_check_trials": _NON_NEGATIVE,
    "expander_phi": _POSITIVE,
    "expander_budget_frac": _NON_NEGATIVE,
    "expander_phi_floor": _POSITIVE,
    "tr_xlow_mult": _AT_LEAST_ONE,
    "tr_prune_gate_mult": _AT_LEAST_ONE,
    "tr_tsmall_log_exp": _EXPONENT,
    "tr_prune_log_exp": _EXPONENT,
    "tr_tbar_div": _AT_LEAST_ONE,
    "gabow_mixing_c": _POSITIVE,
    "oracle_unweighted_guard": _NON_NEGATIVE,
    "oracle_weighted_guard": _NON_NEGATIVE,
}


def _check_range(name: str, value):
    """The reason `value` is out of range for field `name`, or None."""
    least, greatest, excluded = _RANGES[name]
    if isinstance(value, float) and not math.isfinite(value):
        return "must be finite"
    if value < least or (excluded and value == least):
        return f"must be {'>' if excluded else '>='} {least}"
    if greatest is not None and value > greatest:
        return f"must be <= {greatest}"
    return None


def _parse_value(name: str, raw: str):
    return int(raw) if _FIELD_TYPES[name] in ("int", int) else float(raw)


def load_config(path) -> Config:
    """Read a ``key = value`` config file and overlay it on the defaults.

    Raises ConfigError (a ValueError) when the file cannot be read or a
    line is malformed, names an unknown key or holds a bad value: one that
    does not parse as the field's type or lies outside its range."""
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            value = _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        problem = _check_range(key, value)
        if problem is not None:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {problem}")
        overrides[key] = value
    return DEFAULT.replace(**overrides)
