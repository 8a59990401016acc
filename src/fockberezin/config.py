"""Run configuration and the flat key = value config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .commutativity import DEFAULT_KAPPA
from .quadrature import DEFAULT_MAX_LEVELS, DEFAULT_QUAD_TOL_REL, _FIRST_LEVEL
from .special import DEFAULT_MAX_TERMS, DEFAULT_SERIES_TOL


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    tol_series: float = DEFAULT_SERIES_TOL
    tol_quad_rel: float = DEFAULT_QUAD_TOL_REL
    series_max_terms: int = DEFAULT_MAX_TERMS
    quad_max_levels: int = DEFAULT_MAX_LEVELS
    defect_kappa: float = DEFAULT_KAPPA

    def validate(self):
        for name in ("tol_series", "tol_quad_rel", "defect_kappa"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be finite and > 0")
        # the exp-sinh stop rule first reads at the level after the first,
        # whose odd nodes share the first level's call of g
        for name, least in (("series_max_terms", 1),
                            ("quad_max_levels", _FIRST_LEVEL + 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{_FIELD_TO_KEY[name]} must be >= {least}")
        return self


# config file keys are dotted; CLI flags use the same names with dashes
KEY_TO_FIELD = {
    "tol.series": "tol_series",
    "tol.quad.rel": "tol_quad_rel",
    "series.max_terms": "series_max_terms",
    "quad.max_levels": "quad_max_levels",
    "defect.kappa": "defect_kappa",
}
_FIELD_TO_KEY = {v: k for k, v in KEY_TO_FIELD.items()}
_INT_FIELDS = {"series_max_terms", "quad_max_levels"}


def parse_config_file(path) -> dict:
    """Parse `key = value` lines with # comments into field overrides."""
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        field = KEY_TO_FIELD.get(key)
        if field is None:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if field in _INT_FIELDS:
                overrides[field] = int(value)
            else:
                overrides[field] = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return overrides


def build_config(file_path=None, cli_overrides=None) -> RunConfig:
    """File values first, CLI flags on top, then validate."""
    values = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
    if cli_overrides:
        for field, value in cli_overrides.items():
            if value is not None:
                values[field] = value
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return RunConfig(**values).validate()
