"""Defect scans over (m, delta) grids with deterministic CSV/SVG emission.

Rows are computed one at a time, then sorted by (m, delta) before
rendering.  All cached intermediates are batch-independent pure functions of
their inputs, so the emitted bytes depend neither on the order of the deltas
nor on what the cache already holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commutativity import UCache, defect
from .config import RunConfig
from .svg import polyline_chart

CSV_HEADER = "m,alpha,beta,delta,forward,backward,defect,err_bound,significant"


@dataclass(frozen=True)
class ScanRow:
    m: float
    alpha: float
    beta: float
    delta: float
    forward: float
    backward: float
    defect: float
    err_bound: float
    significant: bool


def fmt17(x: float) -> str:
    """17 significant digits: enough for a bit-exact float64 round-trip."""
    return format(float(x), ".17g")


def cache_from_config(cfg: RunConfig) -> UCache:
    return UCache(series_tol=cfg.tol_series, max_terms=cfg.series_max_terms,
                  quad_tol_rel=cfg.tol_quad_rel,
                  quad_max_levels=cfg.quad_max_levels)


def compute_scan(m_list, alpha, beta, deltas, cfg: RunConfig,
                 cache: UCache | None = None) -> list[ScanRow]:
    if cache is None:
        cache = cache_from_config(cfg)
    rows = []
    for m in map(float, m_list):
        for d in map(float, deltas):
            rep = defect(alpha, beta, m, d, kappa=cfg.defect_kappa, cache=cache)
            rows.append(ScanRow(m, alpha, beta, d, rep.forward.value,
                                rep.backward.value, rep.defect,
                                rep.combined_error, rep.significant))
    rows.sort(key=lambda r: (r.m, r.delta))
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            fmt17(r.m), fmt17(r.alpha), fmt17(r.beta), fmt17(r.delta),
            fmt17(r.forward), fmt17(r.backward), fmt17(r.defect),
            fmt17(r.err_bound), "true" if r.significant else "false"]))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[ScanRow]:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected scan CSV header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 9 or parts[8] not in ("true", "false"):
            raise ValueError(f"malformed scan CSV row: {ln!r}")
        rows.append(ScanRow(*(float(p) for p in parts[:8]),
                            significant=parts[8] == "true"))
    return rows


def rows_to_svg(rows) -> str:
    by_m = {}
    for r in rows:
        by_m.setdefault(r.m, ([], []))
        by_m[r.m][0].append(r.delta)
        by_m[r.m][1].append(r.defect)
    series = [(f"m = {m:g}", xs, ys) for m, (xs, ys) in sorted(by_m.items())]
    return polyline_chart(series, title="commutator defect vs delta",
                          xlabel="delta", ylabel="defect")
