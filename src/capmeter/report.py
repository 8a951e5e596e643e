"""Run manifests, key-value reports, and minimal SVG line charts.

Every artifact the command-line tools write embeds (or, for charts,
references) a manifest describing the invocation: the command line, the
resolved configuration, seeds, library versions, input digests, and a
timestamp.  The timestamp sits on its own line so reruns differ in exactly
that line and nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import math
from datetime import datetime, timezone

import numpy as np

from . import __version__

TIMESTAMP_FIELD = "timestamp"


def module_versions() -> str:
    """Space-separated name=version pairs for the numeric stack."""
    import scipy

    return (f"capmeter={__version__} numpy={np.__version__} "
            f"scipy={scipy.__version__}")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(command, config: dict, master_seed, inputs=()) -> dict:
    """Assemble the run manifest as an ordered mapping of strings."""
    digests = " ".join(f"{name}=sha256:{sha256_file(name)}" for name in inputs)
    return {
        "command": " ".join(str(c) for c in command),
        "config": " ".join(f"{k}={config[k]}" for k in sorted(config)),
        "master_seed": str(master_seed),
        "versions": module_versions(),
        "inputs": digests if digests else "(none)",
        TIMESTAMP_FIELD: datetime.now(timezone.utc).isoformat(),
    }


def manifest_lines(manifest: dict) -> list:
    """Manifest rendered one field per line, timestamp last."""
    keys = [k for k in manifest if k != TIMESTAMP_FIELD] + [TIMESTAMP_FIELD]
    return [f"manifest: {k} = {manifest[k]}" for k in keys]


def format_number(value) -> str:
    """Full-precision, locale-independent rendering for report values."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_text_report(path, fields, manifest: dict) -> None:
    """Key-value lines in a stable order, preceded by manifest comments."""
    lines = [f"# {line}" for line in manifest_lines(manifest)]
    for key, value in fields:
        lines.append(f"{key} {format_number(value)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def write_json_report(path, payload: dict, manifest: dict) -> None:
    body = {"manifest": dict(manifest)}
    body.update(_jsonable(payload))
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# minimal SVG line charts
# ---------------------------------------------------------------------------
# Hand-written vector output: one or two stacked panels, log-scaled sample
# size on the x axis.  The drawing is a pure function of the series passed
# in -- no timestamps, no environment lookups -- so identical reports
# produce identical charts.

_PANEL_W, _PANEL_H = 560, 300
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 36, 46


def _decades(lo: float, hi: float):
    start = math.floor(math.log10(lo))
    stop = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(start, stop + 1)
            if lo <= 10.0 ** e <= hi]


def _panel_svg(origin_y: float, title: str, series, points=None,
               errorbars=None) -> list:
    """One panel: ``series`` are (xs, ys, color) polylines on a log-x grid."""
    xs_all = np.concatenate([np.asarray(s[0], dtype=np.float64) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    if errorbars is not None:
        ys_all = np.concatenate([ys_all,
                                 np.asarray(errorbars[1]) - np.asarray(errorbars[2]),
                                 np.asarray(errorbars[1]) + np.asarray(errorbars[2])])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo * 10.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    lx_lo, lx_hi = math.log10(x_lo), math.log10(x_hi)

    def px(x):
        return _MARGIN_L + (math.log10(x) - lx_lo) / (lx_hi - lx_lo) * _PANEL_W

    def py(y):
        return origin_y + _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * _PANEL_H

    top, bottom = origin_y + _MARGIN_T, origin_y + _MARGIN_T + _PANEL_H
    right = _MARGIN_L + _PANEL_W
    out = [f'<text x="{_MARGIN_L}" y="{origin_y + 24:.1f}" font-size="14">{title}</text>',
           f'<rect x="{_MARGIN_L}" y="{top:.1f}" width="{_PANEL_W}" '
           f'height="{_PANEL_H}" fill="none" stroke="black"/>']
    for tick in _decades(x_lo, x_hi):
        tx = px(tick)
        out.append(f'<line x1="{tx:.2f}" y1="{bottom:.1f}" x2="{tx:.2f}" '
                   f'y2="{bottom + 5:.1f}" stroke="black"/>')
        out.append(f'<text x="{tx:.2f}" y="{bottom + 20:.1f}" font-size="11" '
                   f'text-anchor="middle">1e{int(round(math.log10(tick)))}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        ty = py(y)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{ty:.2f}" x2="{_MARGIN_L}" '
                   f'y2="{ty:.2f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{ty + 4:.2f}" font-size="11" '
                   f'text-anchor="end">{y:.4g}</text>')
    out.append(f'<text x="{(_MARGIN_L + right) / 2:.1f}" y="{bottom + 38:.1f}" '
               f'font-size="12" text-anchor="middle">sample size N (log)</text>')
    for xs, ys, color in series:
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
    if errorbars is not None:
        exs, eys, eses = errorbars
        for x, y, se in zip(exs, eys, eses):
            out.append(f'<line x1="{px(x):.2f}" y1="{py(y - se):.2f}" '
                       f'x2="{px(x):.2f}" y2="{py(y + se):.2f}" stroke="black"/>')
    if points is not None:
        pxs, pys = points
        for x, y in zip(pxs, pys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                       f'fill="black"/>')
    return out


def write_curve_chart(path, reference: str, energy_panel, capacity_panel=None) -> None:
    """Two-panel chart: average energy on top, capacity underneath.

    ``energy_panel`` is (n, u, stderr, fitted_n, fitted_u) with the fitted
    pair optional (None to skip); ``capacity_panel`` is (n, capacity) or
    None.  ``reference`` names the report the chart belongs to.
    """
    n, u, se, fit_n, fit_u = energy_panel
    panels = 1 if capacity_panel is None else 2
    height = panels * (_PANEL_H + _MARGIN_T + _MARGIN_B)
    width = _MARGIN_L + _PANEL_W + _MARGIN_R
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<!-- manifest: see {reference} -->',
            f'<rect width="{width}" height="{height}" fill="white"/>']
    series = [(n, u, "black")]
    if fit_n is not None:
        series.append((fit_n, fit_u, "#1f77b4"))
    body.extend(_panel_svg(0, "average energy vs N", series,
                           points=(n, u), errorbars=(n, u, se)))
    if capacity_panel is not None:
        cap_n, cap_c = capacity_panel
        body.extend(_panel_svg(_PANEL_H + _MARGIN_T + _MARGIN_B,
                               "capacity vs N", [(cap_n, cap_c, "#d62728")],
                               points=(cap_n, cap_c)))
    body.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")
