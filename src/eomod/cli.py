"""Command-line driver: spectra, coupling scans, figure presets, verify.

Subcommands
-----------
spectrum    filtered count-rate curve over a grid of filter offsets
gamma-scan  sideband probability at a fixed offset over a coupling grid
figures     preset datasets 1..5 with the reference parameter set baked in
verify      run the invariant suites and report pass/fail per invariant

Configuration precedence is flags > config file > defaults.  The config
file is a JSON document named by the ``EOM_CONFIG`` environment variable,
mirroring the run-config fields::

    {"params": {"s": 3, "omega": 30, "detune": 0.1, "gamma": 2,
                "period_t": true, "m_tilde": 0},
     "filter": {"half_width": 4},
     "scan": {"start": -60, "stop": 60, "step": 0.5},
     "model": "both",
     "output": {"path": "out.csv", "format": "csv"},
     "display_unit": null}

Frequency axes are written in display units of ``Omega/30`` unless
``--absolute`` is given.  Every data file gets a ``*.manifest.json``
sidecar echoing the effective merged configuration.  Exit codes: 0 ok,
1 verification failure, 2 invalid parameters, 3 output I/O failure.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, verify
from .detection import MODELS, FilterSpec, spectral_scan
from .dynamics import central_column_sq
from .su2 import ModulatorParams
from .unrestricted import bessel_j_grid, modulation_index_grid

FLOAT_FMT = "{:.11e}"  # 12 significant digits
DISPLAY_DENOM = 30.0
MAX_GRID_POINTS = 100_000  # the reference grids have 241 points

DEFAULTS = {
    "s": 3.0,
    "omega": 30.0,
    "detune": 0.1,
    "omega_mw": None,
    "gamma": 2.0,
    "t": None,
    "period_t": True,
    "m_tilde": 0.0,
    "filter_hw": 4.0,
    "scan": (-60.0, 60.0, 0.5),
    "gamma_grid": (0.0, 60.0, 0.25),
    "dm": 0,
    "model": "both",
    "out": None,
    "format": "csv",
    "absolute": False,
    "display_unit": None,
}

_EXCLUSIVE = (("detune", "omega_mw"), ("t", "period_t"))


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (0.0 < self.step < math.inf and self.start < self.stop):
            raise ValueError(
                f"grid needs start < stop and a finite step > 0, got "
                f"{self.start}:{self.stop}:{self.step}"
            )
        count = self._count()
        if count > MAX_GRID_POINTS:
            raise ValueError(
                f"grid {self.start}:{self.stop}:{self.step} has {count:.6g} "
                f"points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )

    def _count(self) -> float:
        """Number of grid points, inf when stop - start overflows."""
        span = (self.stop - self.start) / self.step + 1e-9
        return math.floor(span) + 1.0 if math.isfinite(span) else math.inf

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(int(self._count()))


@dataclass(frozen=True)
class RunConfig:
    params: ModulatorParams
    filter: FilterSpec
    scan: GridSpec
    model: str
    out: str | None
    format: str
    display_unit: float
    absolute: bool


def _parse_grid(text) -> GridSpec:
    if isinstance(text, GridSpec):
        return text
    if isinstance(text, (tuple, list)):
        start, stop, step = text
        return GridSpec(float(start), float(stop), float(step))
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step, got {text!r}")
    return GridSpec(*(float(p) for p in parts))


def _load_config_file() -> dict:
    path = os.environ.get("EOM_CONFIG", "").strip()
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config file must be a JSON object, got {type(doc).__name__}")
    for key in ("params", "filter", "output", "scan", "gamma_grid"):
        if not isinstance(doc.get(key, {}), dict):
            raise ValueError(f"config file entry {key!r} must be an object, "
                             f"got {type(doc[key]).__name__}")
    flat = {}
    params = doc.get("params", {})
    for key in ("s", "omega", "omega_mw", "detune", "gamma", "t",
                "period_t", "m_tilde"):
        if key in params:
            flat[key] = params[key]
    if "detune" in params and "omega_mw" in params:
        raise ValueError("config file sets both detune and omega_mw")
    if "t" in params and params.get("period_t"):
        raise ValueError("config file sets both t and period_t")
    if "half_width" in doc.get("filter", {}):
        flat["filter_hw"] = doc["filter"]["half_width"]
    if "scan" in doc:
        sc = doc["scan"]
        flat["scan"] = (sc["start"], sc["stop"], sc["step"])
    if "gamma_grid" in doc:
        gg = doc["gamma_grid"]
        flat["gamma_grid"] = (gg["start"], gg["stop"], gg["step"])
    for key in ("model", "display_unit", "dm", "absolute"):
        if key in doc:
            flat[key] = doc[key]
    output = doc.get("output", {})
    if "path" in output:
        flat["out"] = output["path"]
    if "format" in output:
        flat["format"] = output["format"]
    return flat


def _merge(layers) -> dict:
    merged = dict(DEFAULTS)
    for layer in layers:
        for pair in _EXCLUSIVE:
            if any(layer.get(k) is not None for k in pair):
                for k in pair:
                    merged[k] = None
        for key, value in layer.items():
            if value is not None:
                merged[key] = value
    return merged


def _build_config(merged) -> RunConfig:
    omega = float(merged["omega"])
    if not (omega > 0.0 and math.isfinite(omega)):  # before T = 2 pi / omega
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if merged.get("period_t"):
        t_val = 2.0 * math.pi / omega
    elif merged.get("t") is not None:
        t_val = float(merged["t"])
    else:
        raise ValueError("either t or period_t must be set")
    if merged.get("omega_mw") is not None:
        detune = omega - float(merged["omega_mw"])
    else:
        detune = float(merged["detune"]) if merged.get("detune") is not None else 0.0
    params = ModulatorParams.from_detuning(
        S=float(merged["s"]), Omega=omega, detune=detune,
        gamma=float(merged["gamma"]), T=t_val, m_tilde=float(merged["m_tilde"]))
    model = str(merged["model"])
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    fmt = str(merged["format"])
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    display_unit = merged.get("display_unit")
    display_unit = (omega / DISPLAY_DENOM if display_unit is None
                    else float(display_unit))
    if not display_unit > 0.0:
        raise ValueError(f"display_unit must be positive, got {display_unit}")
    return RunConfig(params=params,
                     filter=FilterSpec(half_width=float(merged["filter_hw"])),
                     scan=_parse_grid(merged["scan"]),
                     model=model,
                     out=merged.get("out"),
                     format=fmt,
                     display_unit=display_unit,
                     absolute=bool(merged["absolute"]))


def _manifest(cfg: RunConfig, command, extra=None) -> dict:
    p = cfg.params
    doc = {
        "command": command,
        "version": __version__,
        "params": {
            "s": p.S,
            "omega": p.Omega,
            "omega_mw": p.OmegaMW,
            "detune": p.omega,
            "gamma": p.gamma,
            "t": p.T,
            "m_tilde": p.m_tilde,
        },
        "filter": {"half_width": cfg.filter.half_width},
        "model": cfg.model,
        "display_unit": cfg.display_unit,
        "absolute": cfg.absolute,
        "format": cfg.format,
    }
    if extra:
        doc.update(extra)
    return doc


def _write_dataset(cfg_out, fmt, header, columns, manifest):
    """Write CSV/JSON plus the manifest sidecar; stdout when no path given."""
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    if fmt == "csv":
        line = ",".join([FLOAT_FMT] * len(header)) + "\n"
        text = ",".join(header) + "\n" + "".join(line.format(*row) for row in rows)
    else:
        data = [{h: float(FLOAT_FMT.format(v)) for h, v in zip(header, row)}
                for row in rows]
        text = json.dumps({"config": manifest, "data": data},
                          sort_keys=True, indent=2) + "\n"
    if cfg_out is None:
        sys.stdout.write(text)
        return
    out_path = Path(cfg_out)
    out_path.write_text(text, encoding="utf-8", newline="\n")
    sidecar = out_path.with_name(out_path.name + ".manifest.json")
    sidecar.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8", newline="\n")


def cmd_spectrum(cfg: RunConfig) -> int:
    offsets_display = cfg.scan.values()
    offsets_abs = offsets_display * cfg.display_unit
    scan = spectral_scan(cfg.params, cfg.filter, offsets_abs, cfg.model)
    axis_name = "omega_f_absolute" if cfg.absolute else "omega_f_display"
    axis = (cfg.params.omega_opt + offsets_abs) if cfg.absolute else offsets_display
    header = [axis_name]
    columns = [axis]
    if cfg.model in ("restricted", "both"):
        header.append("p_rel_restricted")
        columns.append(scan.restricted)
    if cfg.model in ("unrestricted", "both"):
        header.append("p_rel_unrestricted")
        columns.append(scan.unrestricted)
    manifest = _manifest(cfg, "spectrum", {
        "scan": {"start": cfg.scan.start, "stop": cfg.scan.stop,
                 "step": cfg.scan.step},
    })
    _write_dataset(cfg.out, cfg.format, header, columns, manifest)
    return 0


def cmd_gamma_scan(cfg: RunConfig, dm, gamma_grid) -> int:
    dm = int(dm)
    if abs(dm) > cfg.params.S:
        raise ValueError(f"|dm|={abs(dm)} exceeds S={cfg.params.S}")
    gg = _parse_grid(gamma_grid)
    grid = gg.values()
    header = ["gamma"]
    columns = [grid]
    if cfg.model in ("restricted", "both"):
        occ = central_column_sq(cfg.params, grid)
        header.append("p_restricted")
        columns.append(occ[:, occ.shape[1] // 2 + dm])
    if cfg.model in ("unrestricted", "both"):
        p = cfg.params
        header.append("p_unrestricted")
        columns.append(bessel_j_grid(dm, modulation_index_grid(p.omega, grid, p.T)) ** 2)
    manifest = _manifest(cfg, "gamma-scan", {
        "dm": dm,
        "gamma_grid": {"start": gg.start, "stop": gg.stop, "step": gg.step},
    })
    _write_dataset(cfg.out, cfg.format, header, columns, manifest)
    return 0


# figure presets: the reference parameter set with per-figure coupling
_FIGURES = {
    1: {"kind": "spectrum", "gamma": 2.0},
    2: {"kind": "spectrum", "gamma": 10.0},
    3: {"kind": "spectrum", "gamma": 24.25},
    4: {"kind": "gamma-scan", "dm": 0},
    5: {"kind": "gamma-scan", "dm": 2},
}


def cmd_figures(selector, out_dir) -> int:
    selector = int(selector)
    if selector not in _FIGURES:
        raise ValueError(f"figure selector must be 1..5, got {selector}")
    preset = _FIGURES[selector]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged = _merge([])  # the reference parameter set, nothing overridden
    if preset["kind"] == "spectrum":
        merged["gamma"] = preset["gamma"]
    cfg = replace(_build_config(merged), out=str(out_dir / f"fig{selector}.csv"))
    if preset["kind"] == "spectrum":
        return cmd_spectrum(cfg)
    return cmd_gamma_scan(cfg, preset["dm"], DEFAULTS["gamma_grid"])


def cmd_verify(level, checks=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    results = verify.run_checks(level, checks=checks)
    stream.write(verify.format_report(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _numeric_like(value):
    """A '-'-leading value that argparse would take for a flag but is meant
    as a number: '-' then a digit or '.', or a value whose first ':' field
    parses as a float ('-inf', '-nan', '-1e1', '-.5', '-60:60:0.5')."""
    try:
        float(value.split(":")[0])
    except ValueError:
        return value[1:2].isdigit() or value[1:2] == "."
    return True


def _normalize_argv(argv):
    """Join a numeric-looking value that starts with '-' onto the long flag
    before it, so argparse accepts e.g. ``--scan -60:60:0.5``,
    ``--omega-mw -1e1`` and ``--detune -inf`` (it takes none of them for a
    value on its own)."""
    joined = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok.startswith("--") and len(tok) > 2 and "=" not in tok
                and i + 1 < len(argv) and argv[i + 1].startswith("-")
                and _numeric_like(argv[i + 1])):
            joined.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            joined.append(tok)
            i += 1
    return joined


def _add_common_flags(sub):
    sub.add_argument("--s", type=float, default=None, help="spin S (2S+1 modes)")
    sub.add_argument("--omega", type=float, default=None, help="mode spacing Omega")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--omega-mw", type=float, default=None,
                       help="microwave frequency")
    group.add_argument("--detune", type=float, default=None,
                       help="detuning omega = Omega - Omega_MW")
    sub.add_argument("--gamma", type=float, default=None, help="coupling gamma")
    tgroup = sub.add_mutually_exclusive_group()
    tgroup.add_argument("--t", type=float, default=None, help="interaction time T")
    tgroup.add_argument("--period-t", action="store_true", default=None,
                        help="set T = 2*pi/Omega")
    sub.add_argument("--m-tilde", type=float, default=None,
                     help="central mode index (display only)")
    sub.add_argument("--filter-hw", type=float, default=None,
                     help="Gaussian filter half-width at 1/e")
    sub.add_argument("--model", choices=MODELS, default=None)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--absolute", action="store_true", default=None,
                     help="emit absolute frequencies instead of display units")
    sub.add_argument("--display-unit", type=float, default=None,
                     help="frequency per display unit (default Omega/30)")


@functools.cache  # built on the first main() call and reused; parsing keeps no state
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eomod",
        description="Electro-optic modulator spectra: finite-mode su(2) model "
                    "vs the classical Bessel model.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="filter-frequency scan of p_rel")
    _add_common_flags(sp)
    sp.add_argument("--scan", default=None,
                    help="filter offsets start:stop:step in display units")

    gs = subs.add_parser("gamma-scan", help="coupling scan of one sideband")
    _add_common_flags(gs)
    gs.add_argument("--dm", type=int, default=None, help="sideband offset")
    gs.add_argument("--gamma-grid", default=None,
                    help="coupling grid start:stop:step")

    fg = subs.add_parser("figures", help="write preset dataset 1..5")
    fg.add_argument("selector", type=int, choices=range(1, 6))
    fg.add_argument("--out-dir", default=".", help="output directory")

    vf = subs.add_parser("verify", help="run invariant suites")
    vf.add_argument("level", choices=("quick", "full"))
    return parser


def _cli_layer(args) -> dict:
    keys = ("s", "omega", "omega_mw", "detune", "gamma", "t", "period_t",
            "m_tilde", "filter_hw", "scan", "gamma_grid", "dm", "model",
            "out", "format", "absolute", "display_unit")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return cmd_verify(args.level)
        if args.command == "figures":
            return cmd_figures(args.selector, args.out_dir)
        merged = _merge([_load_config_file(), _cli_layer(args)])
        cfg = _build_config(merged)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        return cmd_gamma_scan(cfg, merged["dm"], merged["gamma_grid"])
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"eomod: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"eomod: output failure: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
