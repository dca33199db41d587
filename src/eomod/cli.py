"""Command-line driver: spectra, coupling scans, figure presets, verify.

Subcommands
-----------
spectrum    filtered count-rate curve over a grid of filter offsets
gamma-scan  sideband probability at a fixed offset over a coupling grid
figures     preset datasets 1..5 with the reference parameter set baked in
verify      run the invariant suites and report pass/fail per invariant

Configuration precedence is flags > config file > defaults.  The config
file is a JSON document named by the ``EOM_CONFIG`` environment variable.
Its entries are the ``path`` column of ``_INPUTS``; beside those below are
``absolute``, ``dm`` and ``gamma_grid`` (start, stop, step)::

    {"params": {"s": 3, "omega": 30, "detune": 0.1, "gamma": 2,
                "period_t": true, "m_tilde": 0},
     "filter": {"half_width": 4},
     "scan": {"start": -60, "stop": 60, "step": 0.5},
     "model": "both",
     "output": {"path": "out.csv", "format": "csv"},
     "display_unit": null}

Any other key, or a value of the wrong kind, exits 2 with the entry named.
``null``, or ``false`` for a switch (``period_t``, ``absolute``), leaves an
entry unset, as a switch left off on the command line does: so
``{"params": {"period_t": false}}`` runs at the default T = 2 pi / Omega.  A
section or a grid must be an object.  A file that sets both ``detune`` and
``omega_mw``, or both ``t`` and ``period_t``, exits 2.  Both grids are
type-checked, but each command range-checks only the one it reads: ``scan``
for ``spectrum``, ``gamma_grid`` for ``gamma-scan``.  ``figures`` reads no
config file.

Frequency axes are written in display units of ``Omega/30`` unless
``--absolute`` is given.  The resolved inputs form one manifest: the
compute step reads its model, axis and sideband entries, and every data
file gets it as a ``*.manifest.json`` sidecar (a JSON file also as its
``config`` block).  Exit codes: 0 ok, 1 verification failure, 2 invalid
parameters, 3 output I/O failure.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .detection import MODELS, FilterSpec, spectral_scan
from .dynamics import central_column_sq
from .su2 import ModulatorParams
from .unrestricted import bessel_j, modulation_index

FLOAT_FMT = "{:.11e}"  # 12 significant digits
DISPLAY_DENOM = 30.0
MAX_GRID_POINTS = 100_000  # the reference grids have 241 points


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


class _Input(NamedTuple):
    """One run input: ``name`` keys the merged config and is the dest of the
    flag ``--name-with-dashes``, ``path`` its dotted EOM_CONFIG entry, ``kind``
    float, int, bool, str, a tuple of choices or GridSpec (start, stop, step)."""
    name: str
    path: str
    kind: object
    default: object
    help: str | None
    commands: tuple = ("spectrum", "gamma-scan")  # the subcommands with the flag


_INPUTS = (
    _Input("s", "params.s", float, 3.0, "spin S (2S+1 modes)"),
    _Input("omega", "params.omega", float, 30.0, "mode spacing Omega"),
    _Input("omega_mw", "params.omega_mw", float, None, "microwave frequency"),
    _Input("detune", "params.detune", float, 0.1, "detuning omega = Omega - Omega_MW"),
    _Input("gamma", "params.gamma", float, 2.0, "coupling gamma"),
    _Input("t", "params.t", float, None, "interaction time T"),
    _Input("period_t", "params.period_t", bool, True, "set T = 2*pi/Omega"),
    _Input("m_tilde", "params.m_tilde", float, 0.0, "central mode index (display only)"),
    _Input("filter_hw", "filter.half_width", float, 4.0,
           "Gaussian filter half-width at 1/e"),
    _Input("model", "model", MODELS, "both", None),
    _Input("out", "output.path", str, None, "output path (default stdout)"),
    _Input("format", "output.format", ("csv", "json"), "csv", None),
    _Input("absolute", "absolute", bool, False,
           "emit absolute frequencies instead of display units"),
    _Input("display_unit", "display_unit", float, None,
           "frequency per display unit (default Omega/30)"),
    _Input("scan", "scan", GridSpec, (-60.0, 60.0, 0.5),
           "filter offsets start:stop:step in display units", ("spectrum",)),
    _Input("dm", "dm", int, 0, "sideband offset", ("gamma-scan",)),
    _Input("gamma_grid", "gamma_grid", GridSpec, (0.0, 60.0, 0.25),
           "coupling grid start:stop:step", ("gamma-scan",)),
)
DEFAULTS = {inp.name: inp.default for inp in _INPUTS}
_EXCLUSIVE = (("detune", "omega_mw"), ("t", "period_t"))
_BY_PATH = {tuple(inp.path.split(".")): inp for inp in _INPUTS}
_SECTIONS = {path[0] for path in _BY_PATH if len(path) > 1}
_GRID_PARTS = ("start", "stop", "step")
_JSON_TYPES = {float: (int, float, str), int: (int,), bool: (bool,), str: (str,)}
_GRIDS = {command: inp.name for inp in _INPUTS if inp.kind is GridSpec
          for command in inp.commands}  # the grid input each command reads


def _parse_grid(text) -> GridSpec:
    """A (start, stop, step) tuple (defaults, config file) or a flag's string."""
    parts = text if isinstance(text, tuple) else text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step, got {text!r}")
    return GridSpec(*(float(p) for p in parts))


def _is_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _object(name, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"config file entry {name!r} must be an object, "
                         f"got {type(value).__name__}")
    return value


def _check_entry(name, kind, value):
    """Refuse a config value that an input of ``kind`` does not take."""
    if isinstance(kind, tuple):
        want, ok = f"one of {kind}", value in kind
    else:  # True is no int here; a numeric string converts where the entry is read
        want = "a JSON " + ("number" if kind is float else kind.__name__)
        ok = type(value) in _JSON_TYPES[kind] and not (
            kind is float and type(value) is str and not _is_float(value))
    if not ok:
        raise ValueError(f"config file entry {name!r} must be {want}, got {value!r}")
    if kind is float and type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(f"config file entry {name!r} must be a JSON number within "
                         f"the float range, got an integer of {len(str(abs(value)))} "
                         f"digits")


def _load_config_file() -> dict:
    path = os.environ.get("EOM_CONFIG", "").strip()
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # a bad EOM_CONFIG is an invalid parameter, not output I/O
        raise ValueError(f"EOM_CONFIG file {path!r} cannot be read: "
                         f"{exc.strerror or exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config file must be a JSON object, got {type(doc).__name__}")
    entries = [((key, sub), value) for key in doc if key in _SECTIONS
               for sub, value in _object(key, doc[key]).items()]
    entries += [((key,), value) for key, value in doc.items() if key not in _SECTIONS]
    flat = {}
    for path, value in entries:
        name, inp = ".".join(path), _BY_PATH.get(path)
        if inp is None:
            raise ValueError(f"config file entry {name!r} is unknown: it must be one of "
                             f"{', '.join(i.path for i in _INPUTS)}")
        if inp.kind is GridSpec:  # a grid is set whole; null is refused too
            grid = _object(name, value)
            if grid.keys() != set(_GRID_PARTS) or None in grid.values():
                raise ValueError(f"config file entry {name!r} must be an object with "
                                 f"start, stop and step")
            value = tuple(grid[part] for part in _GRID_PARTS)
            for part, v in zip(_GRID_PARTS, value):
                _check_entry(f"{name}.{part}", float, v)
        elif value is not None:
            _check_entry(name, inp.kind, value)
        # null, or false for a switch, leaves the entry unset: argparse gives
        # None for a switch left off, and only None is unset in _merge
        if value is not None and value is not False:
            flat[inp.name] = value
    for pair in _EXCLUSIVE:
        if all(key in flat for key in pair):
            raise ValueError(f"config file sets both {pair[0]} and {pair[1]}")
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


def _build_config(merged, command):
    """Check the merged inputs and resolve them into the model parameters, the
    filter, the command's grid and the manifest: the run's one record of its
    inputs, which the compute step reads and the output echoes."""
    omega = float(merged["omega"])
    if not (omega > 0.0 and math.isfinite(omega)):  # before T = 2 pi / omega
        raise ValueError(f"omega must be positive and finite, got {omega}")
    # _merge leaves exactly one member of each exclusive pair set
    t_val = 2.0 * math.pi / omega if merged["period_t"] else float(merged["t"])
    detune = (float(merged["detune"]) if merged["omega_mw"] is None
              else omega - float(merged["omega_mw"]))
    p = ModulatorParams.from_detuning(
        S=float(merged["s"]), Omega=omega, detune=detune,
        gamma=float(merged["gamma"]), T=t_val, m_tilde=float(merged["m_tilde"]))
    display_unit = merged.get("display_unit")
    display_unit = (omega / DISPLAY_DENOM if display_unit is None
                    else float(display_unit))
    if not (display_unit > 0.0 and math.isfinite(display_unit)):
        raise ValueError(f"display_unit must be positive and finite, got {display_unit}")
    filt = FilterSpec(half_width=float(merged["filter_hw"]))
    grid = _parse_grid(merged[_GRIDS[command]])
    manifest = {
        "command": command,
        "version": __version__,
        "params": {"s": p.S, "omega": p.Omega, "omega_mw": p.OmegaMW, "detune": p.omega,
                   "gamma": p.gamma, "t": p.T, "m_tilde": p.m_tilde},
        "filter": {"half_width": filt.half_width},
        "model": merged["model"],
        "display_unit": display_unit,
        "absolute": bool(merged["absolute"]),
        "format": merged["format"],
        _GRIDS[command]: asdict(grid),
    }
    if command == "gamma-scan":
        manifest["dm"] = int(merged["dm"])
    return p, filt, grid, manifest


def _write_dataset(cfg_out, fmt, columns, manifest):
    """Write the named columns as CSV/JSON plus the manifest sidecar; stdout
    when no path given."""
    header = list(columns)
    columns = [np.asarray(col, dtype=float) for col in columns.values()]
    if fmt == "csv":  # "%.11e" renders every float as FLOAT_FMT does, byte for byte
        table = np.column_stack(columns)
        line = ",".join(["%.11e"] * len(header)) + "\n"
        text = ",".join(header) + "\n" + (line * len(table)) % tuple(table.ravel().tolist())
    else:
        rows = zip(*(col.tolist() for col in columns))
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


def _spectrum(p, filt, grid, manifest) -> dict:
    offsets_display = grid.values()
    edge = float(max(-offsets_display[0], offsets_display[-1]))
    absolute, unit = manifest["absolute"], manifest["display_unit"]
    carrier = p.omega_opt if absolute else 0.0
    if not math.isfinite(edge * unit + carrier):
        raise ValueError(f"absolute filter offsets overflow: scan edge {edge} x display "
                         f"unit {unit} + carrier {carrier}")
    offsets_abs = offsets_display * unit
    restricted, unrestricted = spectral_scan(p, filt, offsets_abs, manifest["model"])
    axis_name = "omega_f_absolute" if absolute else "omega_f_display"
    axis = (p.omega_opt + offsets_abs) if absolute else offsets_display
    return {axis_name: axis, "p_rel_restricted": restricted,
            "p_rel_unrestricted": unrestricted}


def _gamma_scan(p, filt, grid, manifest) -> dict:
    dm, model, gammas = manifest["dm"], manifest["model"], grid.values()
    restricted = unrestricted = None
    if model in ("restricted", "both"):
        if abs(dm) > p.S:  # S bounds only the restricted model's modes
            raise ValueError(f"|dm|={abs(dm)} exceeds S={p.S}")
        occ = central_column_sq(p, gammas)
        restricted = occ[:, occ.shape[1] // 2 + dm]
    if model in ("unrestricted", "both"):
        unrestricted = bessel_j(dm, modulation_index(p.omega, gammas, p.T)) ** 2
    return {"gamma": gammas, "p_restricted": restricted, "p_unrestricted": unrestricted}


_COMPUTE = {"spectrum": _spectrum, "gamma-scan": _gamma_scan}


def _run(command, layers) -> int:
    """Merge the input layers over DEFAULTS, compute the command's named
    columns and write them with the manifest."""
    merged = _merge(layers)
    *inputs, manifest = _build_config(merged, command)
    columns = {name: col for name, col in _COMPUTE[command](*inputs, manifest).items()
               if col is not None}  # None: the model was not asked for
    _write_dataset(merged["out"], manifest["format"], columns, manifest)
    return 0


# figure presets: the command and its inputs over the reference parameter set
_FIGURES = {
    1: ("spectrum", {"gamma": 2.0}),
    2: ("spectrum", {"gamma": 10.0}),
    3: ("spectrum", {"gamma": 24.25}),
    4: ("gamma-scan", {"dm": 0}),
    5: ("gamma-scan", {"dm": 2}),
}


def cmd_figures(selector, out_dir) -> int:
    command, preset = _FIGURES[selector]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _run(command, [{**preset, "out": str(out_dir / f"fig{selector}.csv")}])


def cmd_verify(level) -> int:
    from . import verify  # only this command needs the check layer

    results = verify.run_checks(level)
    sys.stdout.write(verify.format_report(results) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _numeric_like(value):
    """A '-'-leading value that argparse would take for a flag but is meant
    as a number: '-' then a digit or '.', or a value whose first ':' field
    parses as a float ('-inf', '-nan', '-1e1', '-.5', '-60:60:0.5')."""
    return _is_float(value.split(":")[0]) or value[1:2].isdigit() or value[1:2] == "."


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


@functools.cache  # built on the first main() call and reused; parsing keeps no state
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eomod",
        description="Electro-optic modulator spectra: finite-mode su(2) model "
                    "vs the classical Bessel model.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    for command, text in (("spectrum", "filter-frequency scan of p_rel"),
                          ("gamma-scan", "coupling scan of one sideband")):
        sub, groups = subs.add_parser(command, help=text), {}
        for inp in (inp for inp in _INPUTS if command in inp.commands):
            pair = next((pair for pair in _EXCLUSIVE if inp.name in pair), None)
            if pair and pair not in groups:
                groups[pair] = sub.add_mutually_exclusive_group()
            spec = ({"action": "store_true"} if inp.kind is bool
                    else {"choices": inp.kind} if isinstance(inp.kind, tuple)
                    else {"type": inp.kind if inp.kind in (float, int) else str})
            groups.get(pair, sub).add_argument("--" + inp.name.replace("_", "-"),
                                               default=None, help=inp.help, **spec)

    fg = subs.add_parser("figures", help="write preset dataset 1..5")
    fg.add_argument("selector", type=int, choices=range(1, 6))
    fg.add_argument("--out-dir", default=".", help="output directory")

    vf = subs.add_parser("verify", help="run invariant suites")
    vf.add_argument("level", choices=("quick", "full"))
    return parser


def _cli_layer(args) -> dict:
    return {k: getattr(args, k) for k in DEFAULTS if getattr(args, k, None) is not None}


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
        return _run(args.command, [_load_config_file(), _cli_layer(args)])
    except (ValueError, KeyError) as exc:
        print(f"eomod: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"eomod: output failure: {exc}", file=sys.stderr)
        return 3


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
