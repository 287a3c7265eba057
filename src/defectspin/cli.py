"""Command-line front end.

Subcommands mirror the library layers: ``odmr`` runs one solver pipeline
end to end, ``compare-methods`` tabulates every approach for a defect,
``isotopes`` walks the isotopologue patterns, ``ctl`` and ``binding``
cover the energetics arithmetic and ``export-dataset`` copies the bundled
data files. All tables print human-readable by default and switch to
delimited output with ``--format csv``. Flags may be preloaded from a
JSON config document; explicit flags win.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
failure, 3 dataset error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys

import numpy as np

from . import energetics
from .energetics import (
    complex_binding_energies,
    ctl_diagram,
    defect_levels,
    load_complexes,
    load_energy_records,
)
from .hamiltonian import DimensionError, build_hamiltonian
from .isotopes import isotopes_of, lookup
from .isotopologues import (
    IsotopePattern,
    _groups,
    apply_pattern,
    composite_lines,
    enumerate_patterns,
)
from .solvers import (
    MODE_ACONST,
    MODE_FULL,
    LineList,
    ZeroFieldError,
    exact_transitions,
    hybrid_solve,
    sample_configurations,
    shell_indices,
)
from .spectrum import (
    DEFAULT_GRID,
    DEFAULT_LINE_WIDTH,
    DEFAULT_WINDOW,
    _uniform_grid,
    peak_stats,
    perturb_stats,
    shift,
    synthesize,
    write_linelist,
    write_spectrum,
)
from .system import (
    _SHELL_DISTANCE,
    DatasetError,
    SpinSystem,
    build_system,
    dataset_path,
    dataset_version,
    find_defect,
    load_versioned_dataset,
    read_json,
)

# Perturbative methods: name -> (order, mode) of the perturbative solvers.
PERTURBATIVE = {
    "perturb1": (1, MODE_FULL),
    "perturb2": (2, MODE_FULL),
    "a-constants": (2, MODE_ACONST),
}
METHODS = ("ezi", *PERTURBATIVE, "exact", "hybrid")
# The approximation ladder of compare-methods: (row label, method, exact
# subset terms beyond hfi). "+" rather than "," keeps a label one CSV cell.
LADDER = (
    ("ezi", "ezi", ()),
    ("a-constants", "a-constants", ()),
    ("perturb2", "perturb2", ()),
    ("perturb1", "perturb1", ()),
    ("hybrid (1st: nzi)", "hybrid", ("nzi",)),
    ("hybrid (1st: nzi+nqi)", "hybrid", ("nzi", "nqi")),
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _floats(text: str, count: int, message: str, finite: bool = True):
    """``count`` comma-separated numbers, else ``message`` as a flag error."""
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        values = ()
    if len(values) != count or (finite and not all(map(math.isfinite, values))):
        raise argparse.ArgumentTypeError(message)
    return values


def _finite(text: str) -> float:
    return _floats(text, 1, f"expected a finite number, got {text!r}")[0]


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")
    return value


def _direction(text: str) -> tuple[float, float, float]:
    direction = _floats(text, 3, "direction needs three finite comma-separated numbers")
    if not any(direction):
        raise argparse.ArgumentTypeError("field direction must be a nonzero vector")
    return direction


def _window(text: str) -> tuple[float, float]:
    message = "window must be 'lo,hi' in MHz (hi may be inf)"
    lo, hi = _floats(text, 2, message, finite=False)
    if not lo < hi:                                 # also false for NaN
        raise argparse.ArgumentTypeError("window must satisfy lo < hi")
    return lo, hi


def _grid(text: str) -> tuple[float, float, float]:
    start, stop, step = _floats(text, 3, "grid needs finite 'start,stop,step'")
    if not (step > 0 and stop >= start):
        raise argparse.ArgumentTypeError("grid needs step > 0 and stop >= start")
    return start, stop, step


def _terms(text: str) -> tuple[str, ...]:
    return tuple(t for t in text.split(",") if t)


def _field(args) -> np.ndarray:
    direction = np.asarray(args.direction, dtype=float)
    return args.field_gauss * direction / np.linalg.norm(direction)


def _label(args) -> str:
    """The defect label, else the ``--system`` file name, for titles."""
    return args.defect or os.path.basename(args.system_path or "system")


def _resolve_system(args) -> tuple[SpinSystem, str | None]:
    """The run's system and the version of the defect dataset it came from
    (``None`` for ``--system``: the dataset was not read)."""
    if args.system_path:
        system = SpinSystem.from_dict(read_json(args.system_path, "system file"), args.system_path)
        return system, None
    if not args.defect:
        raise UsageError("either --defect or --system is required")
    records, version = load_versioned_dataset(dataset_path("defects", args.data_dir))
    record = find_defect(records, args.defect)
    return build_system(record, {"C": "13C"} if args.carbon13 else None), version


def _parse_pattern(args, system: SpinSystem) -> IsotopePattern:
    counts: dict[str, int] = {}
    for chunk in args.pattern.split(","):
        if not chunk:
            continue
        if ":" not in chunk:
            raise UsageError(f"pattern chunk {chunk!r} is not 'isotope:count'")
        symbol, _, num = chunk.partition(":")
        symbol = symbol.strip()
        try:
            count = int(num)
        except ValueError:
            raise UsageError(f"bad count in pattern chunk {chunk!r}") from None
        if count < 0:
            raise UsageError(f"argument --pattern: count in {chunk!r} is negative")
        if symbol in counts:
            raise UsageError(f"argument --pattern: {symbol} appears more than once")
        counts[symbol] = count
    try:
        elements = {lookup(symbol).element for symbol in counts}
    except KeyError as exc:
        raise UsageError(f"argument --pattern: {exc.args[0]}") from None
    if len(elements) != 1:
        raise UsageError("explicit patterns cover exactly one element")
    element = elements.pop()
    groups = _groups(system, (element,))
    if len(groups) != 1:
        raise UsageError(
            f"{element} occupies {len(groups)} site groups; explicit patterns "
            "need exactly one"
        )
    ((gid, _), sites), = groups.items()
    if sum(counts.values()) != len(sites):
        raise UsageError(f"pattern counts must sum to the group size {len(sites)}")
    group = tuple((iso.symbol, counts.get(iso.symbol, 0)) for iso in isotopes_of(element))
    return IsotopePattern(((gid, group),), 1.0)


def _solve(args, system: SpinSystem, method: str, subset_terms=()) -> LineList:
    """Run ``method`` on ``system``; ``subset_terms`` extend hfi for hybrid."""
    field = _field(args)
    if method in PERTURBATIVE:
        order, mode = PERTURBATIVE[method]
        return sample_configurations(system, field, order, mode, args.samples, args.seed)
    if method == "hybrid":
        indices = shell_indices(system, _SHELL_DISTANCE[args.exact_shell])
        if not indices:
            raise UsageError("no spin-carrying sites inside the requested shell")
        terms = ("hfi", *subset_terms)
        return hybrid_solve(system, indices, field, subset_terms=terms)
    if method == "ezi":
        system = SpinSystem(system.label + ":electron", (), system.g_tensor)
        terms = ("ezi",)
    else:
        terms = ("ezi", "hfi", "nzi") + (("nqi",) if args.include_nqi else ())
    return exact_transitions(build_hamiltonian(system, field, terms=terms), system)


def _run_pipeline(args, system: SpinSystem):
    """The run's (system, probability) parts, after the isotope-mode checks,
    and a thunk that solves them into one line list."""
    if args.pattern and args.isotope_mode != "explicit":
        raise UsageError("argument --pattern: needs --isotopes explicit")
    if args.isotope_mode == "natural":
        if args.method not in PERTURBATIVE:
            raise UsageError(
                "--isotopes natural needs a perturbative method "
                "(perturb1, perturb2 or a-constants)"
            )
        patterns = enumerate_patterns(system, (args.element,))
        parts = [(apply_pattern(system, p), p.probability) for p in patterns]
        return parts, functools.partial(
            composite_lines, system, patterns, _field(args), *PERTURBATIVE[args.method])
    if args.isotope_mode == "explicit":
        if not args.pattern:
            raise UsageError("--isotopes explicit needs --pattern")
        system = apply_pattern(system, _parse_pattern(args, system))
    return [(system, 1.0)], functools.partial(_solve, args, system, args.method, args.subset_terms)


def _peak_stats(args, method: str, parts, solve):
    """Statistics of a run and, if solved, its lines: the closed form of ``parts``
    for a perturbative ``method`` whose window cuts no line, else ``solve()``'s."""
    if parts and method in PERTURBATIVE:
        order, mode = PERTURBATIVE[method]
        stats = perturb_stats(parts, _field(args), order, mode, args.window, args.shift_mhz)
        if stats is not None:
            return stats, None
    lines = solve()
    if args.shift_mhz:
        lines = shift(lines, args.shift_mhz)
    return peak_stats(lines, args.window), lines


def _export_meta(args, version: str | None) -> dict:
    """Export header: every setting but the config and export paths, and the
    dataset ``version`` (read here when ``None``)."""
    meta = {}
    skip = ("config", "out_lines", "out_spectrum")
    for key, value in vars(args).items():
        if value is not None and key not in skip:
            meta[key] = list(value) if isinstance(value, tuple) else value
    if version is None:
        version = dataset_version(dataset_path("defects", args.data_dir))
    meta["dataset_version"] = version
    return meta


def _cell(value, spec: str | None, fmt: str) -> str:
    """The one number formatter: ``.9g`` in CSV, ``spec`` in tables."""
    if isinstance(value, float):
        return format(value, ".9g" if fmt == "csv" else spec)
    return str(value)


def _print_table(title: str, header: dict, rows, fmt: str):
    """Print ``rows`` under ``header``, a map of column name to table spec.

    Tables get ``title`` above padded columns; CSV gets the bare cells.
    """
    specs = list(header.values())
    rows = [[_cell(v, s, fmt) for v, s in zip(row, specs, strict=True)] for row in rows]
    if fmt == "csv":
        for row in [list(header), *rows]:
            print(",".join(row))
        return
    print(title)
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    for row in [list(header), *rows]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def cmd_odmr(args) -> int:
    system, version = _resolve_system(args)
    parts, solve = _run_pipeline(args, system)
    exports = args.out_lines or args.out_spectrum       # they need the lines themselves
    stats, lines = _peak_stats(args, args.method, None if exports else parts, solve)
    meta = _export_meta(args, version) if exports or args.fmt == "csv" else None
    values = {
        "center_MHz": stats.center,
        "sigma_MHz": stats.sigma,
        "fwhm_MHz": stats.fwhm_gauss,
        "included_weight_fraction": stats.included_weight_fraction,
    }
    if args.fmt == "csv":
        print("# " + json.dumps(meta, sort_keys=True))
        print(",".join(values))
        print(",".join(f"{value:.9g}" for value in values.values()))
    else:
        title = f"defect {_label(args)}  method {args.method}  B {args.field_gauss:g} G"
        print(f"{title}  seed {args.seed}")
        print(f"FWHM {stats.fwhm_gauss:.0f} MHz, center {stats.center:.0f} MHz")
        for name, value in values.items():
            print(f"{name} {value:.9g}")
    if args.out_lines:
        write_linelist(lines, args.out_lines, extra_meta=meta)
    if args.out_spectrum:
        grid = _uniform_grid(*args.grid)
        rendered = synthesize(lines, grid, per_line_width=args.line_width)
        write_spectrum(rendered, args.out_spectrum, extra_meta=meta)
    return 0


def cmd_compare_methods(args) -> int:
    system, _ = _resolve_system(args)
    rows = []
    for label, method, subset_terms in LADDER:
        solve = functools.partial(_solve, args, system, method, subset_terms)
        try:
            stats, _ = _peak_stats(args, method, [(system, 1.0)], solve)
        except ValueError as exc:
            print(f"defectspin: {label}: {exc}", file=sys.stderr)
            rows.append([label, "n/a", "n/a"])
            continue
        rows.append([label, stats.fwhm_gauss, stats.center])
    title = (
        f"defect {_label(args)}  B {args.field_gauss:g} G  "
        f"window {args.window[0]:g}-{args.window[1]:g} MHz  seed {args.seed}"
    )
    header = {"method": None, "fwhm_MHz": ".0f", "center_MHz": ".0f"}
    _print_table(title, header, rows, args.fmt)
    return 0


def cmd_isotopes(args) -> int:
    system, _ = _resolve_system(args)
    if args.pattern:
        patterns = [_parse_pattern(args, system)]
        symbols = [symbol for symbol, _ in patterns[0].counts[0][1]]   # its one group
    else:
        patterns = enumerate_patterns(system, (args.element,))
        symbols = [iso.symbol for iso in isotopes_of(args.element)]
    rows = []
    for k, pattern in enumerate(patterns):
        concrete = apply_pattern(system, pattern)
        solve = functools.partial(sample_configurations, concrete, _field(args),
                                  sample_count=args.samples, seed=[args.seed, k])
        stats, _ = _peak_stats(args, "perturb2", [(concrete, 1.0)], solve)
        rows.append(
            [pattern.count_of(s) for s in symbols]
            + [100.0 * pattern.probability, stats.center, stats.fwhm_gauss]
        )
    header = {f"n_{s}": None for s in symbols}
    header.update(p_percent=".2f", center_MHz=".0f", fwhm_MHz=".0f")
    title = f"defect {_label(args)}  B {args.field_gauss:g} G  seed {args.seed}"
    _print_table(title, header, rows, args.fmt)
    return 0


def cmd_ctl(args) -> int:
    path = args.records or dataset_path("energies", args.data_dir)
    records = load_energy_records(path)
    if not records:
        raise UsageError(f"no energy records in {path}")
    levels = defect_levels(records)
    rows = []
    # defect_levels emits each transition as an (uncorrected, corrected) pair.
    for uncorr, corr in zip(levels[::2], levels[1::2]):
        rows.append(
            [
                corr.label,
                corr.transition,
                "unclear" if corr.energy is None else f"{corr.energy:.2f}",
                f"{uncorr.energy:.2f}",
                energetics._shown_flag(uncorr, corr),
            ]
        )
    title = f"charge transition levels (eV, VBM = 0, CBM = {energetics.INDIRECT_GAP_EV})"
    columns = ("defect", "transition", "corrected_eV", "uncorrected_eV", "flags")
    _print_table(title, dict.fromkeys(columns), rows, args.fmt)
    if args.diagram:
        with open(args.diagram, "w") as fh:
            fh.write(ctl_diagram(records))
    return 0


def cmd_binding(args) -> int:
    records = load_energy_records(args.records or dataset_path("energies", args.data_dir))
    table = load_complexes(args.complexes or dataset_path("complexes", args.data_dir))
    rows = [
        [name, len(constituents), eb]
        for name, constituents, eb in complex_binding_energies(records, table)
    ]
    _print_table(
        "binding energies (eV); negative favors complex formation",
        {"complex": None, "constituents": None, "binding_eV": ".2f"},
        rows,
        args.fmt,
    )
    return 0


def cmd_export_dataset(args) -> int:
    names = (
        ["defects", "energies", "complexes"] if args.what == "all" else [args.what]
    )
    os.makedirs(args.dest, exist_ok=True)
    for name in names:
        src = dataset_path(name, args.data_dir)
        if not os.path.exists(src):
            raise DatasetError(f"dataset file not found: {src}")
        dst = dataset_path(name, args.dest)
        shutil.copyfile(src, dst)
        print(dst)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("table", "csv"), default="table", dest="fmt")
    p.add_argument("--data", default=None, dest="data_dir",
                   help="override the dataset directory")
    p.add_argument("--config", default=None, help="JSON document of flag defaults")


def _add_spectroscopy(p: argparse.ArgumentParser):
    p.add_argument("--defect", default=None, help="defect label from the dataset")
    p.add_argument("--system", default=None, dest="system_path",
                   help="path to a serialized spin system")
    p.add_argument("--B", type=_finite, default=42.0, dest="field_gauss",
                   help="field magnitude in Gauss")
    p.add_argument("--direction", type=_direction, default="0,0,1",
                   help="field direction (crystal frame)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_count, default=100_000,
                   help="Monte-Carlo draws past the enumeration limit, for line lists only")
    p.add_argument("--window", type=_window, default=DEFAULT_WINDOW,
                   help="analysis window lo,hi in MHz")
    # Settings every spectroscopy run has; odmr and isotopes expose some as
    # flags, which take these defaults.
    p.set_defaults(exact_shell=1, include_nqi=False, carbon13=False, element="B", shift_mhz=0.0)


@functools.lru_cache(maxsize=1)
def build_parser() -> tuple[_Parser, dict]:
    """The parser and its subparsers by command, built once per process.

    Every ``main`` call shares them, so a call must leave them as it found
    them. Subcommand ``x-y`` runs ``cmd_x_y``.
    """
    parser = _Parser(prog="defectspin", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("odmr", help="solve one defect and report peak statistics")
    _add_spectroscopy(p)
    p.add_argument("--method", choices=METHODS, default="perturb2")
    # Shell 0 is the defect site itself, never a neighbor shell.
    p.add_argument("--exact-shell", type=int, choices=[s for s in _SHELL_DISTANCE if s],
                   help="neighbor shell diagonalized exactly (hybrid)")
    p.add_argument("--subset-terms", type=_terms, default="nzi", dest="subset_terms",
                   help="extra exact-subsystem terms beyond hfi (hybrid)")
    p.add_argument("--nqi", action="store_true", dest="include_nqi",
                   help="include nuclear quadrupole terms in the exact method")
    p.add_argument("--isotopes", choices=("fixed", "natural", "explicit"),
                   default="fixed", dest="isotope_mode")
    p.add_argument("--pattern", default=None,
                   help="explicit isotope counts, e.g. 11B:2,10B:1")
    p.add_argument("--carbon13", action="store_true",
                   help="substitute 13C on the carbon sites")
    p.add_argument("--shift", type=_finite, default=0.0, dest="shift_mhz",
                   help="constant spectrum shift in MHz")
    p.add_argument("--width", type=_finite, default=DEFAULT_LINE_WIDTH,
                   dest="line_width", help="per-line FWHM for the synthesized spectrum")
    p.add_argument("--grid", type=_grid, default=DEFAULT_GRID,
                   help="spectrum grid start,stop,step")
    p.add_argument("--out-spectrum", default=None, dest="out_spectrum")
    p.add_argument("--out-lines", default=None, dest="out_lines")
    _add_common(p)

    p = sub.add_parser("compare-methods", help="one row per solver approach")
    _add_spectroscopy(p)
    _add_common(p)

    p = sub.add_parser("isotopes", help="per-pattern isotopologue statistics")
    _add_spectroscopy(p)
    p.add_argument("--element", help="element with variable isotopes")
    p.add_argument("--pattern", default=None,
                   help="restrict to one explicit pattern, e.g. 11B:3")
    _add_common(p)

    p = sub.add_parser("ctl", help="charge transition levels from energy records")
    p.add_argument("records", nargs="?", default=None,
                   help="energy records (JSON or delimited text); bundled by default")
    p.add_argument("--diagram", default=None, help="write plot-ready diagram text")
    _add_common(p)

    p = sub.add_parser("binding", help="complex binding energies")
    p.add_argument("records", nargs="?", default=None)
    p.add_argument("--complexes", default=None, help="complex composition table")
    _add_common(p)

    p = sub.add_parser("export-dataset", help="copy bundled data files")
    p.add_argument("--what", choices=("defects", "energies", "complexes", "all"),
                   default="all")
    p.add_argument("--dest", default=".")
    _add_common(p)

    return parser, sub.choices


_JSON_KINDS = {bool: "boolean", int: "number", float: "number", str: "string"}


def _config_defaults(sub: argparse.ArgumentParser, command: str, path: str):
    """Values of the config document at ``path``, checked as their flags
    check them, keyed by dest.

    A key names a flag (``-`` and ``_`` alike) or a positional argument. A
    switch takes a JSON boolean, a numeric flag a number and every other
    flag a string; the value then goes through the flag's type and choices.
    """
    try:
        document = read_json(path, "config file")
    except DatasetError as exc:
        raise UsageError(str(exc)) from None
    if not isinstance(document, dict):
        raise UsageError("config document must be a JSON object")
    actions = {}
    for action in sub._actions:
        for name in action.option_strings or [action.dest]:
            actions[name.lstrip("-").replace("-", "_")] = action
    defaults = {}
    for key, value in document.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"config key {key!r} matches no flag of {command}")
        if action.nargs == 0:
            kind = "boolean"
        else:
            kind = "number" if action.type in (int, _count, _finite) else "string"
        if _JSON_KINDS.get(type(value)) != kind:
            raise UsageError(f"config key {key!r} needs a JSON {kind}, got {value!r}")
        if action.type is not None:
            try:
                value = action.type(str(value))
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise UsageError(f"config key {key!r}: {value!r} is not one of {choices}")
        defaults[action.dest] = value
    return defaults


# (error kinds, exit code, stderr prefix); the first match wins, ValueError last.
_EXITS = (
    ((UsageError,), 1, "usage error: "),
    ((DatasetError,), 3, "dataset error: "),
    ((np.linalg.LinAlgError,), 2, "numerical failure: "),
    ((DimensionError, ZeroFieldError), 1, ""),
    ((OSError, ValueError, KeyError, MemoryError), 1, "error: "),
)


def main(argv=None) -> int:
    parser, subparsers = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config values become the subcommand's defaults, so a second
            # parse lets every explicit flag win over them. The parser is
            # shared with later calls: put its own defaults back.
            sub = subparsers[args.command]
            defaults = _config_defaults(sub, args.command, args.config)
            saved = {dest: sub.get_default(dest) for dest in defaults}
            sub.set_defaults(**defaults)
            try:
                args = parser.parse_args(argv)
            finally:
                sub.set_defaults(**saved)
        # Looked up now, not when the parser was built: a rebound handler runs.
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(args)
    except tuple(kind for kinds, _, _ in _EXITS for kind in kinds) as exc:
        code, prefix = next((c, p) for kinds, c, p in _EXITS if isinstance(exc, kinds))
        # A KeyError's str() quotes its message; print it bare.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"defectspin: {prefix}{message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
