"""Experiment runners that turn simulator sweeps into CSV artifacts.

Each ``run_*`` function takes an :class:`ExperimentConfig`, writes one or
more CSV files into the configured output directory and returns the written
paths.  Output is deterministic: a given config and seed produce
byte-identical files.  Every CSV starts with ``#``-prefixed metadata lines
carrying the full resolved configuration, then a header row, then the data.

:data:`EXPERIMENTS` is the one table of experiment kinds.  A row gives the
kind's CLI verb, help line, runner, the config fields the runner reads (the
verb's flags) and default overrides; a new verb is one row.

Configs serialize to a flat ``key = value`` text format; see
:func:`parse_config` / :func:`serialize_config`.  A config is checked when
it is made, each lattice link by :func:`~oamlis.modes.check_lattice` and
the slot width by :func:`~oamlis.detect.slot_grid`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detect import (
    DEFAULT_DROP_DB,
    DEFAULT_MODE_SET,
    SLOT_WAVELENGTH_FRACTION,
    STRATEGIES,
    ber_curves,
    check_strategies,
    check_trials,
    slot_grid,
    tnr_curves,
)
from .geometry import DEFAULT_WAVELENGTH, Scenario, analytic_dof
from .modes import check_lattice, count_modes, svd_mode_spectrum
from .numerics import MAX_ORDER
from .oam import (
    FOCUS_STATES,
    default_radial_grid,
    mode_energies,
    path_gains,
    profile_maps,
    radial_fields,
    standard_charges,
)

#: Geometry presets (normalized T, R) for the distance sweeps.
PRESETS = {"equal": (10.0, 10.0), "downlink": (25.0, 5.0), "uplink": (5.0, 25.0)}

def _key(default, help: str, **cli):
    """Config field carrying its help text and CLI flag settings.

    The flag is ``--`` plus the field name with ``_`` turned into ``-``,
    unless ``cli["flag"]`` spells it otherwise; the other ``cli`` entries
    (``metavar``, ``choices``) go to ``argparse`` as they are.
    """
    return dataclasses.field(default=default, metadata={"help": help, **cli})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, serializable description of one experiment run.

    Radii and distances are wavelength-normalized (T = R_T/lambda and so
    on); ``spacing`` and ``slot`` are lattice pitch and noise slot width as
    wavelength fractions.  Fields not used by a given kind are ignored by
    its runner but still serialized, so one file can drive several verbs.
    Each field is also one config key and one CLI flag; its type annotation
    selects its text parser and value check from :data:`_SCALARS`, and the
    config stores plain Python values only.
    """

    kind: str = _key("spectrum", "experiment kind, one per runner")
    wavelength: float = _key(
        DEFAULT_WAVELENGTH, "carrier wavelength in meters", flag="--lambda", metavar="M"
    )
    T: float = _key(10.0, "transmit radius in wavelengths")
    R: float = _key(10.0, "receive radius in wavelengths")
    D: float = _key(50.0, "link distance in wavelengths")
    distances: tuple[float, ...] = _key(
        (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0, 450.0, 500.0),
        "comma-separated distances in wavelengths",
    )
    preset: str = _key("all", "geometry preset", choices=(*PRESETS, "all"))
    threshold_db: float = _key(-5.0, "mode-count threshold in dB (energy scale, <= 0)")
    spacing: float = _key(0.5, "lattice pitch in wavelengths")
    slot: float = _key(SLOT_WAVELENGTH_FRACTION, "noise slot width in wavelengths")
    max_charge: int = _key(15, "largest |charge| to evaluate")
    n_values: int = _key(60, "singular values kept in the CSV")
    n_modes: int = _key(51, "superposed mode count (odd)")
    modes: tuple[int, ...] = _key(DEFAULT_MODE_SET, "comma-separated topological charges")
    strategies: tuple[str, ...] = _key(
        ("mf", "id", "id_smart", "ed_smart"),
        f"comma-separated strategy names ({', '.join(sorted(STRATEGIES))})",
    )
    snr_db: tuple[float, ...] = _key(
        tuple(float(v) for v in range(0, 25, 2)), "comma-separated SNR axis in dB"
    )
    tnr_snr_db: float = _key(19.0, "fixed link SNR in dB for the sweep", flag="--snr")
    tnr_db: tuple[float, ...] = _key(
        tuple(16.0 + 0.5 * k for k in range(33)), "comma-separated TNR axis in dB"
    )
    focused: bool = _key(True, "apply the transmit focusing phase law (default)")
    drop_db: float = _key(DEFAULT_DROP_DB, "smart-window drop level in dB")
    trials: int = _key(100000, "Monte Carlo trials per point")
    seed: int = _key(0, "master random seed")
    resolution: int = _key(101, "samples per axis of each aperture map")
    out: str = _key("results", "output directory for CSV files", metavar="DIR")

    def __post_init__(self) -> None:
        for name in _FIELD_TYPES:
            object.__setattr__(self, name, _checked(name, getattr(self, name)))
        if self.kind not in EXPERIMENTS:
            kinds = tuple(EXPERIMENTS)
            raise ValueError(f"unknown experiment kind {self.kind!r}; expected one of {kinds}")
        reads = EXPERIMENTS[self.kind].fields
        if self.preset not in (*PRESETS, "all"):
            raise ValueError(f"unknown preset {self.preset!r}")
        for name in ("wavelength", "T", "R", "D", "spacing", "slot", "drop_db", "distances"):
            if not np.all(np.greater(getattr(self, name), 0)):
                raise ValueError(f"{name} must be positive")
        if self.threshold_db > 0:
            raise ValueError("threshold_db must be <= 0 dB")
        check_trials(self.trials)
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_values < 1:
            raise ValueError("n_values must be at least 1")
        if self.max_charge < 0:
            raise ValueError("max_charge must be non-negative")
        if self.n_modes < 1 or self.n_modes % 2 == 0:
            raise ValueError("n_modes must be odd and >= 1 for a symmetric charge set")
        # Charges beyond the largest supported Bessel order fail here, not mid-run.
        if self.max_charge > MAX_ORDER:
            raise ValueError(f"max_charge must be at most {MAX_ORDER}")
        if self.n_modes > 2 * MAX_ORDER + 1:
            raise ValueError(f"n_modes must be at most {2 * MAX_ORDER + 1}")
        if self.resolution < 32:
            raise ValueError("resolution must be at least 32 samples per axis")
        if "slot" in reads:
            slot_grid(self.R * self.wavelength, self.slot * self.wavelength, self.wavelength)
        for _, T, R, D in _links(self) if "spacing" in reads else ():
            check_lattice(*(v * self.wavelength for v in (T, R, D, self.spacing)), self.wavelength)
        check_strategies(self.strategies)
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError(f"strategies must not repeat a name, got {self.strategies}")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"modes must not repeat a charge, got {self.modes}")
        if any(abs(charge) > MAX_ORDER for charge in self.modes):
            raise ValueError(f"modes must have |charge| <= {MAX_ORDER}, got {self.modes}")

    def scenario(self) -> Scenario:
        return Scenario.normalized(self.T, self.R, self.D, wavelength=self.wavelength)


#: Config field -> (its scalar type, whether the field holds a tuple of them).
_FIELD_TYPES = {
    name: (typing.get_args(hint)[0], True) if typing.get_origin(hint) is tuple else (hint, False)
    for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


def _links(config: ExperimentConfig):
    """(preset, T, R, D) of each link of the run: each configured preset at
    every distance if the kind reads ``distances``, else the one link."""
    if "distances" not in EXPERIMENTS[config.kind].fields:
        return [(None, config.T, config.R, config.D)]
    presets = PRESETS if config.preset == "all" else [config.preset]
    return [(preset, *PRESETS[preset], D) for preset in presets for D in config.distances]


def default_config(kind: str, **overrides) -> ExperimentConfig:
    """Config pre-filled with the kind's canonical scenario."""
    defaults = EXPERIMENTS[kind].defaults if kind in EXPERIMENTS else {}
    return ExperimentConfig(**{"kind": kind, **defaults, **overrides})


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


#: Scalar field type -> (parser of its text, the value types it takes, its
#: name in errors): the one statement of the type rule.  A bool field takes
#: bools only and no other field takes one.
_SCALARS = {
    bool: (_parse_bool, (bool, np.bool_), "a bool"),
    int: (int, numbers.Integral, "an integer"),
    float: (float, numbers.Real, "a real number"),
    str: (str, str, "a string"),
}


def _checked(name: str, value):
    """``value`` of field ``name`` as the plain Python value the config
    stores.  Each scalar, and each item of a tuple field's tuple, list or
    array, must take its type's :data:`_SCALARS` rule; floats are finite."""
    scalar, is_tuple = _FIELD_TYPES[name]
    _, accepted, what = _SCALARS[scalar]
    items = [value]
    if is_tuple:
        items = value.tolist() if isinstance(value, np.ndarray) else value
        if not isinstance(items, (tuple, list)):
            raise ValueError(f"{name} must be a tuple, list or array, got {value!r}")
        if not items:
            raise ValueError(f"{name} must not be empty")
    for item in items:
        if isinstance(item, (bool, np.bool_)) != (scalar is bool) or not isinstance(item, accepted):
            item_of = f"each item of {name}" if is_tuple else name
            raise ValueError(f"{item_of} must be {what}, got {item!r}")
    try:
        plain = tuple(scalar(item) for item in items)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond the float range") from None
    if not all(math.isfinite(v) for v in plain if isinstance(v, float)):
        raise ValueError(f"{name} must be finite, got {_format_value(plain)}")
    return plain if is_tuple else plain[0]


def _field_parser(name: str):
    """Parser of a field's text: its scalar type's, or for a tuple field one
    that parses each comma-separated item with it."""
    scalar, is_tuple = _FIELD_TYPES[name]
    parse_item = _SCALARS[scalar][0]
    if not is_tuple:
        return parse_item

    def parse(raw: str) -> tuple:
        return tuple(parse_item(p.strip()) for p in raw.split(",") if p.strip())

    parse.__name__ = f"{parse_item.__name__} list"  # argparse names the type in errors
    return parse


#: Config key -> parser of its text value, from the field annotations.
FIELD_PARSERS = {name: _field_parser(name) for name in _FIELD_TYPES}


def serialize_config(config: ExperimentConfig) -> str:
    """Flat ``key = value`` text form, keys sorted, newline-terminated."""
    lines = [
        f"{name} = {_format_value(getattr(config, name))}"
        for name in sorted(FIELD_PARSERS)
    ]
    return "\n".join(lines) + "\n"


def parse_config_keys(text: str) -> dict[str, str]:
    """Raw value text of each key of flat ``key = value`` text.

    Blank lines and ``#`` comments are ignored.  Unknown and repeated keys
    raise.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in FIELD_PARSERS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: config key {key!r} is already set")
        raw[key] = value.strip()
    return raw


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse flat key-value text, overriding ``base`` (or kind defaults).

    A ``kind`` key that differs from the base's kind starts from that
    kind's defaults instead.  See :func:`parse_config_keys` for the format.
    """
    raw = parse_config_keys(text)
    kind = raw.get("kind", base.kind if base is not None else ExperimentConfig.kind)
    config = base if base is not None and base.kind == kind else default_config(kind)
    return apply_overrides(config, **raw)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace the given fields, parsing string values like a config file."""
    parsed = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in FIELD_PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        parsed[key] = FIELD_PARSERS[key](value) if isinstance(value, str) else value
    return dataclasses.replace(config, **parsed)


#: Cell format per numpy dtype kind.  ``%.12g`` renders a float exactly as
#: ``format(x, ".12g")`` does, and ``%d`` an integer as ``str`` does.
_CELL_FORMATS = {"f": "%.12g", "i": "%d", "U": "%s"}


def _format_rows(columns) -> str:
    """Data rows of equal-length 1-D columns, each row ending in a newline.

    One row template comes from the column dtypes; the cells are interleaved
    row by row into one flat tuple and the whole table is rendered by a
    single ``%``.  A column mixing integers and floats is a float column, so
    its integers render as ``%.12g``, which matches ``str`` below 10**12.
    """
    arrays = [np.asarray(values) for values in columns]
    n_rows = len(arrays[0])
    cells = [None] * (n_rows * len(arrays))
    for k, array in enumerate(arrays):
        cells[k :: len(arrays)] = array.tolist()
    row = ",".join(_CELL_FORMATS[array.dtype.kind] for array in arrays) + "\n"
    return (row * n_rows) % tuple(cells)


def _format_map(axis, values) -> str:
    """Data rows of a square map on ``axis``, each row ending in a newline.

    Row ``j*n + i`` holds (x_i, y_j, values[j, i]), with x and y both on
    ``axis``: the rows of :func:`_format_rows` on the ``np.meshgrid``
    columns.  Each axis value is formatted once, as itself; its text is
    baked into one x-row block per y, and only the value cells are
    rendered, through the same ``%.12g``, by a single ``%``.
    """
    coords = [_CELL_FORMATS["f"] % x for x in np.asarray(axis).tolist()]
    tails = [f",{y},{_CELL_FORMATS['f']}\n" for y in coords]
    template = "".join(tail.join(coords) + tail for tail in tails)
    return template % tuple(np.ravel(values).tolist())


def _write_csv(
    path: Path, columns, config: ExperimentConfig, extra: dict | None = None, rows=None
):
    """Write metadata lines, the header of ``columns`` and their data rows.

    ``columns`` maps each header name to that column's values, rendered by
    :func:`_format_rows`.  A caller that renders its own ``rows`` text passes
    the header names alone.
    """
    lines = [f"# {line}" for line in serialize_config(config).splitlines()]
    lines += [f"# {key} = {_format_value(extra[key])}" for key in sorted(extra or {})]
    lines.append(",".join(columns))
    if rows is None:
        rows = _format_rows(columns.values())
    text = "\n".join(lines) + "\n" + rows
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="ascii")
    return path


#: Strategy labels of the mode counts: the SVD, then OAM per focus state.
_COUNT_LABELS = ("svd", *("oam_focused" if f else "oam_unfocused" for f in FOCUS_STATES))


def mode_spectra(config: ExperimentConfig, scenario: Scenario):
    """SVD spectrum and OAM energies of one link, and their dB values.

    The energies of charges ``standard_charges(2 * max_charge + 1)`` have
    one row per focus state, unfocused first.  Every dB value is on the
    energy scale against the strongest SVD coupling xi_1^2:
    20 log10(xi / xi_1) for the singular values, 10 log10(E / xi_1^2) for
    the energies.  :func:`~oamlis.modes.count_modes` counts each dB array
    at the configured threshold.

    Returns:
        (svd, energies, db): the descending singular values, the energies,
        and one dB array per entry of :data:`_COUNT_LABELS`.
    """
    svd = svd_mode_spectrum(scenario, config.spacing * config.wavelength)
    energies = mode_energies(scenario, standard_charges(2 * config.max_charge + 1))
    xi_1 = float(svd[0])
    return svd, energies, [20 * np.log10(svd / xi_1), *(10 * np.log10(energies / xi_1**2))]


def run_spectrum(config: ExperimentConfig):
    """Coupling intensities of SVD and OAM strategies in one CSV.

    Rows carry the linear intensity and its dB value on a common energy
    scale, normalized to the strongest coupling of any strategy (the top
    singular-value intensity); mode counts at the configured threshold are
    recorded in the metadata.
    """
    svd, energies, db = mode_spectra(config, config.scenario())
    n = min(config.n_values, len(svd))
    # One (index, value_linear, value_db_energy_scale, label) block per strategy.
    blocks = [(np.arange(1, n + 1), svd[:n], db[0][:n], ["svd"] * n)]
    n_list = np.arange(1, energies.shape[1] + 1)
    for label, values, values_db in zip(_COUNT_LABELS[1:], energies, db[1:]):
        blocks.append((n_list, values, values_db, [label] * len(n_list)))

    extra = {"reference_intensity": float(svd[0]) ** 2}
    extra.update(
        (f"count_{label}", count_modes(values_db, config.threshold_db))
        for label, values_db in zip(_COUNT_LABELS, db)
    )
    path = Path(config.out) / "spectrum.csv"
    names = ("index", "value_linear", "value_db_energy_scale", "label")
    columns = {name: np.concatenate(parts) for name, parts in zip(names, zip(*blocks))}
    return [_write_csv(path, columns, config, extra)]


def _distance_sweep(config: ExperimentConfig, labels, evaluate):
    """Sweep the presets and distances; one row per scenario and label.

    ``evaluate(scenario)`` returns one value per entry of ``labels``.
    Returns the ``distance``, ``preset`` and ``label`` columns, and the
    values as one flat list in row order.
    """
    links = _links(config)
    keys = {
        "distance": np.repeat([D for *_, D in links], len(labels)),
        "preset": np.repeat([preset for preset, *_ in links], len(labels)),
        "label": list(labels) * len(links),
    }
    scenarios = (Scenario.normalized(*link, wavelength=config.wavelength) for _, *link in links)
    return keys, [value for scenario in scenarios for value in evaluate(scenario)]


def run_dof_vs_distance(config: ExperimentConfig):
    """Well-coupled mode counts versus link distance, per geometry preset.

    For every distance the analytic estimate, the SVD count and both OAM
    counts (referenced to the strongest SVD coupling) are emitted.
    """

    def counts(scenario):
        db = mode_spectra(config, scenario)[2]
        return [analytic_dof(scenario), *(count_modes(d, config.threshold_db) for d in db)]

    keys, values = _distance_sweep(config, ("analytic", *_COUNT_LABELS), counts)
    path = Path(config.out) / "dof_vs_distance.csv"
    return [_write_csv(path, {**keys, "value": values}, config)]


def run_path_gain(config: ExperimentConfig):
    """Received-over-transmitted energy versus distance for the presets."""
    labels = tuple("focused" if focused else "unfocused" for focused in FOCUS_STATES)
    keys, eta = _distance_sweep(
        config, labels, lambda scenario: path_gains(scenario, config.n_modes)
    )
    eta = np.asarray(eta, dtype=float)
    path = Path(config.out) / "path_gain.csv"
    return [_write_csv(path, {**keys, "eta": eta, "eta_db": 10 * np.log10(eta)}, config)]


def run_ber(config: ExperimentConfig):
    """Monte Carlo BER curves, one CSV per (charge, strategy), from one shared draw."""
    scenario = config.scenario()
    keys = [(charge, name) for charge in config.modes for name in config.strategies]
    curves, e_s = ber_curves(
        scenario,
        keys,
        config.snr_db,
        trials=config.trials,
        seed=config.seed,
        focused=config.focused,
        mode_set=config.modes,
        slot=config.slot * config.wavelength,
        drop_db=config.drop_db,
    )
    paths = []
    for (charge, name), curve in zip(keys, curves):
        extra = {"charge": charge, "strategy": name, "symbol_energy": e_s}
        path = Path(config.out) / f"ber_{name}_l{charge}.csv"
        paths.append(_write_csv(path, dataclasses.asdict(curve), config, extra))
    return paths


def run_tnr(config: ExperimentConfig):
    """Energy-detector BER versus threshold-to-noise ratio at fixed SNR, from one shared draw."""
    scenario = config.scenario()
    branches = [(charge, name) for charge in config.modes for name in ("ed_full", "ed_smart")]
    curves = tnr_curves(
        scenario,
        branches,
        config.tnr_snr_db,
        config.tnr_db,
        trials=config.trials,
        seed=config.seed,
        focused=config.focused,
        mode_set=config.modes,
        slot=config.slot * config.wavelength,
        drop_db=config.drop_db,
    )
    paths = []
    for (charge, name), curve in zip(branches, curves):
        extra = {"charge": charge, "smart": STRATEGIES[name][1], "snr_db": config.tnr_snr_db}
        path = Path(config.out) / f"tnr_ed_l{charge}_{name.removeprefix('ed_')}.csv"
        paths.append(_write_csv(path, dataclasses.asdict(curve), config, extra))
    return paths


def run_profiles(config: ExperimentConfig):
    """Aperture maps and radial cuts of selected charges, focused and not.

    Per charge and focus state, three Cartesian maps (transmit phase,
    receive amplitude, receive phase) are written as flat (x, y, value)
    tables, plus the radial receive profile.  Every receive field of the
    run comes from one :func:`~oamlis.oam.radial_fields` call.
    """
    scenario = config.scenario()
    grid = default_radial_grid(scenario)
    fields = radial_fields(scenario, config.modes, FOCUS_STATES, grid)
    paths = []
    for charge, states in zip(config.modes, fields.swapaxes(0, 1)):
        for focused, samples in zip(FOCUS_STATES, states):
            suffix = f"l{charge}_{'focused' if focused else 'unfocused'}"
            maps = profile_maps(charge, scenario, focused, samples, config.resolution)
            for key, axis in (("tx_phase", "x_tx"), ("rx_amplitude", "x_rx"), ("rx_phase", "x_rx")):
                rows = _format_map(maps[axis], maps[key])
                path = Path(config.out) / f"profile_{suffix}_{key}.csv"
                extra = {"charge": charge, "focused": focused, "grid": key}
                paths.append(_write_csv(path, ("x", "y", "value"), config, extra, rows))
            columns = {
                "radius": grid,
                "re": samples.real,
                "im": samples.imag,
                # np.hypot rounds as abs() of one complex scalar does; np.abs of
                # a complex array may take a SIMD path that differs in the last bit.
                "abs": np.hypot(samples.real, samples.imag),
                "phase": np.angle(samples),
            }
            path = Path(config.out) / f"radial_{suffix}.csv"
            extra = {"charge": charge, "focused": focused}
            paths.append(_write_csv(path, columns, config, extra))
    return paths


class Experiment(typing.NamedTuple):
    """One experiment kind: its CLI verb and help line, its runner, the
    config fields the runner reads besides ``out`` and ``wavelength`` (the
    verb's flags, in order) and the kind's default overrides.  The config
    applies the lattice rules to a kind that reads ``spacing`` and the slot
    rules to one that reads ``slot``; a kind that reads ``distances`` sweeps
    the presets over them."""

    verb: str
    help: str
    runner: typing.Callable
    fields: tuple[str, ...]
    defaults: dict


_GEOMETRY = ("T", "R", "D")
_MONTE_CARLO = ("trials", "seed")

#: Experiment kind -> :class:`Experiment`, the one definition of each kind.
EXPERIMENTS = {
    "spectrum": Experiment(
        "spectrum", "coupling intensities of SVD and OAM modes for one geometry", run_spectrum,
        (*_GEOMETRY, "threshold_db", "spacing", "max_charge", "n_values"), {},
    ),
    "dof_vs_distance": Experiment(
        "dof", "well-coupled mode counts versus link distance", run_dof_vs_distance,
        ("preset", "distances", "threshold_db", "spacing", "max_charge"), {"max_charge": 40},
    ),
    "path_gain": Experiment(
        "pathgain", "received-over-transmitted energy versus link distance", run_path_gain,
        ("preset", "distances", "n_modes"),
        {"distances": tuple(50.0 + 25.0 * k for k in range(19))},
    ),
    "ber": Experiment(
        "ber", "Monte Carlo BER versus SNR for the receiver strategies", run_ber,
        (*_GEOMETRY, "modes", "snr_db", "strategies", "drop_db", "slot", "focused", *_MONTE_CARLO),
        {"D": 100.0},
    ),
    "tnr": Experiment(
        "tnr", "energy-detector BER versus decision threshold at fixed SNR", run_tnr,
        (*_GEOMETRY, "modes", "tnr_snr_db", "tnr_db", "drop_db", "slot", "focused", *_MONTE_CARLO),
        {"D": 100.0},
    ),
    "profiles": Experiment(
        "profiles", "aperture phase/amplitude maps and radial field cuts", run_profiles,
        (*_GEOMETRY, "modes", "resolution"), {"T": 5.0, "R": 5.0, "D": 20.0, "modes": (0, 1, 3)},
    ),
}

#: Kind -> runner.  :func:`run` dispatches through this dict of plain functions
#: because perfbench's tracer wraps functions held by module attributes and dicts.
RUNNERS = {kind: experiment.runner for kind, experiment in EXPERIMENTS.items()}


def run(config: ExperimentConfig):
    """Dispatch a config to its runner; returns the written paths."""
    return RUNNERS[config.kind](config)
