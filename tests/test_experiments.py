"""Tests for experiment configs, CSV emission and the command line."""

import argparse
import dataclasses
import hashlib
import math
import os
import re
import string
import subprocess
import sys
import tracemalloc
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oamlis
from oamlis import cli, detect
from oamlis.detect import CHUNK_TRIALS, STRATEGIES, NoiseModel, ber_curves
from oamlis.modes import disk_grid
from oamlis.experiments import (
    EXPERIMENTS,
    PRESETS,
    ExperimentConfig,
    _format_map,
    _format_rows,
    _format_value,
    apply_overrides,
    default_config,
    parse_config,
    run,
    run_path_gain,
    run_spectrum,
    serialize_config,
)


def read_csv(path):
    """Split a written CSV into (metadata dict, header, data rows)."""
    meta = {}
    header = None
    rows = []
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def test_config_round_trip_all_kinds():
    for kind in EXPERIMENTS:
        config = default_config(kind)
        assert parse_config(serialize_config(config)) == config
        assert serialize_config(parse_config(serialize_config(config))) == serialize_config(config)


def test_kind_defaults():
    assert default_config("dof_vs_distance").max_charge == 40
    assert default_config("ber").D == 100.0
    assert default_config("tnr").D == 100.0
    profiles = default_config("profiles")
    assert (profiles.T, profiles.R, profiles.D) == (5.0, 5.0, 20.0)
    assert profiles.modes == (0, 1, 3)
    gains = default_config("path_gain")
    assert gains.distances[0] == 50.0 and gains.distances[1] == 75.0
    assert default_config("ber", trials=20_000).trials == 20_000
    # A kind's default overrides name only fields that its runner reads.
    for kind, experiment in EXPERIMENTS.items():
        assert set(experiment.defaults) <= set(experiment.fields), kind


def test_tuple_fields_take_lists_and_arrays():
    config = default_config("ber", modes=[0, 4], snr_db=np.array([0.0, 2.0]), strategies=["mf"])
    expected = default_config("ber", modes=(0, 4), snr_db=(0.0, 2.0), strategies=("mf",))
    assert config == expected and hash(config) == hash(expected)
    assert [type(charge) for charge in config.modes] == [int, int]
    assert serialize_config(config) == serialize_config(expected)
    assert parse_config(serialize_config(config)) == config
    # The list and array values get the empty and finite checks too.
    with pytest.raises(ValueError, match="snr_db must be finite, got 0,nan"):
        default_config("ber", modes=[0, 4], snr_db=np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="modes must not be empty"):
        default_config("ber", modes=[])


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError, match="unknown experiment kind 'nope'"):
        default_config("nope")
    with pytest.raises(ValueError):
        ExperimentConfig(preset="sideways")
    with pytest.raises(ValueError):
        ExperimentConfig(T=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(threshold_db=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="strateg"):
        ExperimentConfig(kind="ber", strategies=("mf", "bogus"))
    with pytest.raises(ValueError, match="repeat"):
        ExperimentConfig(kind="ber", modes=(0, 0))
    with pytest.raises(ValueError, match="resolution"):
        ExperimentConfig(resolution=31)
    for n_modes in (0, 4):
        with pytest.raises(ValueError, match="n_modes"):
            ExperimentConfig(n_modes=n_modes)
    with pytest.raises(ValueError, match="snr_db"):
        ExperimentConfig(kind="ber", snr_db=())
    with pytest.raises(ValueError, match="tnr_db"):
        ExperimentConfig(kind="tnr", tnr_db=())
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="n_values"):
        ExperimentConfig(n_values=0)
    with pytest.raises(ValueError, match="max_charge"):
        ExperimentConfig(max_charge=-1)
    with pytest.raises(ValueError, match="seed"):
        parse_config("seed = -3\n")
    # The pitch bound sqrt(2) * R is disk_grid's: just inside it holds one site per quadrant.
    inside = ExperimentConfig(T=3.0, R=3.0, D=20.0, spacing=4.24)
    points, _ = disk_grid(inside.scenario().radius_tx, inside.spacing * inside.wavelength)
    assert len(points) == 4
    with pytest.raises(ValueError, match="no lattice site"):
        dataclasses.replace(inside, spacing=4.25)


def test_config_rejects_non_finite_numpy_scalars():
    # np.float32 is no float subclass; the finite check must still see it.
    for overrides in ({"threshold_db": np.float32("nan")}, {"D": np.float32("inf")}):
        with pytest.raises(ValueError, match="must be finite"):
            default_config("spectrum", **overrides)


def test_config_names_the_field_of_an_int_beyond_the_float_range():
    # float(10**400) overflows; the error must still name the field.
    for kind, overrides in (("spectrum", {"T": 10**400}), ("ber", {"snr_db": (0.0, 10**400)})):
        (field,) = overrides
        with pytest.raises(ValueError, match=f"^{field} must be finite, got an integer beyond"):
            default_config(kind, **overrides)


def test_config_rejects_trials_above_the_ceiling():
    # Counts past the ceiling, one of them beyond an index-sized integer,
    # fail when the config is built, naming the field.
    assert default_config("ber", trials=detect.MAX_TRIALS).trials == detect.MAX_TRIALS
    for trials in (detect.MAX_TRIALS + 1, 2**63, 10**400):
        for kind in ("ber", "tnr"):
            with pytest.raises(ValueError, match="^trials must be at most 1000000000$"):
                default_config(kind, trials=trials)


def test_config_rejects_mistyped_scalars():
    # A truthy string would run focused while the metadata says false; a
    # float charge bound and a bool seed would not parse back.
    for kind, overrides, message in (
        ("ber", {"focused": "false"}, "focused must be a bool, got 'false'"),
        ("spectrum", {"max_charge": 3.7}, "max_charge must be an integer, got 3.7"),
        ("ber", {"seed": True}, "seed must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=message):
            default_config(kind, **overrides)
    # An int is a float value, and NumPy scalars keep their field's type.
    config = default_config("spectrum", T=10, D=np.float32(40.0), max_charge=np.int64(4))
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize(
    "kind, overrides, message",
    [
        ("ber", {"modes": (0.5, 2)}, "each item of modes must be an integer, got 0.5"),
        ("ber", {"modes": (True,)}, "each item of modes must be an integer, got True"),
        ("ber", {"snr_db": (True, 2.0)}, "each item of snr_db must be a real number, got True"),
        # A fractional charge would run as l=0 under metadata that says 0.5.
        ("profiles", {"modes": (0.5,)}, "each item of modes must be an integer, got 0.5"),
        # A bare string is not split into letters.
        ("ber", {"strategies": "mf"}, "strategies must be a tuple, list or array, got 'mf'"),
        ("ber", {"tnr_db": np.array([[20.0]])}, "each item of tnr_db must be a real number"),
    ],
)
def test_config_checks_each_list_item(kind, overrides, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        default_config(kind, **overrides)


def test_config_stores_numpy_values_as_plain_python_values():
    config = default_config("ber", modes=np.array([0, 4]), T=np.float32(10.5), seed=np.int64(3))
    assert config.modes == (0, 4) and config.T == 10.5 and config.seed == 3
    assert [type(v) for v in (*config.modes, config.T, config.seed)] == [int, int, float, int]
    assert parse_config(serialize_config(config)) == config


#: Config field -> its type annotation; ``kind`` is drawn separately.
_HINTS = {k: v for k, v in typing.get_type_hints(ExperimentConfig).items() if k != "kind"}
#: Quarter steps up to 20: exact in float32 and in 12 significant digits,
#: and small enough that no lattice or slot budget binds.
_QUARTERS = st.integers(-8, 80).map(lambda k: k / 4)
_INTS = st.one_of(st.integers(-2, 70), st.integers(10_000, 10**6))
#: Plain and NumPy values of each scalar field type.
_SCALARS = {
    float: st.one_of(_QUARTERS, _QUARTERS.map(np.float32), _INTS, _INTS.map(np.int64)),
    int: st.one_of(_INTS, _INTS.map(np.int64), _INTS.map(np.int32)),
    bool: st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    str: st.sampled_from([*PRESETS, "all", *STRATEGIES, "bogus"]).flatmap(
        lambda text: st.sampled_from([text, np.str_(text)])
    ),
}
#: Values of no field's type, or of the wrong one for most fields.
_WRONG = st.one_of(
    st.sampled_from(
        [None, "1", "true", math.nan, math.inf, np.float64(-math.inf), 10**400, 1j, b"mf"]
    ),
    *_SCALARS.values(),
)


def _field_value(hint):
    """A field's value: mostly of its type, a list, tuple or array for a
    tuple field; sometimes a wrongly typed value or item."""
    if typing.get_origin(hint) is not tuple:
        return st.one_of(_SCALARS[hint], _SCALARS[hint], _WRONG)
    items = st.lists(st.one_of(*[_SCALARS[typing.get_args(hint)[0]]] * 3, _WRONG), max_size=4)
    return st.one_of(items.map(tuple), items, items.map(np.array), _WRONG)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(list(EXPERIMENTS)),
    st.lists(st.sampled_from(list(_HINTS)), unique=True, max_size=4).flatmap(
        lambda names: st.fixed_dictionaries({name: _field_value(_HINTS[name]) for name in names})
    ),
)
def test_config_holds_plain_round_tripping_values_or_names_the_field(kind, overrides):
    try:
        config = default_config(kind, **overrides)
    except ValueError as err:
        fields = "|".join(field.name for field in dataclasses.fields(ExperimentConfig))
        assert re.search(rf"\b({fields})\b", str(err)), str(err)
        return
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        for v in value if isinstance(value, tuple) else (value,):
            assert type(v) in (bool, int, float, str), (field.name, value)
    assert parse_config(serialize_config(config)) == config


def test_parse_config_overrides_and_comments():
    base = default_config("spectrum")
    parsed = parse_config("# a comment\n\nT = 12\nmodes = 0, 2, 4\n", base=base)
    assert parsed.T == 12.0
    assert parsed.modes == (0, 2, 4)
    assert parsed.R == base.R


def test_parse_config_switches_kind_defaults():
    parsed = parse_config("kind = profiles\n", base=default_config("spectrum"))
    assert parsed.kind == "profiles"
    assert parsed.T == 5.0 and parsed.modes == (0, 1, 3)


def test_parse_config_rejects_bad_lines():
    with pytest.raises(ValueError):
        parse_config("bogus = 1\n")
    with pytest.raises(ValueError):
        parse_config("just words\n")


def test_apply_overrides_coercion():
    config = default_config("spectrum")
    updated = apply_overrides(config, T="6", focused="false", modes="0,2", seed=3, D=None)
    assert updated.T == 6.0
    assert updated.focused is False
    assert updated.modes == (0, 2)
    assert updated.seed == 3
    assert updated.D == config.D
    with pytest.raises(ValueError):
        apply_overrides(config, nonsense=1)


def test_serialize_config_bytes():
    assert serialize_config(default_config("ber")) == (
        "D = 100\n"
        "R = 10\n"
        "T = 10\n"
        "distances = 50,100,150,200,250,300,350,400,450,500\n"
        "drop_db = 10\n"
        "focused = true\n"
        "kind = ber\n"
        "max_charge = 15\n"
        "modes = 0,1,2,3,4\n"
        "n_modes = 51\n"
        "n_values = 60\n"
        "out = results\n"
        "preset = all\n"
        "resolution = 101\n"
        "seed = 0\n"
        "slot = 0.25\n"
        "snr_db = 0,2,4,6,8,10,12,14,16,18,20,22,24\n"
        "spacing = 0.5\n"
        "strategies = mf,id,id_smart,ed_smart\n"
        "threshold_db = -5\n"
        "tnr_db = 16,16.5,17,17.5,18,18.5,19,19.5,20,20.5,21,21.5,22,22.5,23,23.5,24,24.5,"
        "25,25.5,26,26.5,27,27.5,28,28.5,29,29.5,30,30.5,31,31.5,32\n"
        "tnr_snr_db = 19\n"
        "trials = 100000\n"
        "wavelength = 0.1\n"
    )


#: Floats with edge-case text forms: signed zeros, infinities, NaN,
#: subnormals, the smallest normal and the largest finite value.
SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308,
]
#: Integers of an integer column: negative, and at or above 10**12, where
#: ``%.12g`` would switch to an exponent and only ``%d`` matches ``str``.
LARGE_INTS = [-(2**63), -1, 0, 10**12 - 1, 10**12, 10**15 + 7, 10**18, 2**63 - 1, 3, -7, 42]

FLOAT_CELLS = st.one_of(
    st.floats(),
    st.sampled_from(SPECIAL_FLOATS),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)),
)
CELLS = {
    "float": FLOAT_CELLS,
    "int": st.one_of(st.integers(-(10**6), 10**6), st.integers(-(2**63), 2**63 - 1)),
    # dof's value column: integer counts next to an analytic float.
    "mixed": st.one_of(FLOAT_CELLS, st.integers(-(10**12) + 1, 10**12 - 1)),
    "str": st.text(alphabet=string.ascii_letters + string.digits + "_.-", max_size=12),
}


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    return [draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]


@given(tables())
@example([SPECIAL_FLOATS, LARGE_INTS, [f"s{k}" for k in range(len(LARGE_INTS))]])
@example([[1.5, 3, -4, 0, 10**12 - 1]])
def test_format_rows_matches_per_cell_rendering(columns):
    expected = "".join(
        ",".join(_format_value(cell) for cell in row) + "\n" for row in zip(*columns)
    )
    assert _format_rows(columns) == expected


def test_format_rows_rejects_ragged_columns():
    with pytest.raises(ValueError):
        _format_rows([[1.0, 2.0], [1.0]])


@st.composite
def square_maps(draw):
    """An axis of 1 to 40 floats and a square value array on it, drawn from
    the axis, the edge-case floats and a few more (NaN among them)."""
    n = draw(st.integers(1, 40))
    axis = draw(st.lists(FLOAT_CELLS, min_size=n, max_size=n))
    pool = np.array([*axis, *SPECIAL_FLOATS, *draw(st.lists(FLOAT_CELLS, max_size=20))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(axis), rng.choice(pool, size=(n, n))


@given(square_maps())
@example((np.array(SPECIAL_FLOATS), np.full((11, 11), math.nan)))
@example((np.array([-0.0, 0.0, -0.0]), np.array([[0.0, -0.0, math.nan]] * 3)))
def test_format_map_equals_the_rows_of_the_meshgrid_table(axis_and_values):
    axis, values = axis_and_values
    x, y = np.meshgrid(axis, axis)
    assert _format_map(axis, values) == _format_rows([x.ravel(), y.ravel(), values.ravel()])


def test_format_map_peak_memory_stays_below_four_times_its_text():
    # One 151 x 151 map, as the maps benchmark renders it.  Formatting every
    # cell of meshgrid coordinate columns peaks at about 5x the text, and
    # coordinate columns of numpy strings at about 10x.
    axis = np.linspace(-0.5, 0.5, 151)
    x, y = np.meshgrid(axis, axis)
    values = np.random.default_rng(0).uniform(-np.pi, np.pi, x.shape)
    values[np.hypot(x, y) > 0.5] = np.nan
    tracemalloc.start()
    try:
        text = _format_map(axis, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 151 * 151
    assert peak < 4 * len(text)


def test_strategy_names_come_from_the_detect_table():
    # The six receivers are named once, in detect.STRATEGIES: a config takes
    # exactly those names, each at most once, and its help lists them.
    assert sorted(STRATEGIES) == ["ed_full", "ed_smart", "id", "id_noeq", "id_smart", "mf"]
    assert default_config("ber", strategies=tuple(STRATEGIES)).strategies == tuple(STRATEGIES)
    (field,) = [f for f in dataclasses.fields(ExperimentConfig) if f.name == "strategies"]
    assert all(name in field.metadata["help"] for name in STRATEGIES)
    with pytest.raises(ValueError, match=r"unknown strategies \['ed'\]"):
        default_config("ber", strategies=("mf", "ed"))
    with pytest.raises(ValueError, match="strategies must not repeat a name"):
        default_config("ber", strategies=("mf", "id", "mf"))


def test_run_spectrum_csv_contents(tmp_path):
    config = default_config(
        "spectrum", T=4.0, R=4.0, D=30.0, max_charge=4, n_values=10, out=str(tmp_path)
    )
    (path,) = run_spectrum(config)
    meta, header, rows = read_csv(path)
    assert meta["kind"] == "spectrum"
    assert {"count_svd", "count_oam_unfocused", "count_oam_focused"} <= meta.keys()
    assert header == ["index", "value_linear", "value_db_energy_scale", "label"]
    labels = {row[3] for row in rows}
    assert labels == {"svd", "oam_unfocused", "oam_focused"}
    svd_rows = [row for row in rows if row[3] == "svd"]
    assert len(svd_rows) == 10
    assert float(svd_rows[0][2]) == 0.0  # strongest coupling is the reference
    oam_rows = [row for row in rows if row[3] == "oam_focused"]
    assert len(oam_rows) == 2 * 4 + 1
    assert path.read_bytes().endswith(b"\n")


def test_run_spectrum_is_reproducible(tmp_path):
    config = default_config(
        "spectrum", T=4.0, R=4.0, D=30.0, max_charge=3, n_values=5, out=str(tmp_path)
    )
    (path,) = run_spectrum(config)
    first = path.read_bytes()
    (path,) = run_spectrum(config)
    assert path.read_bytes() == first


def test_run_spectrum_rejects_oversized_lattice(tmp_path):
    # The assembly budget is checked when the config is built, before any run.
    with pytest.raises(ValueError, match="coupling blocks would need .* GiB; increase"):
        default_config("spectrum", T=4000.0, R=4000.0, D=30000.0, out=str(tmp_path))
    assert not any(tmp_path.iterdir())


def test_run_dof_reproduces_mode_counts(tmp_path):
    config = default_config(
        "dof_vs_distance",
        preset="equal",
        distances=(50.0,),
        max_charge=10,
        out=str(tmp_path),
    )
    (path,) = run(config)
    _, header, rows = read_csv(path)
    assert header == ["distance", "preset", "label", "value"]
    values = {row[2]: float(row[3]) for row in rows}
    assert values["analytic"] == pytest.approx(4 * np.pi**2)
    assert values["svd"] == 42
    assert values["oam_unfocused"] == 11
    assert values["oam_focused"] == 19


def test_run_path_gain_rows_and_validation(tmp_path):
    config = default_config(
        "path_gain", distances=(50.0, 100.0), n_modes=5, out=str(tmp_path)
    )
    (path,) = run(config)
    _, header, rows = read_csv(path)
    assert header == ["distance", "preset", "label", "eta", "eta_db"]
    assert len(rows) == 2 * 3 * 2  # distances x presets x focus states
    for row in rows:
        eta = float(row[3])
        assert 0 < eta < 1
        assert float(row[4]) == pytest.approx(10 * np.log10(eta), abs=1e-9)
    with pytest.raises(ValueError):
        run_path_gain(dataclasses.replace(config, n_modes=4))


def test_run_ber_minimal(tmp_path):
    config = default_config(
        "ber",
        modes=(0,),
        strategies=("mf",),
        snr_db=(6.0,),
        trials=10_000,
        out=str(tmp_path),
    )
    (path,) = run(config)
    assert path.name == "ber_mf_l0.csv"
    meta, header, rows = read_csv(path)
    assert header == ["axis_db", "ber", "trials", "ci95"]
    assert meta["charge"] == "0" and meta["strategy"] == "mf"
    assert len(rows) == 1
    assert 0 <= float(rows[0][1]) <= 0.5
    assert rows[0][2] == "10000"


def test_run_tnr_minimal(tmp_path):
    config = default_config(
        "tnr", modes=(0,), tnr_db=(25.0,), trials=10_000, out=str(tmp_path)
    )
    paths = run(config)
    names = sorted(p.name for p in paths)
    assert names == ["tnr_ed_l0_full.csv", "tnr_ed_l0_smart.csv"]
    for path in paths:
        meta, header, rows = read_csv(path)
        assert header == ["axis_db", "ber", "trials", "ci95"]
        assert meta["snr_db"] == "19"
        assert len(rows) == 1


def test_run_profiles_minimal(tmp_path):
    config = default_config("profiles", modes=(1,), resolution=32, out=str(tmp_path))
    paths = run(config)
    assert len(paths) == 8  # three maps + one radial cut, focused and not
    names = {p.name for p in paths}
    assert "profile_l1_focused_rx_amplitude.csv" in names
    assert "radial_l1_unfocused.csv" in names
    map_path = next(p for p in paths if p.name == "profile_l1_focused_tx_phase.csv")
    _, header, rows = read_csv(map_path)
    assert header == ["x", "y", "value"]
    assert len(rows) == 32 * 32
    with pytest.raises(ValueError):
        run(dataclasses.replace(config, resolution=16))


def test_cli_flag_precedence_over_config_file(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("T = 8\nR = 4\nD = 30\nmax_charge = 2\nn_values = 5\n")
    out = tmp_path / "out"
    code = cli.main(
        [
            "spectrum",
            "--config",
            str(config_file),
            "--T",
            "6",
            "--lambda",
            "0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    meta, _, _ = read_csv(out / "spectrum.csv")
    assert meta["T"] == "6"  # flag wins over the file
    assert meta["R"] == "4"  # file wins over the default
    assert meta["wavelength"] == "0.2"
    assert meta["max_charge"] == "2"


def test_cli_forces_verb_kind(tmp_path):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("kind = ber\nT = 4\nR = 4\nD = 30\nmax_charge = 2\nn_values = 5\n")
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    meta, _, _ = read_csv(out / "spectrum.csv")
    assert meta["kind"] == "spectrum"
    # The file's kind does not bring its defaults: a key the file leaves
    # out keeps the verb's default, not the profiles one (D = 20, modes 0,1,3).
    config_file.write_text("kind = profiles\nT = 4\nR = 4\nmax_charge = 2\nn_values = 5\n")
    code = cli.main(["spectrum", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    meta, _, _ = read_csv(out / "spectrum.csv")
    assert meta["kind"] == "spectrum"
    assert meta["D"] == "50"
    assert meta["modes"] == "0,1,2,3,4"


@pytest.mark.parametrize(
    "argv",
    [["profiles", "--resolution", "32"], ["pathgain", "--preset", "equal", "--distances", "500"]],
)
def test_kinds_that_read_neither_slot_nor_spacing_skip_their_rules(tmp_path, argv):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("slot = 0.0001\nspacing = 100\n")
    assert cli.main([*argv, "--config", str(config_file), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "verb, message",
    [
        ("spectrum", "spacing 100 leaves no lattice site in a disk of radius 10"),
        ("ber", "one Monte Carlo chunk would need 18.6 GiB of noise for 100000 slots"),
    ],
)
def test_kinds_that_read_spacing_or_slot_apply_their_rules(tmp_path, capsys, verb, message):
    config_file = tmp_path / "run.cfg"
    config_file.write_text("slot = 0.0001\nspacing = 100\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([verb, "--config", str(config_file), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"oamlis: error: {verb}: {message}" in capsys.readouterr().err


def test_cli_rejects_unknown_strategy(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            [
                "ber",
                "--strategies",
                "bogus",
                "--out",
                str(tmp_path),
            ]
        )
    assert exc.value.code == 2
    assert "oamlis: error: ber: unknown strategies ['bogus']" in capsys.readouterr().err


#: Flags of configs that ExperimentConfig rejects, with the reason given.
BAD_BER_FLAGS = {
    ("--modes", "0", "--strategies", "mf,bogus"): "unknown strategies ['bogus']",
    ("--modes", "0,0", "--strategies", "mf"): "modes must not repeat a charge",
    ("--modes", "0", "--strategies", "mf,mf"): "strategies must not repeat a name",
    ("--seed", "-1"): "seed must be non-negative",
    ("--modes", "0,65", "--strategies", "mf"): "modes must have |charge| <= 64",
    ("--trials", "500"): "trials must be at least 10000",
    ("--trials", "1000000001"): "trials must be at most 1000000000",
    ("--trials", str(10**400)): "trials must be at most 1000000000",
}


@pytest.mark.parametrize("flags", list(BAD_BER_FLAGS))
def test_cli_rejects_bad_ber_config_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["ber", "--trials", "10000", *flags, "--out", str(out)])
    assert exc.value.code == 2
    usage, *_, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: oamlis")
    assert error.startswith("oamlis: error: ber: " + BAD_BER_FLAGS[flags])
    assert not out.exists()


#: Flags of spectrum configs that ExperimentConfig rejects, with the reason.
BAD_SPECTRUM_FLAGS = {
    ("--n-values", "-3"): "n_values must be at least 1",
    ("--max-charge", "-1"): "max_charge must be non-negative",
    ("--max-charge", "70"): "max_charge must be at most 64",
    # sqrt(2) * 3 = 4.243: the lattice pitch just outside the 3-wavelength disks.
    ("--spacing", "4.25"): "spacing 4.25 leaves no lattice site in a disk of radius 3; "
    "it must be at most sqrt(2) times each radius",
}


@pytest.mark.parametrize("flags", list(BAD_SPECTRUM_FLAGS))
def test_cli_rejects_bad_spectrum_config_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", *flags, "--T", "3", "--R", "3", "--D", "20", "--out", str(out)])
    assert exc.value.code == 2
    usage, *_, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: oamlis")
    assert error == "oamlis: error: spectrum: " + BAD_SPECTRUM_FLAGS[flags]
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("trials = 10000\nbogus = 1\n", "line 2: unknown config key 'bogus'"),
        ("seed = -3\n", "seed must be non-negative"),
        (None, "cannot read config file {path}: No such file or directory"),
        ("n_modes = 131\n", "n_modes must be at most 129"),
        ("T = 3\nseed = 1\n\nT = 5\n", "line 4: config key 'T' is already set"),
        ("D = inf\n", "D must be finite, got inf"),
    ],
    ids=["unknown-key", "negative-seed", "missing-file", "too-many-modes", "repeated-key", "inf"],
)
def test_cli_rejects_bad_config_file_before_writing(tmp_path, capsys, text, message):
    config = tmp_path / "bad.cfg"
    if text is not None:  # None: the file does not exist
        config.write_text(text)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["ber", "--config", str(config), "--out", str(out)])
    assert exc.value.code == 2
    usage, *_, error = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: oamlis")
    assert error == "oamlis: error: ber: " + message.format(path=config)
    assert not out.exists()


#: Argument lists with an empty list, a slot wider than R, a lattice pitch,
#: distance or lattice size that the lattice spectrum cannot take, or a NaN
#: or infinite float (one per verb), with the reason.
BAD_SHAPE_ARGV = {
    ("ber", "--modes="): "modes must not be empty",
    ("tnr", "--modes="): "modes must not be empty",
    ("ber", "--strategies="): "strategies must not be empty",
    ("profiles", "--modes="): "modes must not be empty",
    ("dof", "--distances="): "distances must not be empty",
    ("ber", "--T", "2", "--R", "2", "--D", "20", "--slot", "5"): "slot must be at most",
    ("tnr", "--R", "2", "--slot", "2.5"): "slot must be at most",
    ("ber", "--slot", "0.0001"): "one Monte Carlo chunk would need 18.6 GiB of noise for "
    "100000 slots; at most 10737 slots fit in the 2 GiB chunk budget",
    ("spectrum", "--T", "1", "--R", "1", "--D", "20", "--spacing", "2"): "spacing 2 leaves no",
    ("spectrum", "--T", "1", "--R", "1", "--D", "0.001"): "distance 0.001 is under 0.01",
    ("dof", "--distances", "-5"): "distances must be positive",
    ("dof", "--distances", "50,0.001"): "distance 0.001 is under 0.01",
    ("dof", "--preset", "downlink", "--spacing", "7.1"): "spacing 7.1 leaves no",
    ("spectrum", "--T", "4000", "--R", "4000"): "coupling blocks would need 150598211.7 GiB; "
    "increase the lattice pitch to at least 46.6 wavelengths",
    ("dof", "--preset", "downlink", "--spacing", "0.001"): "coupling blocks would need",
    ("pathgain", "--distances", "0"): "distances must be positive",
    ("spectrum", "--threshold-db", "nan"): "threshold_db must be finite, got nan",
    ("dof", "--distances", "50,inf"): "distances must be finite, got 50,inf",
    ("pathgain", "--distances", "inf"): "distances must be finite, got inf",
    ("ber", "--snr-db=nan", "--modes", "0", "--strategies", "mf"): "snr_db must be finite, got nan",
    ("ber", "--snr-db=inf"): "snr_db must be finite, got inf",
    ("tnr", "--snr", "nan"): "tnr_snr_db must be finite, got nan",
    ("tnr", "--tnr-db=20,nan"): "tnr_db must be finite, got 20,nan",
    ("profiles", "--lambda", "inf"): "wavelength must be finite, got inf",
    ("profiles", "--D=-inf"): "D must be finite, got -inf",
}


@pytest.mark.parametrize("argv", list(BAD_SHAPE_ARGV), ids=" ".join)
def test_cli_rejects_empty_lists_and_wide_slots_before_writing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith(f"oamlis: error: {argv[0]}: {BAD_SHAPE_ARGV[argv]}")
    assert not any(out.iterdir())


def test_run_ber_shares_one_draw_across_curves(tmp_path):
    # Two chunks per point: every curve of one run reads the same draws as
    # a run of that (charge, strategy) alone at the same seed.
    config = default_config(
        "ber",
        modes=(0, 2, 4),
        strategies=("mf", "id", "id_smart", "ed_full", "ed_smart"),
        snr_db=(4.0, 10.0),
        trials=CHUNK_TRIALS + 5_000,
        seed=7,
        out=str(tmp_path),
    )
    paths = run(config)
    assert len(paths) == 15
    for path in paths:
        meta, _, rows = read_csv(path)
        (alone,), _ = ber_curves(
            config.scenario(),
            [(int(meta["charge"]), meta["strategy"])],
            config.snr_db,
            trials=config.trials,
            seed=config.seed,
            mode_set=config.modes,
            slot=config.slot * config.wavelength,
            drop_db=config.drop_db,
        )
        expected = [
            [format(a, ".12g"), format(b, ".12g"), str(n), format(c, ".12g")]
            for a, b, n, c in zip(alone.axis_db, alone.ber, alone.trials, alone.ci95)
        ]
        assert rows == expected


@pytest.fixture
def count_draws(monkeypatch):
    calls = []
    blocks = NoiseModel.blocks

    def counted(self, rng, count, *args):
        calls.append(count)
        return blocks(self, rng, count, *args)

    monkeypatch.setattr(NoiseModel, "blocks", counted)
    return calls


@pytest.mark.parametrize(
    "modes, strategies", [((0,), ("mf",)), ((0, 4), ("mf", "id_smart", "ed_smart"))]
)
def test_ber_and_tnr_draw_once_per_chunk(tmp_path, count_draws, modes, strategies):
    # P points x 2 chunks for ber, 2 chunks for tnr, whatever the branch
    # count.  The units run on helper threads too, so the order is not fixed.
    shared = dict(modes=modes, trials=CHUNK_TRIALS + 5_000, out=str(tmp_path))
    snr_db = (4.0, 8.0, 12.0)
    run(default_config("ber", strategies=strategies, snr_db=snr_db, **shared))
    assert Counter(count_draws) == Counter({CHUNK_TRIALS: len(snr_db), 5_000: len(snr_db)})
    count_draws.clear()
    run(default_config("tnr", tnr_db=(25.0,), **shared))
    assert Counter(count_draws) == Counter({CHUNK_TRIALS: 1, 5_000: 1})


def _python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter that imports this checkout's oamlis."""
    src = str(Path(oamlis.__file__).resolve().parents[1])
    full_env = {**os.environ, **(env or {})}
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, full_env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=full_env,
        capture_output=True,
        text=True,
        check=True,
    )


def _csv_bytes_without_out_line(directory: Path) -> dict:
    return {
        path.relative_to(directory).as_posix(): [
            line for line in path.read_text().splitlines() if not line.startswith("# out")
        ]
        for path in sorted(directory.rglob("*.csv"))
    }


def _run_digests(tmp_path, runs) -> dict:
    """SHA-256 of each CSV, without its ``# out`` line, by run and file, of
    each CLI run of ``runs``."""
    digests = {}
    for run_name, argv in runs.items():
        out = tmp_path / run_name
        cli.main([*argv, "--out", str(out)])
        digests[run_name] = {
            name: hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
            for name, lines in _csv_bytes_without_out_line(out).items()
        }
    return digests


def test_ber_and_tnr_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The scoring products avoid threaded BLAS, so no reduction order, and
    # hence no decision near a threshold, can change with the thread count.
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        _python(
            "import sys\n"
            "from oamlis import cli\n"
            "for verb in ('ber', 'tnr'):\n"
            "    cli.main([verb, '--trials', '10000', '--out', f'{sys.argv[1]}/{verb}'])\n",
            str(out),
            env={"OPENBLAS_NUM_THREADS": threads},
        )
        outputs[threads] = _csv_bytes_without_out_line(out)
    assert len(outputs["1"]) == 30
    assert outputs["1"] == outputs["2"]


_TWO_CHUNKS = f"--trials={CHUNK_TRIALS + 5_000}"
_SIX_RECEIVERS = [
    "ber", "--modes=-3,0,4", "--strategies=mf,id,id_noeq,id_smart,ed_full,ed_smart",
    "--snr-db=4,10", _TWO_CHUNKS,
]
#: Receiver runs whose CSVs are pinned: every strategy name, negative, zero
#: and positive charges, two chunks per point, focused and unfocused.
PINNED_RECEIVER_RUNS = {
    "focused": _SIX_RECEIVERS,
    "unfocused": [*_SIX_RECEIVERS, "--unfocused"],
    "tnr": ["tnr", "--modes=-3,4", _TWO_CHUNKS],
}
#: SHA-256 of each CSV of those runs without its ``# out`` line, by run and file.
PINNED_RECEIVER_SHA256 = {
    "focused": {
        "ber_ed_full_l-3.csv": "864cb39bed4857b299a4336cbdeca7151f7d245a83ef61c3d8b9a381817579f8",
        "ber_ed_full_l0.csv": "5053d51213f3b415f8f02e8c9144b8aac3f60718d441f8fafa4b4c34e5f2f634",
        "ber_ed_full_l4.csv": "5ff925193e15e20f085b5e9c750e24c64ee1e128fb35cca104afcce702f3e9ab",
        "ber_ed_smart_l-3.csv": "1338e02172471af4b6d5dd466e4c4193924b2266153dde052facf1994c10fa50",
        "ber_ed_smart_l0.csv": "3884f8eed7eccfc0bc77d9c9e39fc191f348b2c0938b166f92dd4600599f0c43",
        "ber_ed_smart_l4.csv": "56f1e5d38b4762b676c1689ab35ec8f322351a533b3b72fc34bb2c73d0b548d7",
        "ber_id_l-3.csv": "20ae95827d29907ed9451afb2cf82aa4ed52b809cab91be0eb742962a0bac552",
        "ber_id_l0.csv": "a0856ccdb51eeb264d7fe4405d9ee56bbb3de3b217d6a6c99a7117f746481af8",
        "ber_id_l4.csv": "f367e7341ee0f46c7873d35a9e6b898adcff3eb6bf5d11e916d1abc56ab3b05e",
        "ber_id_noeq_l-3.csv": "4cbd23f1924b5716c0cd6f51e8a4c657a12a8b5752e144d98d369bc851df5394",
        "ber_id_noeq_l0.csv": "264cb1182f32d401d9cbe59c8467a886b1f74102fd18a34124054efd840d6193",
        "ber_id_noeq_l4.csv": "995b05bde0bd8818fc4874492cf11a0b92150752e941c1e3475c4c08ee2add2b",
        "ber_id_smart_l-3.csv": "24a93b844775b6c64e6880489c96a3300c38d283fbeb5f6c6214fb1b88bedb4c",
        "ber_id_smart_l0.csv": "a86e641f908f7e1e0a99145ae0b9f19c143af1d032046781ca6fbca680be342c",
        "ber_id_smart_l4.csv": "d22a1526f4d805c146f55d58b6a14d9531be3a5f21fdb41ddcce8a234dfa680b",
        "ber_mf_l-3.csv": "ceb75a1075c8f71597e9486d2bc134ad130100f59c1ea6ff70763efa83199f55",
        "ber_mf_l0.csv": "8ccf1b31d0b43f45cbff3132b84e4628117f3bcec8037c26d3a415eaaa709325",
        "ber_mf_l4.csv": "ae715378df081482091c51d1f1879cefce19ba9807d1f910627b664c426dae9d",
    },
    "unfocused": {
        "ber_ed_full_l-3.csv": "d0419c2c63967119f7e345bfbf134f4f9ea6d91b387d5868e90df6233a9e9cf4",
        "ber_ed_full_l0.csv": "51065baa4489fdf288d633a9e4acc801c02ed0a781901ccefc19ff45d05997c8",
        "ber_ed_full_l4.csv": "9cc89fcff73e2195fddd1698d95a7c503d35372b0fb10b923f0b1b10dd3c805c",
        "ber_ed_smart_l-3.csv": "03a5238da4211711609cbba03b9d7b84d38f4e0876c6dc5bee328150f2cc1634",
        "ber_ed_smart_l0.csv": "f3af3fd240ba2d1adccb22bd0ffe7b4d8aa8a49b9aabd22aabdf8c49685fa91d",
        "ber_ed_smart_l4.csv": "1a696c7a48ccaec774d5cff7ecf5323603c54d53171d89ecc29a3ab6c47313eb",
        "ber_id_l-3.csv": "cfe12293d6169694b5982f9a9a88e6d6b27fa6b3a10ca6c2f195dcfb7b344cc9",
        "ber_id_l0.csv": "e64381e77e60f92d64d82aba68fa1d180a212e6dd564580082407703b178d0fd",
        "ber_id_l4.csv": "5bb57c13be903428072508d72c941e7076c5350771326fa513642ee8db910843",
        "ber_id_noeq_l-3.csv": "05982fd4b0dbc07263161948b80af6c975b867132ad23f6628877f1d818bfcdf",
        "ber_id_noeq_l0.csv": "b5334282afdec670f8e31ae3363377930b8b7c0225dbf88349e3c34809954422",
        "ber_id_noeq_l4.csv": "25824f6fd18a3788800e9691bb8c0c6b424a4f16e9653099c370a1292f5e8fc5",
        "ber_id_smart_l-3.csv": "12418b0b09c60302214b984e0afdc4d2c2c2c74ae3fa2518d293ee3ce77d6e6d",
        "ber_id_smart_l0.csv": "3519c86298b48384e9cb54858aabe7e2f5cac5ea88878e77f1cb8067f530a262",
        "ber_id_smart_l4.csv": "6386cc7bd8e226ce802d0f1ff328f8ca05152c30dcb8122a907e09b65595bd67",
        "ber_mf_l-3.csv": "c3cc91909d57cb24a855adfdfe189b24e9dabeb27d5a658a9e0e3286eba6797d",
        "ber_mf_l0.csv": "351118be3e2f9678b03a040ace8e4f06b7b70463b72fdb864b7a5f91132b2300",
        "ber_mf_l4.csv": "669ac40903bd2459a3e52d7fb688fc054b39d24f61eef079fe8a21ee917dfe98",
    },
    "tnr": {
        "tnr_ed_l-3_full.csv": "dd7e9d066b314a05c06bf9dc3d002421146a62d9631dabb2ce25cd01b86cba14",
        "tnr_ed_l-3_smart.csv": "c6d7f339ff86e781a37ab54d23e28403eb48394a8d591b241217ad751a0c6ed6",
        "tnr_ed_l4_full.csv": "6ea9d80c81662530253892df791ed8656f482389519335a16a914e3dfb7e28ff",
        "tnr_ed_l4_smart.csv": "b1b94e15ac3ba25a8fe0b686899b1128b659fd2a817b0cff7e1c7e90b2e18004",
    },
}


def test_receiver_csv_bytes_are_pinned(tmp_path, capsys):
    assert _run_digests(tmp_path, PINNED_RECEIVER_RUNS) == PINNED_RECEIVER_SHA256
    capsys.readouterr()


#: Lattice-SVD and path-gain runs whose CSVs are pinned, and the SHA-256 of
#: each CSV without its ``# out`` line.
PINNED_LINK_RUNS = {
    "spectrum": ["spectrum", "--T=4", "--R=4", "--D=30", "--max-charge=3", "--n-values=20"],
    "dof": ["dof", "--preset=downlink", "--distances=60,120", "--max-charge=5"],
    "pathgain": ["pathgain", "--distances=100,500", "--n-modes=11"],
}
PINNED_LINK_SHA256 = {
    "spectrum": {
        "spectrum.csv": "6a5c334b2f6156f6db6ec7293cc3e50504e7df75a162c885cfa76dba69f8075f",
    },
    "dof": {
        "dof_vs_distance.csv": "92e5be9a3238b802923ddcce25413a6867c7f477d03547f81b8b353ba3b0e73e",
    },
    "pathgain": {
        "path_gain.csv": "8100a13ea579358633f920258b9d65794856b64a0799b82389c3370473865c2c",
    },
}


def test_link_csv_bytes_are_pinned(tmp_path, capsys):
    assert _run_digests(tmp_path, PINNED_LINK_RUNS) == PINNED_LINK_SHA256
    capsys.readouterr()


#: Profile runs whose CSVs are pinned: the defaults, and two different axes
#: at an odd resolution, which puts 0 on the axis.
PINNED_PROFILE_RUNS = {
    "defaults": ["profiles", "--resolution=32"],
    "odd": ["profiles", "--T=4", "--R=6", "--D=30", "--modes=0,2", "--resolution=33"],
}
PINNED_PROFILE_SHA256 = {
    "defaults": {
        "profile_l0_focused_rx_amplitude.csv": "3ac0b41387bd6d66332871232aac5648617b34cce22b5d0dfd81fbc8cfb48912",
        "profile_l0_focused_rx_phase.csv": "d60337239e3beb82c44f087f52f35ea131a30c963327e60905e95e0093175ba7",
        "profile_l0_focused_tx_phase.csv": "cabdc20838bccfbc52ad021a61540a693253dba1e280a45f809b6caa1ae891dd",
        "profile_l0_unfocused_rx_amplitude.csv": "a1f240fa5ec2aad2060a993f3323d59e29e5751bccf5fd6dc02e2d44aa946b55",
        "profile_l0_unfocused_rx_phase.csv": "00e466a7229dc38ee68e4e166e49583e6e6ae4f8fb73da19834141ad5b0692e8",
        "profile_l0_unfocused_tx_phase.csv": "fc360eb156383acf711066ff2337452862b2c11a2ba0548cfd218d01ce7e6d21",
        "profile_l1_focused_rx_amplitude.csv": "9b8832b262e2bb1e58942e3979f441ccc91d0b2b6012c9dfd78f07f86f1d12b4",
        "profile_l1_focused_rx_phase.csv": "50890546f2de997b9aea3676d6839e2aec86ae2d44b068489b4e0c27480e4d12",
        "profile_l1_focused_tx_phase.csv": "c1273073f3d18081b4291de55b45bebbd46b34a05a1a3b7605969592a02e7594",
        "profile_l1_unfocused_rx_amplitude.csv": "ed1028882324a95c95994e8d57711d5ec88f858e224a633b243d8953ba9aee25",
        "profile_l1_unfocused_rx_phase.csv": "36e85999b57a6ae1d028910a9f4d1ac09ccad85338fc6e5a8339fe6f07b30514",
        "profile_l1_unfocused_tx_phase.csv": "25ba63a1a1d6182d5bd9da8fb08924a127395ea0be1da859755b9d9e30c63337",
        "profile_l3_focused_rx_amplitude.csv": "41cdfc99fa5272d5d30286fb7927eded0b2882cf67edd2ec0b84734da8a7da41",
        "profile_l3_focused_rx_phase.csv": "c8317e6651e787b46f9a7d2df86b85d1b849a90b086118854068b3a94cb44aae",
        "profile_l3_focused_tx_phase.csv": "6bc72e7fa2b316286b524217149d1833f66dfd1b94583c4f1677f4d30e3fe7a2",
        "profile_l3_unfocused_rx_amplitude.csv": "9e4b530244fb5fa96811a3df8a07c70779444d5f5adb942a9c5afef6972c81f0",
        "profile_l3_unfocused_rx_phase.csv": "06a21244ccac83334dd12133d564aae885caaadc2b8d43ec9b2a453b40c7e6d9",
        "profile_l3_unfocused_tx_phase.csv": "543ad9fb188082f6983030adef2424493bc83c9de1ab655cba4acbc45fcc95be",
        "radial_l0_focused.csv": "6cdc4ef8abde75aa1e29cfdb0a356009f9cc7dc011c8019948e6b0b5e65d41b0",
        "radial_l0_unfocused.csv": "8dc0a9fe4379c214eef303decc7a742b12c609b5c6dfb8172c229832f11e01fb",
        "radial_l1_focused.csv": "1df7692288247a8f6523b42a201fb2d8d1d4b04803a1e61734ecc5e9cd53a3a8",
        "radial_l1_unfocused.csv": "e7067d586c90b0b613929de9320a859920566dcbc16ff34c5e5c1239d76d88c5",
        "radial_l3_focused.csv": "6d0ded4eb99644fddd3a7b862afc484c2a8ba3205982fd7223289edb7fd2de26",
        "radial_l3_unfocused.csv": "c0e49c9d2e763d578c0f1615b3b91eba44d302213811fb93f180df23e047b82c",
    },
    "odd": {
        "profile_l0_focused_rx_amplitude.csv": "bb1a3e9e3721feb922c5e7fb5e4f631f79dbc1ded55f94c31455ab9ae013a38b",
        "profile_l0_focused_rx_phase.csv": "8e988155e44b11ff56deedb41919708ddb9ba047fb34a9d684a3fd6735aa3ef5",
        "profile_l0_focused_tx_phase.csv": "ba7f65e0f2c2b13d016e03d79aaab1a27c0c778dc0ae5024454553fb8ab47b89",
        "profile_l0_unfocused_rx_amplitude.csv": "95216b72dcb1fef13230ed3f12fbde03931af3082aac9707de9fa3b2852752a3",
        "profile_l0_unfocused_rx_phase.csv": "da6a8c519e74026c24442830cffff4e0263f528d586d4d2d775bba6772410fe8",
        "profile_l0_unfocused_tx_phase.csv": "c248f3a57d86897d908a92e06f4c3c7c08f74037cde1ba8c00047a0cb62b98c6",
        "profile_l2_focused_rx_amplitude.csv": "34f5e9bf5d47ab72347190a854425d6b3348060e04a2fc9d85827c9b73b08d51",
        "profile_l2_focused_rx_phase.csv": "be9da32d7a9d213930875ed25b275f3d2c7e4463e803bac24bc9530a5d56aa8d",
        "profile_l2_focused_tx_phase.csv": "8da7122ba9a3db2872e4a4079638490252e612926cc404ce88b2e3d7a53d2ac9",
        "profile_l2_unfocused_rx_amplitude.csv": "2a4cc2445ddbc1189a1abecf7ab2804001c72bd3a480362cbe3d356601e5c682",
        "profile_l2_unfocused_rx_phase.csv": "ee8554ae3a0cce57e9f0a252aab8ebbe6a39a9c0cff2ff2ca2a80052716a1c29",
        "profile_l2_unfocused_tx_phase.csv": "d62eab2a723c6b5ca7a805bec1b134aa5e9e10424684fd0da173c7e7d3256b81",
        "radial_l0_focused.csv": "bd26919f0e15ca8e7ef9fb2f586667d7f6c610660d79002b77ed20cfd9aa79d9",
        "radial_l0_unfocused.csv": "0d76ba518ce526af71b88c7ae5cb9ccf0adc20eb16d71bcc3d4e65b282ccf706",
        "radial_l2_focused.csv": "879bb30071a502774840597af329ea2baceb59475fe41c191c92608c4d1df0f4",
        "radial_l2_unfocused.csv": "5e0324e2e75caff799210c62d187d9bcedbd1bc13ad837728c5976c308246ad4",
    },
}


def test_profile_csv_bytes_are_pinned(tmp_path, capsys):
    assert _run_digests(tmp_path, PINNED_PROFILE_RUNS) == PINNED_PROFILE_SHA256
    capsys.readouterr()


#: Receiver runs whose smart window at a 0.001 dB drop falls between two
#: slot midpoints, with the index of that window's branch and the CSVs.
NARROW_WINDOW_RUNS = {
    "ber": (
        ["ber", "--drop-db=0.001", "--strategies=id_smart", "--modes=0"],
        0,
        ["ber_id_smart_l0.csv"],
    ),
    "tnr": (
        ["tnr", "--drop-db=0.001", "--modes=4"],
        1,
        ["tnr_ed_l4_full.csv", "tnr_ed_l4_smart.csv"],
    ),
}


@pytest.mark.parametrize("verb", list(NARROW_WINDOW_RUNS))
def test_window_narrower_than_the_slot_grid_keeps_one_slot(tmp_path, capsys, monkeypatch, verb):
    argv, branch, names = NARROW_WINDOW_RUNS[verb]
    scorers = []

    class Recorded(detect._Scorer):
        def __init__(self, *args):
            super().__init__(*args)
            scorers.append(self)

    monkeypatch.setattr(detect, "_Scorer", Recorded)
    assert cli.main([*argv, "--trials=10000", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    (scorer,) = scorers
    # The branch's template, in (re, im) pairs per slot, is non-zero on its window alone.
    assert np.count_nonzero(scorer.rows[branch].reshape(-1, 2).any(axis=1)) == 1
    assert sorted(path.name for path in tmp_path.glob("*.csv")) == names
    for name in names:
        _, header, rows = read_csv(tmp_path / name)
        assert header[0] == "axis_db" and rows


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs every CLI run a third of a second of import time,
    # scipy.integrate (with linalg, optimize and sparse) another quarter.
    for module in ("scipy.stats", "scipy.integrate"):
        done = _python(f"import sys, oamlis.cli; print({module!r} in sys.modules)")
        assert done.stdout.strip() == "False", module


_COMMON_OPTIONS = [
    (["-h", "--help"], "help"),
    (["--config"], "config"),
    (["--out"], "out"),
    (["--lambda"], "wavelength"),
]
_GEOMETRY_OPTIONS = [(["--T"], "T"), (["--R"], "R"), (["--D"], "D")]
_FOCUS_OPTIONS = [(["--focused"], "focused"), (["--unfocused"], "focused")]
_MONTE_CARLO_OPTIONS = [(["--trials"], "trials"), (["--seed"], "seed")]
_VERB_OPTIONS = {
    "spectrum": [
        *_GEOMETRY_OPTIONS,
        (["--threshold-db"], "threshold_db"),
        (["--spacing"], "spacing"),
        (["--max-charge"], "max_charge"),
        (["--n-values"], "n_values"),
    ],
    "dof": [
        (["--preset"], "preset"),
        (["--distances"], "distances"),
        (["--threshold-db"], "threshold_db"),
        (["--spacing"], "spacing"),
        (["--max-charge"], "max_charge"),
    ],
    "pathgain": [
        (["--preset"], "preset"),
        (["--distances"], "distances"),
        (["--n-modes"], "n_modes"),
    ],
    "ber": [
        *_GEOMETRY_OPTIONS,
        (["--modes"], "modes"),
        (["--snr-db"], "snr_db"),
        (["--strategies"], "strategies"),
        (["--drop-db"], "drop_db"),
        (["--slot"], "slot"),
        *_FOCUS_OPTIONS,
        *_MONTE_CARLO_OPTIONS,
    ],
    "tnr": [
        *_GEOMETRY_OPTIONS,
        (["--modes"], "modes"),
        (["--snr"], "tnr_snr_db"),
        (["--tnr-db"], "tnr_db"),
        (["--drop-db"], "drop_db"),
        (["--slot"], "slot"),
        *_FOCUS_OPTIONS,
        *_MONTE_CARLO_OPTIONS,
    ],
    "profiles": [
        *_GEOMETRY_OPTIONS,
        (["--modes"], "modes"),
        (["--resolution"], "resolution"),
    ],
}


def test_cli_options_per_verb(capsys):
    parser = cli.build_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(verbs.choices) == list(_VERB_OPTIONS)
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    for verb, sub in verbs.choices.items():
        options = [(action.option_strings, action.dest) for action in sub._actions]
        assert options == _COMMON_OPTIONS + _VERB_OPTIONS[verb], verb
        assert {dest for _, dest in options} - {"help", "config"} <= fields
    # A flag that the verb's runner does not read is a usage error.
    with pytest.raises(SystemExit) as exc:
        cli.main(["pathgain", "--T", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --T 3" in capsys.readouterr().err


def test_cli_rejects_bad_tuple_value_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ber", "--modes", "0,x"])
    assert exc.value.code == 2
    assert "--modes" in capsys.readouterr().err


def test_cli_requires_verb(capsys):
    with pytest.raises(SystemExit):
        cli.main([])
    capsys.readouterr()
