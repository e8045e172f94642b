"""Command line front end: one verb per experiment, CSV artifacts out.

Precedence of settings, lowest to highest: the verb's built-in defaults,
then the ``--config`` file, then explicit flags.  A config file may set any
key, but the verb fixes the kind.  Every run prints the paths of the files
it wrote.

Each flag is one :class:`~oamlis.experiments.ExperimentConfig` field: its
help text, spelling and value parser all come from the field.  The verbs
come from the one table of experiment kinds,
:data:`~oamlis.experiments.EXPERIMENTS`: each row gives a verb, its help
line and the fields its runner reads, which are its flags.  A new verb is
one row there; this module names no verb or kind.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import experiments

#: Flags every verb takes, after ``--config``.
_COMMON = ("out", "wavelength")


def _add_field(parser: argparse.ArgumentParser, field: dataclasses.Field) -> None:
    options = dict(field.metadata)
    if field.name == "focused":
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--focused", dest="focused", action="store_const", const=True, **options)
        group.add_argument(
            "--unfocused", dest="focused", action="store_const", const=False,
            help="plain helical transmit profiles without focusing",
        )
        return
    flag = options.pop("flag", "--" + field.name.replace("_", "-"))
    parser.add_argument(
        flag, dest=field.name, type=experiments.FIELD_PARSERS[field.name], **options
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamlis",
        description="Near-field link simulator for two circular surfaces: "
        "communication modes, OAM beams and receiver performance.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    fields = {field.name: field for field in dataclasses.fields(experiments.ExperimentConfig)}
    for kind, experiment in experiments.EXPERIMENTS.items():
        p = sub.add_parser(experiment.verb, help=experiment.help)
        p.set_defaults(kind=kind)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        for name in (*_COMMON, *experiment.fields):
            _add_field(p, fields[name])
    return parser


def _build_config(args: argparse.Namespace) -> experiments.ExperimentConfig:
    settings = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as err:
            raise ValueError(f"cannot read config file {args.config}: {err.strerror}") from err
        settings = experiments.parse_config_keys(text)
    # The verb sets ``args.kind``, so its defaults are the base whatever the file says.
    settings.update(
        (key, value)
        for key, value in vars(args).items()
        if key not in ("verb", "config") and value is not None
    )
    return experiments.apply_overrides(experiments.default_config(args.kind), **settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
    except ValueError as err:
        # An unreadable config file, or a config that ExperimentConfig
        # rejects, is a usage error, caught before any output is written.
        parser.error(f"{args.verb}: {err}")
    for path in experiments.run(config):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
