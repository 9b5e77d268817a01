"""Pins the CLI surface: every subcommand's options and their parsing.

For each subcommand of :func:`repro.__main__.build_parser` this records
every option's strings with its default, ``nargs``, ``choices`` and
``required``.  Help wording and option order may change; a flag added,
removed, renamed or re-defaulted fails here.
"""

import argparse

from repro.__main__ import build_parser

# (default, nargs, choices, required) per option; positionals by dest.
SURFACE = {
    "plan": {
        "--fallback": (False, 0, None, False),
        "--goal": (None, "+", None, True),
        "--hierarchical": (False, 0, None, False),
        "--initial": ([], "+", None, False),
        "--json": (None, None, None, False),
        "--levels": (None, "*", None, False),
        "--metrics": (False, 0, None, False),
        "--network": (None, None, None, True),
        "--profile-out": (None, None, None, False),
        "--spec": (None, None, None, True),
        "--strict": (False, 0, None, False),
        "--time-limit": (None, None, None, False),
        "--trace-format": ("jsonl", None, ("jsonl", "chrome"), False),
        "--trace-out": (None, None, None, False),
        "--workers": (1, None, None, False),
    },
    "simulate": {
        "--campaign": (None, None, None, False),
        "--checkpoint": (None, None, None, False),
        "--events": (None, None, None, False),
        "--goal": (None, "+", None, True),
        "--initial": ([], "+", None, False),
        "--inject-kill": (None, "+", None, False),
        "--json": (None, None, None, False),
        "--levels": (None, "*", None, False),
        "--live": (False, 0, None, False),
        "--metrics": (False, 0, None, False),
        "--network": (None, None, None, True),
        "--resume": (False, 0, None, False),
        "--seed": (None, None, None, False),
        "--seeds": (None, "+", None, False),
        "--spec": (None, None, None, True),
        "--time-limit": (None, None, None, False),
        "--timings": (False, 0, None, False),
        "--trace-format": ("jsonl", None, ("jsonl", "chrome"), False),
        "--trace-out": (None, None, None, False),
        "--workers": (1, None, None, False),
    },
    "controller": {
        "--campaign": (None, None, None, False),
        "--checkpoint": (None, None, None, False),
        "--delta": (False, 0, None, False),
        "--events": (None, None, None, False),
        "--fleet": (None, None, None, False),
        "--goal": (None, "+", None, True),
        "--initial": ([], "+", None, False),
        "--inject-kill": (None, "+", None, False),
        "--json": (None, None, None, False),
        "--levels": (None, "*", None, False),
        "--live": (False, 0, None, False),
        "--metrics": (False, 0, None, False),
        "--network": (None, None, None, True),
        "--resume": (False, 0, None, False),
        "--seed": (None, None, None, False),
        "--spec": (None, None, None, True),
        "--time-limit": (None, None, None, False),
        "--timings": (False, 0, None, False),
        "--trace-format": ("jsonl", None, ("jsonl", "chrome"), False),
        "--trace-out": (None, None, None, False),
        "--workers": (1, None, None, False),
    },
    "bench": {
        "--flat-time-limit": (120.0, None, None, False),
        "--hierarchical": (False, 0, None, False),
        "--json": (None, None, None, False),
        "--live": (False, 0, None, False),
        "--metrics": (False, 0, None, False),
        "--networks": (["Tiny", "Small", "Large"], "+", None, False),
        "--no-cache": (False, 0, None, False),
        "--profile-out": (None, None, None, False),
        "--rounds": (1, None, None, False),
        "--scenarios": (["B", "C", "D", "E"], "+", None, False),
        "--static-prune": (None, None, ("off", "dead", "symmetry", "full"), False),
        "--stub-domains": ([4, 11, 33], "+", None, False),
        "--trace-format": ("jsonl", None, ("jsonl", "chrome"), False),
        "--trace-out": (None, None, None, False),
        "--workers": (1, None, None, False),
    },
    "lint": {
        "--format": ("text", None, ("text", "json"), False),
        "--goal": (None, "+", None, True),
        "--initial": ([], "+", None, False),
        "--levels": (None, "*", None, False),
        "--network": (None, None, None, True),
        "--no-deep": (False, 0, None, False),
        "--spec": (None, None, None, True),
        "--werror": (False, 0, None, False),
    },
    "analyze": {
        "--audit": (False, 0, None, False),
        "--fig10": (False, 0, None, False),
        "--format": ("text", None, ("text", "json"), False),
        "--goal": (None, "+", None, False),
        "--initial": ([], "+", None, False),
        "--levels": (None, "*", None, False),
        "--network": (None, None, None, False),
        "--prune": ("full", None, ("dead", "symmetry", "full"), False),
        "--spec": (None, None, None, False),
    },
    "table2": {
        "--networks": (["Tiny", "Small", "Large"], "+", None, False),
        "--scenarios": (["A", "B", "C", "D", "E"], "+", None, False),
    },
    "trace": {},
    "trace summarize": {
        "file": (None, None, None, True),
    },
    "gen-network": {
        "--cpu": (30.0, None, None, False),
        "--lan-bw": (150.0, None, None, False),
        "--seed": (2004, None, None, False),
        "--stub-size": (10, None, None, False),
        "--stubs-per-transit": (3, None, None, False),
        "--transit-nodes": (3, None, None, False),
        "--wan-bw": (70.0, None, None, False),
        "-o/--output": ("-", None, None, False),
    },
}


def _subparsers(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,), sub
                yield from _subparsers(sub, prefix + (name,))


def _surface(parser):
    return {
        " ".join(path): {
            "/".join(a.option_strings) or a.dest: (a.default, a.nargs, a.choices, a.required)
            for a in sub._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
        }
        for path, sub in _subparsers(parser)
    }


def test_subcommands_pinned():
    assert set(_surface(build_parser())) == set(SURFACE)


def test_options_pinned():
    surface = _surface(build_parser())
    for command, options in SURFACE.items():
        assert surface[command] == options, command
