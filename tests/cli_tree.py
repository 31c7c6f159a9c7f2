"""The CLI's whole command tree, built through argparse's own path.

build_parser() fills a subcommand only when argparse selects it, so this
selects every path once with -h: argparse fills each node on the way, and
the help it prints is thrown away.  Run with src/ and tests/ on the path.
"""

import argparse
import contextlib
import io

from ramseyprog.cli import build_parser


def full_tree():
    """A fresh build_parser() with every subcommand filled, and its leaves
    as {path: subparser} in registration order."""
    parser = build_parser()
    leaves = {}

    def walk(node, path):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            parser.parse_args([*path, "-h"])
        subs = [a for a in node._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            leaves[path] = node
        for action in subs:
            for name, sub in action.choices.items():
                walk(sub, (*path, name))

    walk(parser, ())
    return parser, leaves


def options(leaf):
    """The option strings a leaf accepts, without --help and --format."""
    return [s for a in leaf._actions for s in a.option_strings
            if not {"--help", "--format"} & set(a.option_strings)]
