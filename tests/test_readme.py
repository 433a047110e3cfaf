"""The README's examples stay true: the quick start runs and prints what
its comments say, the CLI block names every subcommand, and every name in
the entry-point table resolves."""

import importlib
import re
import shlex
from pathlib import Path

import fairflow
from fairflow.cli import build_parser

from conftest import subcommands

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def block(language, after):
    """The first fenced block of the language below the heading `after`."""
    start = README.index(after)
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def test_quick_start_gives_its_commented_results():
    code = block("python", "## Library quick start")
    assert re.search(r"flow = decmin_flow\(problem\) +# \(2, 1, 3\)", code)
    assert "# f* = (1, 1, 0), g* = (2, 1, 4)" in code
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["flow"] == (2, 1, 3)
    assert namespace["box"].f_star == (1, 1, 0)
    assert namespace["box"].g_star == (2, 1, 4)
    assert namespace["verdict"].decmin is True


def test_cli_block_shows_every_subcommand_and_parses():
    lines = [line for line in block("sh", "## CLI").splitlines() if line.startswith("fairflow ")]
    shown = {shlex.split(line, comments=True)[1] for line in lines}
    assert shown == set(subcommands(build_parser()))
    for line in lines:
        # a flag the parser does not accept on that command exits 2
        build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_entry_point_table_names_resolve():
    start = README.index("Key entry points")
    table = README[start:README.index("\n\n", README.index("| --- |", start))]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    names = [name for row in rows for name in re.findall(r"`([\w.]+)`", row)]
    assert "fairflow.oracle" in names and "decmin_flow" in names
    for name in names:
        if "." in name:
            importlib.import_module(name)
        else:
            assert callable(getattr(fairflow, name)), name
