"""The README's CLI block runs as written, and the README names every
subcommand and every module.

Each `bipgirth ...` line of the README's `sh` blocks, its `\\`
continuations joined and its `#` comment stripped, goes through
`cli.main` in one empty directory, in order, so that later lines read the
files earlier ones write.  A line exits 0 unless its comment says
`exit <code>`.
"""

import argparse
import re
import shlex
from pathlib import Path

from bipgirth import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def readme_commands() -> list[tuple[str, int]]:
    """(command, expected exit code) for each `bipgirth` line, in order."""
    text = "\n".join(re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M))
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("bipgirth "):
            code = re.search(r"\bexit (\d+)", comment)
            commands.append((command.strip(), int(code[1]) if code else 0))
    return commands


def test_every_readme_command_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    results = []
    for command, expected in readme_commands():
        results.append((command, expected, cli.main(shlex.split(command)[1:])))
        capsys.readouterr()
    assert [r for r in results if r[1] != r[2]] == []


def test_readme_covers_every_subcommand():
    (sub,) = (a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    used = {shlex.split(command)[1] for command, _ in readme_commands()}
    assert set(sub.choices) - used == set()


def test_readme_names_every_module():
    modules = {p.stem for p in (ROOT / "src" / "bipgirth").glob("*.py")}
    assert {m for m in modules - {"__init__", "errors"}
            if f"`bipgirth.{m}`" not in README} == set()
