"""The package's public surface, as the package and its README show it."""

import re
import shlex
from pathlib import Path

import radiofield
from radiofield import cli


def test_every_exported_name_resolves():
    missing = [name for name in radiofield.__all__ if not hasattr(radiofield, name)]
    assert missing == []
    assert len(set(radiofield.__all__)) == len(radiofield.__all__)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, lang: str) -> str:
    """The first fenced code block of the given language under a heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_python_imports_are_exported():
    block = _readme_block("Python API", "python")
    names = re.search(r"from radiofield import \(([^)]*)\)", block).group(1)
    imported = [name.strip() for name in names.split(",") if name.strip()]
    assert len(imported) >= 5
    assert [name for name in imported if name not in radiofield.__all__] == []


def test_readme_command_lines_parse():
    block = _readme_block("Command line", "bash")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("radiofield ")]
    assert {argv[0] for argv in commands} == {"synth", "train", "infer", "eval"}
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]
