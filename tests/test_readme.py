"""The README's examples, executed so that they stay true."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from test_brink import _count_pure_python

from egz import brink, search
from egz.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_library_snippet_prints_its_comment() -> None:
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    printed = [ln for ln in code.splitlines() if ln.startswith("print(")]
    assert len(printed) == 1
    expected = printed[0].split("#", 1)[1].strip()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, "README.md", "exec"), {})
    assert buf.getvalue().splitlines() == [expected]


def test_cli_transcripts(capsys) -> None:
    # every "$ egz ..." line in the README, with the output lines after it
    runs = re.findall(r"^\$ egz (.*)\n((?:[^$`].*\n)*)", README, re.M)
    assert len(runs) >= 4
    for argv, expected in runs:
        main(shlex.split(argv))
        assert capsys.readouterr().out == expected, argv


def test_brink_instance_example(capsys, tmp_path) -> None:
    section = README.split("## Boolean system instances", 1)[1]
    text = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    assert main(["brink", "--instance", str(path)]) == 0
    expected = _count_pure_python(brink.from_json(text))
    assert capsys.readouterr().out.splitlines()[-1] == f"{expected} solutions"


def test_quick_reference_values(capsys) -> None:
    # every "egz ..." line of the subcommand list whose comment states a
    # value ("= value" or ": value") prints that value at the end of its
    # first output line
    block = README.split("Other subcommands:", 1)[1].split("```")[1]
    runs = re.findall(r"^egz (.*?)\s+#.*?[=:]\s*([^=:\n]+?)\s*$", block, re.M)
    assert [argv.split()[0] for argv, _ in runs] == [
        "davenport",
        "lconst",
        "smembers",
        "newton-girard",
    ]
    for argv, value in runs:
        assert main(shlex.split(argv)) == 0, argv
        first = capsys.readouterr().out.splitlines()[0]
        assert first == value or first.endswith(" " + value), (argv, first)


def test_cache_and_chunk_figures_match_their_constants() -> None:
    # the README's figures for the search cache and for brink's chunks are
    # the constants the code runs with
    text = " ".join(README.split())
    assert int(re.search(r"up to (\d+) searches", text).group(1)) == search._SEARCHES
    kib, mib, kits = re.search(
        r"at most (\d+) KiB \((\d+) MiB over the (\d+) cached rings\)", text
    ).groups()
    assert int(kib) << 10 == search._SUSPEND_BYTES
    assert int(kits) == search._KITS
    assert int(mib) << 20 == search._SUSPEND_BYTES * search._KITS
    chunks = re.search(r"`--chunk-bits L`, default (\d+), at most (\d+)", text).groups()
    assert tuple(map(int, chunks)) == (brink.DEFAULT_CHUNK_BITS, brink.MAX_CHUNK_BITS)
