"""``benchmarks/unreached.py``: its drives stay in step with CI's
command-line steps, a hung drive is recorded, not fatal, and every
justified entry names a function that exists."""

from __future__ import annotations

import importlib.util
import os
import re

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _load():
    spec = importlib.util.spec_from_file_location(
        "unreached", os.path.join(_ROOT, "benchmarks", "unreached.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unreached = _load()


def _workflow() -> str:
    """The CI workflow with each folded (``run: >``) block on one line
    and each backslash continuation joined."""
    with open(os.path.join(_ROOT, ".github", "workflows", "ci.yml")) as handle:
        lines = handle.read().replace("\\\n", " ").splitlines()
    joined: list[str] = []
    folded = None  # indentation of the folded block's key
    for line in lines:
        indent = len(line) - len(line.lstrip())
        if folded is not None and line.strip() and indent > folded:
            joined[-1] += " " + line.strip()
            continue
        folded = indent if re.search(r"run: >-?$", line) else None
        joined.append(line)
    return "\n".join(joined)


def _ci_commands() -> dict[str, str]:
    """subcommand -> the text of every ``repro <subcommand>`` command in
    the CI workflow: a shell line, or an argv list of an inline script."""
    text = _workflow()
    commands: dict[str, str] = {}
    shell, listed = r"python -m repro (\w+)([^\n]*)", r'"repro", "(\w+)"([^\]]*)'
    for match in re.finditer(f"{shell}|{listed}", text):
        subcommand, rest = match.group(1, 2) if match.group(1) else match.group(3, 4)
        commands[subcommand] = commands.get(subcommand, "") + rest
    return commands


def test_every_cli_drive_is_a_ci_command():
    """Each CLI drive's subcommand and class are ones CI runs, and each of
    its options is one CI passes to ``repro`` (a CI step may pass it
    through a shell function, so not always on the same line)."""
    commands = _ci_commands()
    ci_options = set(re.findall(r"--[a-z][a-z-]*", "".join(commands.values())))
    workflow = _workflow()
    for name, argv in unreached.DRIVES:
        if argv[0] == "-c" or argv[0].endswith(".py"):
            continue
        subcommand, rest = argv[0], argv[1:]
        assert subcommand in commands, f"{name}: CI runs no 'repro {subcommand}'"
        options = {arg for arg in rest if arg.startswith("--")}
        assert options <= ci_options, (
            f"{name}: CI never passes {options - ci_options} to repro"
        )
        if rest and re.fullmatch(r"[A-Z]\w+", rest[0]):
            assert rest[0] in workflow, f"{name}: CI never checks {rest[0]}"


def test_a_hung_drive_is_recorded_as_timed_out(tmp_path, monkeypatch):
    monkeypatch.setattr(unreached, "DRIVE_TIMEOUT", 0.5)
    ran = unreached.run_drives(
        [("sleeper", ["-c", "import time; time.sleep(60)"])],
        str(tmp_path), str(tmp_path), str(tmp_path),
    )
    assert [(name, code) for name, code, _ in ran] == [
        ("sleeper", unreached.TIMED_OUT)
    ]
    assert unreached.TIMED_OUT not in unreached._EXPECTED


def test_every_justified_entry_names_a_function_and_a_reason():
    """A ``JUSTIFIED`` key that names no function of ``src/repro`` (one
    deleted or renamed) fails here, from the source alone: no drive runs."""
    names = {
        unreached.qualified(path, name)
        for (path, _first), (name, _lines) in unreached.functions().items()
    }
    assert unreached.JUSTIFIED
    for key, reason in unreached.JUSTIFIED.items():
        assert key in names, f"{key}: no such function in src/repro"
        cls, _, why = reason.partition(":")
        assert cls in unreached.CLASSES and why.strip(), f"{key}: {reason!r}"


def test_every_drive_expected_to_fail_exists():
    names = {name for name, _argv in unreached.DRIVES}
    assert set(unreached.EXPECTED_EXIT) <= names
