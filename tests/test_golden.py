"""The reference outputs: every `monotri` example in README.md and every demo
prints the stdout bytes and exits with the code pinned under tests/golden/.

After a deliberate change of output, rewrite the pinned files with
``PYTHONPATH=src python tests/test_golden.py --update`` and review the diff.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"


def readme_commands() -> list[str]:
    """The `monotri ...` and `python demos/...` lines of README.md's shell
    blocks, without their trailing comments."""
    commands, in_block = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = line == "```sh"
            continue
        words = shlex.split(line, comments=True) if in_block else []
        if words[:1] == ["monotri"] or (words[:1] == ["python"] and words[1].startswith("demos/")):
            commands.append(shlex.join(words))
    return commands


def run(command: str) -> subprocess.CompletedProcess:
    words = shlex.split(command)
    argv = [sys.executable, "-m", "monotri.cli", *words[1:]] if words[0] == "monotri" else [sys.executable, *words[1:]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=300)


def golden_name(command: str) -> str:
    slug = "".join(c if c.isalnum() else "-" for c in command.replace("monotri ", "", 1))
    return "-".join(filter(None, slug.split("-"))) + ".out"


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_every_readme_command_is_pinned():
    assert sorted(readme_commands()) == sorted(load_manifest())


@pytest.mark.parametrize("command", readme_commands())
def test_command_prints_its_pinned_output(command):
    expected = load_manifest()[command]
    proc = run(command)
    assert proc.returncode == expected["exit"], proc.stderr.decode(errors="replace")
    assert proc.stdout == (GOLDEN / expected["stdout"]).read_bytes()


def update() -> None:
    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    for command in readme_commands():
        proc = run(command)
        name = golden_name(command)
        (GOLDEN / name).write_bytes(proc.stdout)
        manifest[command] = {"stdout": name, "exit": proc.returncode}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    update()
