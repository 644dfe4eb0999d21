"""The CLI under other Python interpreters, against the one that runs this.

    python tests/versions.py PYTHON [PYTHON ...]

``pyproject.toml`` declares Python 3.10 and later, while the test suite
runs under one interpreter. This script runs a fixed table of commands on
the three corpus models with ``python -m a4c.cli`` (``check`` as text and
as JSON, ``classify``, ``impact``, ``render``, ``docs`` and
``fmt --stdout``), first under the interpreter that runs it and then under
each ``PYTHON`` given, with the working tree's ``src`` on ``PYTHONPATH``
and no bytecode written. Each command runs in a fresh directory that holds
the corpus files. It compares the stdout, stderr, exit code and written
files of each run with those of the first, prints each command whose
results differ and one summary line per interpreter, and exits 1 on any
difference, or when an interpreter cannot be started. It needs the
standard library only. Pytest does not collect it: its name has no
``test_`` prefix.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CORPUS = ("testgen.a4c", "recovery.a4c", "resell.a4c")
COMMANDS = (
    ["check", *CORPUS],
    ["check", "--format", "json", *CORPUS],
    *(["classify", file] for file in CORPUS),
    ["classify", "--format", "json", "resell.a4c"],
    ["impact", "--seed", "TestSpec", "testgen.a4c"],
    ["impact", "--seed", "TestCode", "--direction", "up", "--format", "json", "testgen.a4c"],
    *(["render", "--out", "out", file] for file in CORPUS),
    *(["docs", "--out", "out", file] for file in CORPUS),
    ["fmt", "--stdout", *CORPUS],
)
RESULTS = ("exit code", "stdout", "stderr", "written files")


def observe(python: str, argv: list[str]) -> tuple:
    """``a4c argv`` under ``python``: its exit code, stdout and stderr bytes,
    and each file it wrote under ``out/`` with its bytes."""
    with tempfile.TemporaryDirectory(prefix="a4c-versions-") as name:
        work = pathlib.Path(name)
        for file in CORPUS:
            shutil.copy(SRC / "a4c" / "corpus" / file, work)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
                   A4C_COLOR="never")
        proc = subprocess.run([python, "-m", "a4c.cli", *argv], cwd=work, env=env,
                              capture_output=True, timeout=120)
        written = {str(path.relative_to(work)): path.read_bytes()
                   for path in sorted(work.glob("out/**/*")) if path.is_file()}
        return proc.returncode, proc.stdout, proc.stderr, written


def version(python: str) -> str:
    return subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, check=True).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pythons", nargs="+", metavar="PYTHON",
                    help="an interpreter to compare with the running one")
    args = ap.parse_args(argv)
    reference = [observe(sys.executable, command) for command in COMMANDS]
    print(f"{len(COMMANDS)} commands on the corpus, against Python {version(sys.executable)}")
    failed = False
    for python in args.pythons:
        try:
            name = f"{python} ({version(python)})"
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"{python}: cannot be started: {exc}")
            failed = True
            continue
        same = 0
        for command, want in zip(COMMANDS, reference):
            got = observe(python, command)
            differ = [what for what, a, b in zip(RESULTS, got, want) if a != b]
            if differ:
                print(f"{name}: a4c {' '.join(command)}: {', '.join(differ)} differ")
            same += not differ
        print(f"{name}: {same} of {len(COMMANDS)} commands the same")
        failed |= same < len(COMMANDS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
