"""The README's command-line examples, pinned byte for byte.

Each example runs in a directory holding the two input files written here,
and its exit code and stdout must equal the pinned ones in
``readme_payloads.json``.  A deliberate payload change rewrites the pins:

    PYTHONPATH=src python3 tests/test_readme.py

and the change is declared in CHANGES.md.
"""

import json
import os
import re
import shlex

import pytest

from ineqmeans.cli import dispatch

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(HERE, os.pardir, "README.md")
PINS = os.path.join(HERE, "readme_payloads.json")

# two positive columns x,y for `cbs discrete`
VECTORS = "".join(f"{1.0 + k / 4.0!r},{2.0 + (k * k % 7) / 3.0!r}\n" for k in range(16))
# a comb with 4 teeth in 16 entries: its DFT is a comb with 4 teeth, 4 * 4 = 16
COMPLEX = "".join("1.0,0.5\n" if k % 4 == 0 else "0.0,0.0\n" for k in range(16))


def readme_examples() -> list:
    """The ``ineqmeans ...`` lines of the README's command-line block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(r"^ineqmeans (.+)$", text, flags=re.MULTILINE)


def run_examples(directory) -> dict:
    """{argv: {"exit_code", "stdout"}} of every README example, run in
    ``directory`` after writing vectors.csv and complex.csv there."""
    for name, content in (("vectors.csv", VECTORS), ("complex.csv", COMPLEX)):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        results = {cmd: dispatch(shlex.split(cmd)) for cmd in readme_examples()}
    finally:
        os.chdir(cwd)
    return {cmd: {"exit_code": r.exit_code, "stdout": r.stdout} for cmd, r in results.items()}


def test_readme_lists_13_examples():
    assert len(readme_examples()) == 13


def test_readme_payloads_are_pinned(tmp_path):
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    got = run_examples(tmp_path)
    assert list(got) == list(pins)
    for cmd, pinned in pins.items():
        assert got[cmd] == pinned, cmd


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        payloads = run_examples(scratch)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(payloads, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(payloads)} pins to {PINS}")
