"""Docstrings in ``src/mvsc`` state contracts, not measurements.

A timing or a memory figure goes stale with the next change to the code or
the machine, so the numbers behind a rule live in README's Measurements
subsection and in CHANGES.md. This test walks every module, class and
function docstring of the package and fails on a number with a time or
memory unit, or on a word that only a measurement needs.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import mvsc

# a number with a time or memory unit: "35 ms", "4.6 s.", "72 KB", but not the
# exponent in "||a - v_i||^2 s.t." nor the formula's "128 KiB"
MEASUREMENT_UNIT = re.compile(r"(?<![\w.^])\d+(?:\.\d+)?\s?(?:ms|s|MB|KB)(?!\.?\w)")
MEASUREMENT_WORD = re.compile(r"\b(?:measured|faster|slower|medians?)\b", re.IGNORECASE)


def _docstrings() -> list[tuple[str, str]]:
    found = []
    for path in sorted(Path(mvsc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc is not None:
                    name = path.stem if isinstance(node, ast.Module) else f"{path.stem}.{node.name}"
                    found.append((name, doc))
    return found


def measurements(doc: str) -> list[str]:
    """The phrases of ``doc`` that read as a measurement."""
    return [m.group(0) for m in MEASUREMENT_UNIT.finditer(doc)] + [
        m.group(0) for m in MEASUREMENT_WORD.finditer(doc)]


@pytest.mark.parametrize("text, flagged", [
    ("a call took 35 ms at k = 60", ["35 ms"]),
    ("from 6.0 to 4.6 s.", ["4.6 s"]),
    ("peaked up to 65, 72, 69 and 49 KB above", ["49 KB"]),
    ("rose by 5.1MB per view", ["5.1MB"]),
    ("1 was faster on 2 cores", ["faster"]),
    ("the peak as tracemalloc measured it", ["measured"]),
    ("Medians of 7", ["Medians"]),
    ("min_a ||a - v_i||^2 s.t. a >= 0, sum a = 1", []),
    ("and 128 KiB of temporaries", []),
    ("for n = 300 samples and 2 views", []),
    ("the top k eigenpairs, where k = floor(n/5)", []),
])
def test_pattern(text, flagged):
    assert measurements(text) == flagged


def test_package_docstrings_carry_no_measurements():
    docs = _docstrings()
    assert len(docs) > 50  # the walk reached the package
    offending = {name: hits for name, doc in docs if (hits := measurements(doc))}
    assert not offending, f"measurements in docstrings (move them to README): {offending}"
