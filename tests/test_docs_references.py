"""Documentation lint: referenced files and modules actually exist.

DESIGN.md, EXPERIMENTS.md, THEORY.md, USAGE.md and README.md point at
modules and tests by path and at make targets by name; refactors must
not silently orphan those references.  The Makefile's runner and example
recipes must work in the documented uninstalled checkout.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "THEORY.md",
    ROOT / "docs" / "USAGE.md",
]

#: Paths that docs may reference before they exist locally (generated).
GENERATED = {"report.md", "figure1.csv", "figure1_full.csv", "out.csv"}


def referenced_paths(text: str) -> set[str]:
    """File-looking references: backticked paths ending in .py or .md."""
    candidates = set()
    for match in re.findall(r"`([A-Za-z0-9_\-./]+\.(?:py|md))`", text):
        candidates.add(match)
    # 'a/b.py::test' style references.
    for match in re.findall(r"`([A-Za-z0-9_\-./]+\.py)::", text):
        candidates.add(match)
    return candidates


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_doc_exists(doc):
    assert doc.exists(), doc

@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_files_exist(doc):
    text = doc.read_text(encoding="utf-8")
    missing = []
    for path in sorted(referenced_paths(text)):
        name = pathlib.PurePosixPath(path).name
        if name in GENERATED:
            continue
        candidates = [
            ROOT / path,
            ROOT / "src" / "repro" / path,
            ROOT / "src" / path,
            ROOT / "tests" / path,
            ROOT / "docs" / path,
        ]
        if not any(c.exists() for c in candidates):
            missing.append(path)
    assert not missing, f"{doc.name} references missing files: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_make_targets_exist(doc):
    """Every backticked `make <target>` names a target of the Makefile."""
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    targets = set(re.findall(r"^([A-Za-z0-9_\-]+):", makefile, re.MULTILINE))
    text = doc.read_text(encoding="utf-8")
    missing = sorted(
        set(re.findall(r"`make ([A-Za-z0-9_\-]+)", text)) - targets
    )
    assert not missing, f"{doc.name} names missing make targets: {missing}"


def _recipe_commands(makefile: str) -> list[str]:
    """Each recipe command of the Makefile, continuation lines joined."""
    commands, current = [], ""
    for line in makefile.splitlines():
        if not (line.startswith("\t") or current):
            continue
        current += line.strip().rstrip("\\") + " "
        if not line.endswith("\\"):
            commands.append(current.strip())
            current = ""
    return commands


def test_make_recipes_run_the_package_from_src():
    """Every recipe that runs the runner or an example puts ``src`` on
    ``PYTHONPATH``, so the targets work in an uninstalled checkout."""
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    commands = [
        command
        for command in _recipe_commands(makefile)
        if "repro.experiments.runner" in command or "examples/" in command
    ]
    assert commands
    bare = [
        command
        for command in commands
        if command.count("$(PYTHON)")
        != len(re.findall(r"PYTHONPATH=src\S*\s+\$\(PYTHON\)", command))
    ]
    assert not bare, f"recipes without PYTHONPATH=src: {bare}"


def test_module_references_import():
    """`repro.x.y`-style dotted references in the docs import cleanly."""
    import importlib

    pattern = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)`")
    failures = []
    for doc in DOCS:
        for match in pattern.findall(doc.read_text(encoding="utf-8")):
            module = match
            while module:
                try:
                    importlib.import_module(module)
                    break
                except ModuleNotFoundError:
                    # Maybe the last component is an attribute.
                    if "." not in module:
                        failures.append((doc.name, match))
                        break
                    module = module.rsplit(".", 1)[0]
    assert not failures, f"unimportable doc references: {failures}"
