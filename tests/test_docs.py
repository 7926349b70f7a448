"""Documentation accuracy tests: the operator surface must stay true.

Docs rot silently; these tests make the load-bearing claims executable:

* the module docstrings with worked examples actually run (doctest);
* the documented CLI pages exist, are linked from the README, and every
  ``--flag`` documented in docs/cli.md is exercised by at least one test;
* prose that duplicated the cache-key contract was really deduplicated
  into docs/architecture.md, and the removed capability shims are gone
  from the README.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# runnable docstring examples
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module_name",
    ["repro.analysis.flow", "repro.sim.churn", "repro.routing.verify"],
)
def test_module_docstring_examples_run(module_name):
    module = __import__(module_name, fromlist=["_"])
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} lost its worked example"
    assert results.failed == 0


# ----------------------------------------------------------------------
# the documented pages
# ----------------------------------------------------------------------
def test_cli_reference_exists_and_is_linked_from_readme():
    cli_doc = ROOT / "docs" / "cli.md"
    assert cli_doc.is_file()
    readme = (ROOT / "README.md").read_text()
    assert "docs/cli.md" in readme
    text = cli_doc.read_text()
    for subcommand in (
        "compile", "simulate", "verify", "sweep",
        "resilience", "churn", "flow", "store ls", "store info", "store gc",
    ):
        assert f"repro {subcommand}" in text, f"docs/cli.md missing {subcommand}"
    # The exit-code contract is documented.
    for code in ("0", "1", "2"):
        assert re.search(rf"^\|\s*`?{code}`?\s*\|", text, re.M), (
            f"exit code {code} undocumented"
        )


def test_architecture_page_owns_the_cache_key_contract():
    arch = ROOT / "docs" / "architecture.md"
    assert arch.is_file()
    text = arch.read_text()
    assert "Cache keys and invalidation" in text
    assert "CACHE_SCHEMA" in text
    readme = (ROOT / "README.md").read_text()
    assert "docs/architecture.md" in readme
    # The contract lives in ONE place: the README and benchmarks page now
    # point at it instead of restating the key recipe.
    bench = (ROOT / "benchmarks" / "README.md").read_text()
    assert "docs/architecture.md" in bench
    for duplicated in ("CACHE_SCHEMA",):
        assert duplicated not in readme
        assert duplicated not in bench


def test_readme_quickstart_leads_with_the_cli():
    readme = (ROOT / "README.md").read_text()
    assert "pip install -e ." in readme
    assert "repro sweep --registry small" in readme
    # The CLI quickstart appears before the first Python API example.
    assert readme.index("repro sweep") < readme.index("import")


REMOVED_CAPABILITIES = (
    "can_compile",
    "can_header_compile",
    "REPRO_SIM_KERNEL",
    "REPRO_PURE_NUMPY",
    "kernel_working_set",
    ".[numba]",
)


def test_removed_capability_shims_are_not_documented():
    for page in (ROOT / "README.md", ROOT / "docs" / "cli.md",
                 ROOT / "docs" / "architecture.md"):
        text = page.read_text()
        for name in REMOVED_CAPABILITIES:
            assert name not in text, f"{page} references removed {name}"


# ----------------------------------------------------------------------
# docs <-> tests closure
# ----------------------------------------------------------------------
def test_every_documented_cli_flag_is_exercised_by_a_test():
    """Meta-test: a flag documented in docs/cli.md must appear in a test.

    This is the enforcement half of the docs satellite — a flag cannot be
    documented without at least one test invoking it, so the reference
    cannot drift ahead of the implementation.
    """
    text = (ROOT / "docs" / "cli.md").read_text()
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]+", text))
    assert documented, "docs/cli.md documents no flags?"
    test_sources = "\n".join(
        path.read_text() for path in (ROOT / "tests").glob("test_*.py")
    )
    unexercised = sorted(
        flag for flag in documented if flag not in test_sources
    )
    assert not unexercised, f"documented but untested flags: {unexercised}"


def test_every_parser_flag_is_documented():
    """The converse closure: no parser flag missing from docs/cli.md."""
    from repro.cli.main import build_parser

    documented = set(
        re.findall(r"(?<![\w-])--[a-z][a-z-]+", (ROOT / "docs" / "cli.md").read_text())
    )
    parser_flags = set()
    stack = [build_parser()]
    while stack:
        parser = stack.pop()
        for action in parser._actions:  # noqa: SLF001 - introspection on purpose
            parser_flags.update(
                opt for opt in action.option_strings if opt.startswith("--")
            )
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                stack.extend(
                    child
                    for child in action.choices.values()
                    if hasattr(child, "_actions")
                )
    parser_flags.discard("--help")
    missing = sorted(parser_flags - documented)
    assert not missing, f"parser flags undocumented in docs/cli.md: {missing}"
