"""The documentation's code blocks must stay valid.

Every fenced ``python`` block in README.md and docs/*.md is compiled,
and its imports of the ``repro`` package are executed — so renaming a
public symbol without updating the docs fails CI.  Bash blocks are
checked lightly: any ``python -m repro <command>`` they mention must
name a real CLI subcommand.  A generated-kernel listing must be the
source the plan compiler prints today for the rule it is shown for.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda p: p.name,
)

FENCE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)


def _blocks(language):
    for path in DOC_FILES:
        text = path.read_text(encoding="utf-8")
        for index, match in enumerate(FENCE.finditer(text)):
            if match.group(1) == language:
                yield pytest.param(
                    match.group(2), id=f"{path.name}-{language}-{index}"
                )


def test_docs_exist_and_are_cross_linked():
    assert (REPO_ROOT / "docs" / "architecture.md").exists()
    assert (REPO_ROOT / "docs" / "observability.md").exists()
    assert (REPO_ROOT / "docs" / "storage.md").exists()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
    assert "docs/observability.md" in readme
    assert "docs/storage.md" in readme
    # The storage contract is reachable from the architecture and
    # performance pages, and documents both backends by name.
    for page in ("architecture.md", "performance.md", "serving.md"):
        text = (REPO_ROOT / "docs" / page).read_text(encoding="utf-8")
        assert "storage.md" in text, f"docs/{page} does not link storage.md"
    storage = (REPO_ROOT / "docs" / "storage.md").read_text(encoding="utf-8")
    assert "`rows`" in storage and "`columnar`" in storage


@pytest.mark.parametrize("source", list(_blocks("python")))
def test_python_blocks_compile(source):
    compile(source, "<doc-snippet>", "exec")


@pytest.mark.parametrize("source", list(_blocks("python")))
def test_python_blocks_import_real_symbols(source):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            module = __import__(node.module, fromlist=["_"])
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"doc snippet imports {alias.name} from {node.module}, "
                    "which does not exist"
                )


@pytest.mark.parametrize("source", list(_blocks("bash")))
def test_bash_blocks_name_real_cli_commands(source):
    from repro.cli import build_parser

    subcommands = set()
    for action in build_parser()._subparsers._group_actions:
        subcommands.update(action.choices)

    for match in re.finditer(r"python -m repro (\w+)", source):
        assert match.group(1) in subcommands, match.group(1)


def _kernel_listings():
    """``(paragraph above, listing)`` of every ``def kernel(`` block in
    docs/performance.md."""
    text = (REPO_ROOT / "docs" / "performance.md").read_text(encoding="utf-8")
    for match in FENCE.finditer(text):
        if match.group(2).startswith("def kernel("):
            paragraph = text[: match.start()].rstrip().rsplit("\n\n", 1)[-1]
            yield paragraph, match.group(2)


def test_kernel_listings_are_the_generated_source():
    from repro.datalog.atoms import Literal
    from repro.datalog.parser import parse_rule
    from repro.datalog.plan import compile_rule

    listings = list(_kernel_listings())
    assert len(listings) >= 2
    for paragraph, listing in listings:
        # The paragraph ends "... for `rule` (`describe()`):".
        rule_text, described = re.findall(r"`([^`\n]+)`", paragraph)[-2:]
        rule = parse_rule(rule_text)
        deltas = [None] + [
            i for i, item in enumerate(rule.body) if isinstance(item, Literal) and item.positive
        ]
        plans = [compile_rule(rule, delta, size_of=lambda literal: 1.0) for delta in deltas]
        plan = next((p for p in plans if p.describe() == described), None)
        assert plan is not None, f"no plan of {rule_text} is described as {described!r}"
        assert plan.source() == listing, rule_text


def _package_map_paths():
    """Every ``*.py`` / package path the architecture page's map names."""
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    tree = next(
        m.group(2) for m in FENCE.finditer(text) if m.group(2).startswith("src/repro/")
    )
    package = ""
    for line in tree.splitlines()[1:]:
        entry = re.match(r"(│   )?[├└]── (.+)", line)
        if entry is None:
            continue  # a description continued on the next line
        names = re.split(r"\s{2,}", entry.group(2))[0]
        if entry.group(1) is None:
            package = names if names.endswith("/") else ""
            yield names
        else:
            for name in re.findall(r"\w+\.py", names):
                yield package + name


def test_package_map_names_real_paths():
    paths = list(_package_map_paths())
    assert "core/rewrite.py" in paths and "cli.py" in paths  # the parse found the map
    missing = [p for p in paths if not (REPO_ROOT / "src" / "repro" / p).exists()]
    assert not missing, f"docs/architecture.md names paths that do not exist: {missing}"
    packages = {
        p.name + "/" for p in (REPO_ROOT / "src" / "repro").iterdir()
        if (p / "__init__.py").exists()
    }
    assert packages <= set(paths), f"package map omits {sorted(packages - set(paths))}"


def _documented_wire_fields():
    """``{route: [field, ...]}`` from docs/serving.md's "Every route reads
    a fixed set of fields — register `a`, `b`; query ...; ingest ..." sentence."""
    text = (REPO_ROOT / "docs" / "serving.md").read_text(encoding="utf-8")
    sentence = re.search(r"Every route reads a fixed set of fields —(.*?)—", text, re.DOTALL)
    assert sentence is not None, "docs/serving.md no longer lists the wire fields"
    routes = {}
    for clause in sentence.group(1).split(";"):
        route, rest = clause.split(None, 1)
        routes[route] = re.findall(r"`(\w+)`", rest)
    return routes


def test_serving_doc_lists_the_fields_each_route_reads():
    from repro.robustness import UsageError
    from repro.serve.wire import parse_ingest, parse_query, parse_register

    documented = _documented_wire_fields()
    parsers = {"register": parse_register, "query": parse_query, "ingest": parse_ingest}
    assert set(documented) == set(parsers)
    for route, parse in parsers.items():
        with pytest.raises(UsageError) as refused:
            parse({"no_such_field": 1})
        reads = re.search(r"this route reads: (.*)\)$", str(refused.value)).group(1)
        assert documented[route] == reads.split(", "), route
