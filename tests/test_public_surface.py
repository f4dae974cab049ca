"""The public names earn their place; the README's library sketch and CLI block run as written.

A name in ``nakayama.__all__`` stays only if something outside ``tests/``
uses it: another package module, a script, the benchmark harness, or the
README's "Library sketch".  The package raises exactly two exception classes:
``NakayamaError`` for bad input and ``InternalError`` for a bug.  Its modules
form layers, and each imports only from the layers below its own.
"""

import ast
import inspect
import re
import shlex
from pathlib import Path

import nakayama
import nakayama.errors
from nakayama import cli
from nakayama.errors import InternalError, NakayamaError

ROOT = Path(__file__).resolve().parent.parent
# errors < core < {homology, filtration, enumeration} < verify < cli
LAYERS = {"errors": 0, "core": 1, "homology": 2, "filtration": 2, "enumeration": 2,
          "verify": 3, "cli": 4}


def library_sketch() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library sketch\s+```python\n(.*?)```", readme, re.S).group(1)


def python_references(path: Path) -> set:
    """Identifiers a file reads or imports; a ``def`` or ``class`` line defines, so it is not one."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    files = [p for p in (ROOT / "src" / "nakayama").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(python_references, files))
    used |= set(re.findall(r"\w+", library_sketch()))
    assert [name for name in nakayama.__all__ if name not in used] == []


def test_the_library_sketch_computes_what_its_comments_say():
    namespace, checked = {}, []
    for line in library_sketch().splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(code, namespace)
            continue
        # each comment opens with the value's repr, up to spaces
        shown = repr(eval(code, namespace)).replace(" ", "")
        assert comment.replace(" ", "").startswith(shown), line
        checked.append(shown)
    assert checked == ["(4,3,1)", "False", "((1,3),(2,5))", "(2,3)", "'linear'",
                       "{2:1,3:3,4:8,5:21,6:55,7:144}"]


def test_the_readme_cli_block_runs_as_written(capsys):
    # the cli module docstring's usage examples are a second source, run the same way
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\s+```\n(.*?)```", readme, re.S).group(1)
    usage = re.search(r"Usage examples\n-+\n(.*?)\n\n", cli.__doc__, re.S).group(1)
    assert len(usage.splitlines()) == 4
    checked = []
    for line in block.splitlines() + usage.splitlines():
        code, _, comment = line.partition("#")
        program, *argv = shlex.split(code)
        assert program == "nakayama", line
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        arrow, _, expected = comment.partition("->")
        if not arrow.strip() and expected:
            assert out.splitlines()[0] == expected.strip(), line
            checked.append(expected.strip())
    assert checked == ["8", "4,3,2,2", "1:2;2:3"]


def test_the_errors_module_defines_exactly_two_classes():
    defined = [name for name, value in vars(nakayama.errors).items()
               if inspect.isclass(value) and value.__module__ == nakayama.errors.__name__]
    assert sorted(defined) == ["InternalError", "NakayamaError"]
    assert issubclass(NakayamaError, ValueError)
    # the CLI catches NakayamaError as an input error, so a bug must not be one
    assert not issubclass(InternalError, (NakayamaError, ValueError))


def test_every_raise_in_the_package_names_one_of_the_two_classes():
    raised = []
    for path in sorted((ROOT / "src" / "nakayama").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):  # a bare re-raise names no class
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((path.name, node.lineno, getattr(exc, "id", None)))
    assert raised
    assert [r for r in raised if r[2] not in ("NakayamaError", "InternalError")] == []


def test_each_module_imports_only_from_lower_layers():
    modules = {p.stem: p for p in (ROOT / "src" / "nakayama").glob("*.py") if p.stem != "__init__"}
    assert sorted(modules) == sorted(LAYERS)
    upward = []
    for name, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:  # from .x import y, from . import x
                imported = [node.module] if node.module else [a.name for a in node.names]
                upward += [(name, i) for i in imported if LAYERS[i] >= LAYERS[name]]
    assert upward == []
