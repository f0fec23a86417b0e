"""Documentation tests: the README and ``docs/`` cannot silently rot.

Six enforcement layers:

* every relative markdown link in README.md and ``docs/*.md`` must point
  at a file that exists;
* every fenced ``python`` block in those files must *execute* (a block
  may opt out with an ``<!-- docs-test: skip -->`` comment on the line
  before the fence, e.g. deliberately long-running examples);
* every ``repro`` command line inside fenced ``bash`` blocks must parse
  against the real CLI — a renamed flag or removed subcommand fails here
  even though the commands are not executed;
* every module under ``src/repro`` must carry a module docstring;
* every ``repro.`` target of a ``:mod:``/``:class:``/``:func:``/``:meth:``/
  ``:attr:``/``:data:`` role in ``src/repro`` must import;
* every dotted ``repro.`` name in the documentation must import, and every
  ``*.py`` file it names must exist in the repository.
"""

import ast
import importlib
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documentation set under test.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

SKIP_MARKER = "<!-- docs-test: skip -->"

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _fenced_blocks(path: Path):
    """Yield (language, first_line_number, code, skipped) per fence."""
    lines = path.read_text().splitlines()
    language = None
    start = 0
    code = []
    skipped = False
    previous = ""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if language is None:
            if stripped.startswith("```") and len(stripped) > 3:
                language = stripped[3:].strip().lower()
                start = number + 1
                code = []
                skipped = SKIP_MARKER in previous
        elif stripped == "```":
            yield language, start, "\n".join(code), skipped
            language = None
        else:
            code.append(line)
        previous = stripped


def _doc_id(path: Path) -> str:
    return str(path.relative_to(REPO_ROOT))


class TestInternalLinks:
    @pytest.mark.parametrize("path", DOC_FILES, ids=_doc_id)
    def test_relative_links_resolve(self, path):
        broken = []
        for target in _LINK.findall(path.read_text()):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):   # http:, mailto:, ...
                continue
            target = target.split("#", 1)[0]
            if not target:                                  # pure #anchor
                continue
            if not (path.parent / target).exists():
                broken.append(target)
        assert not broken, f"{path.name}: broken relative link(s): {broken}"


def _python_blocks():
    cases = []
    for path in DOC_FILES:
        for language, line, code, skipped in _fenced_blocks(path):
            if language == "python" and not skipped:
                cases.append(
                    pytest.param(code, id=f"{_doc_id(path)}:{line}")
                )
    return cases


class TestPythonSnippets:
    @pytest.mark.parametrize("code", _python_blocks())
    def test_snippet_executes(self, code):
        compiled = compile(code, "<docs snippet>", "exec")
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            exec(compiled, {"__name__": "__docs__"})   # noqa: S102


def _repro_commands():
    cases = []
    for path in DOC_FILES:
        for language, line, code, skipped in _fenced_blocks(path):
            if language != "bash" or skipped:
                continue
            # Join backslash continuations into one logical line each.
            joined = re.sub(r"\\\n\s*", " ", code)
            for offset, raw in enumerate(joined.splitlines()):
                command = raw.split("  #", 1)[0].strip()
                command = command.rstrip("&").strip()
                while re.match(r"^[A-Za-z_][A-Za-z0-9_]*=\S+\s", command):
                    command = command.split(None, 1)[1]
                if command.startswith("python -m repro"):
                    arguments = command[len("python -m repro"):].strip()
                elif command.startswith("repro "):
                    arguments = command[len("repro "):].strip()
                else:
                    continue
                cases.append(pytest.param(
                    arguments, id=f"{_doc_id(path)}:{line + offset}"
                ))
    return cases


class TestCliCommands:
    @pytest.mark.parametrize("arguments", _repro_commands())
    def test_documented_command_parses(self, arguments):
        from repro.cli import build_parser

        parser = build_parser()
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                parser.parse_args(shlex.split(arguments))
        except SystemExit as exit_:
            # --version exits 0 after printing; anything non-zero is a
            # documented command the real CLI no longer accepts.
            assert exit_.code == 0, (
                f"documented command no longer parses: repro {arguments}\n"
                f"{err.getvalue()}"
            )


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            if not ast.get_docstring(tree):
                missing.append(str(path.relative_to(REPO_ROOT)))
        assert not missing, f"modules without a docstring: {missing}"


#: Cross-reference roles whose targets name Python objects.
_ROLE = re.compile(r":(?:mod|class|func|meth|attr|data):`([^`]*)`")
#: A dotted ``repro.`` name in prose, not part of a path or a longer name.
_DOTTED = re.compile(r"(?<![\w/.-])repro(?:\.\w+)+")
#: A ``*.py`` file name or path in prose.
_PY_FILE = re.compile(r"(?<![\w/.-])[\w./-]*\w\.py\b")


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` is an importable module plus attribute lookups."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


class TestCrossReferences:
    def test_source_role_targets_resolve(self):
        broken = []
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            text = path.read_text()
            for match in _ROLE.finditer(text):
                target = match.group(1)
                if target.endswith(">"):                 # :role:`title <target>`
                    target = target[target.rindex("<") + 1 : -1]
                target = target.lstrip("~!")
                if target.startswith("repro.") and not _resolves(target):
                    line = text.count("\n", 0, match.start()) + 1
                    broken.append(f"{path.relative_to(REPO_ROOT)}:{line}: {target}")
        assert not broken, f"role target(s) that do not import: {broken}"

    def test_doc_names_and_files_resolve(self):
        repo_files = [
            path.relative_to(REPO_ROOT).as_posix()
            for path in REPO_ROOT.rglob("*.py")
            if not any(part.startswith(".") for part in path.relative_to(REPO_ROOT).parts)
        ]
        broken = []
        for path in DOC_FILES:
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                for name in _DOTTED.findall(line):
                    if not _resolves(name):
                        broken.append(f"{_doc_id(path)}:{number}: {name}")
                for name in _PY_FILE.findall(line):
                    if not any(f == name or f.endswith("/" + name) for f in repo_files):
                        broken.append(f"{_doc_id(path)}:{number}: {name}")
        assert not broken, f"documented name(s) that do not resolve: {broken}"
