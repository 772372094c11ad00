"""Execute every fenced snippet in docs/cookbook.md against the real API.

Docs rot when examples drift from the code; this runner makes the
cookbook executable documentation:

* every fenced ``python`` block runs in a fresh namespace with its cwd
  pointed at a temp dir (snippets may write files freely);
* every fenced ``json`` block must parse, and blocks shaped like
  experiment specs (they all are, by convention) must validate through
  :meth:`ExperimentSpec.from_dict`.

A snippet that needs to be exempted (none today) would use a different
info string (e.g. ``text``) — only ``python`` and ``json`` fences are
contracts.

Each snippet's test id is ``{lang}-{section}-{n}``: the slug of the
``##`` heading it sits under and its ordinal among that section's
snippets of its language, so editing one section leaves the other ids
alone.  A python snippet compiles at its own line of the cookbook, so a
traceback names the line to fix.
"""

import json
import pathlib
import re

import pytest

from repro import api

COOKBOOK = (
    pathlib.Path(__file__).parent.parent.parent / "docs" / "cookbook.md"
)

_FENCE = re.compile(
    r"^```(?P<lang>[^\n]*)\n(?P<body>.*?)^```$",
    re.MULTILINE | re.DOTALL,
)
_HEADING = re.compile(r"^## (?P<title>.+)$", re.MULTILINE)


def _slug(title):
    return re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")


def _snippets(lang):
    """``(body, first line)`` params, one per ``lang`` fence."""
    text = COOKBOOK.read_text(encoding="utf-8")
    fences = list(_FENCE.finditer(text))
    headings = [
        (match.start(), _slug(match.group("title")))
        for match in _HEADING.finditer(text)
        if not any(f.start() < match.start() < f.end() for f in fences)
    ]
    out = []
    ordinals = {}
    for match in fences:
        if match.group("lang") != lang:
            continue
        section = "top"
        for start, slug in headings:
            if start < match.start():
                section = slug
        ordinals[section] = ordinals.get(section, 0) + 1
        line = text.count("\n", 0, match.start("body")) + 1
        out.append(pytest.param(
            match.group("body"), line,
            id=f"{lang}-{section}-{ordinals[section]}",
        ))
    return out


def test_cookbook_exists_and_has_snippets():
    assert COOKBOOK.is_file()
    assert _snippets("python"), "cookbook lost its python snippets"
    assert _snippets("json"), "cookbook lost its json spec snippets"


def test_snippet_ids_name_sections_and_lines():
    ids = [param.id for lang in ("python", "json")
           for param in _snippets(lang)]
    assert len(ids) == len(set(ids))
    assert "python-run-one-cell-1" in ids
    text = COOKBOOK.read_text(encoding="utf-8").splitlines()
    for param in _snippets("python"):
        body, line = param.values
        assert text[line - 1] == body.splitlines()[0], param.id


@pytest.mark.parametrize("body, line", _snippets("python"))
def test_python_snippet_runs(body, line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__cookbook__"}
    # Padding the body places it at its cookbook line in tracebacks.
    code = compile("\n" * (line - 1) + body, str(COOKBOOK), "exec")
    exec(code, namespace)


@pytest.mark.parametrize("body, line", _snippets("json"))
def test_json_snippet_is_a_valid_spec(body, line):
    data = json.loads(body)
    spec = api.ExperimentSpec.from_dict(data)
    assert spec.cells(), "spec expands to zero cells"
