"""A bounded fuzz of the two document readers, `certificate verify` and
`witness verify`, on edited copies of `solve`'s certificate and witness
for d = 6, K = 10, (1, 7, 1, 1).  An edit drops a field, gives one a
value of another type, nests it one level deeper, duplicates a list entry
(a node, a child, a value), rotates the node ids or adds a child to a
contraction.  Every mutant must end in exit 0 (valid), 1 (check failed)
or 64 (unreadable input), never another code or a traceback."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import padic_forms
from padic_forms import cli

FORM = "d=6; K=10; 1, 7, 1, 1\n"
# 2^40 is an int Python would try to build (128 GB) as 1 << K; 2^70 is not
RETYPED = (None, True, 1.5, "x", [], {}, 2**40, 2**70)
FRESH_ID = 99  # no node has it


def _base_docs() -> dict:
    from padic_forms.forms import AdditiveForm, parse_form_text
    from padic_forms.solver import decide_isotropy

    out = decide_isotropy(AdditiveForm.from_json(parse_form_text(FORM))).to_json()
    return {"certificate": out["contraction"], "witness": out["witness"]}


BASE = _base_docs()


def _paths(doc, at=()):
    """Every place in a JSON document as its key path, the whole document first."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield from _paths(v, at + (k,))


def _edits(doc) -> list:
    """The one-place edits of doc, as (op, path, argument)."""
    edits = []
    for path in _paths(doc):
        edits += [("retype", path, v) for v in RETYPED] + [("nest", path, None)]
        if path:
            edits.append(("drop", path, None))
    for path in _paths(doc):
        if path and isinstance(path[-1], int):
            edits.append(("duplicate", path, None))
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if isinstance(nodes, list) and nodes:
        edits.append(("rotate ids", ("nodes",), None))
        ids = [n["id"] for n in nodes if isinstance(n, dict) and "id" in n]
        for i, n in enumerate(nodes):
            if isinstance(n, dict) and isinstance(n.get("children"), list):
                edits += [("add child", ("nodes", i, "children"), c) for c in ids + [FRESH_ID]]
    return edits


def _apply(doc, edit):
    op, path, arg = edit
    doc = copy.deepcopy(doc)
    if not path:
        return arg if op == "retype" else [doc]
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    k = path[-1]
    if op == "retype":
        parent[k] = arg
    elif op == "nest":
        parent[k] = [parent[k]]
    elif op == "drop":
        del parent[k]
    elif op == "duplicate":
        parent.insert(k, copy.deepcopy(parent[k]))
    elif op == "rotate ids":
        nodes = [n for n in parent[k] if isinstance(n, dict) and "id" in n]
        ids = [n["id"] for n in nodes]
        for n, i in zip(nodes, ids[1:] + ids[:1]):
            n["id"] = i
    else:  # add child
        parent[k].append(arg)
    return doc


@st.composite
def mutants(draw):
    """A reader and its base document after one to three edits."""
    kind = draw(st.sampled_from(sorted(BASE)))
    doc = BASE[kind]
    for _ in range(draw(st.integers(1, 3))):
        doc = _apply(doc, draw(st.sampled_from(_edits(doc))))
    return kind, doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutants())
def test_mutated_documents_exit_cleanly(tmp_path, mutant):
    # an exception that escapes cli.main fails the test with its traceback
    kind, doc = mutant
    form = tmp_path / "f.txt"
    form.write_text(FORM)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main([kind, "verify", str(form), str(path)]) in (0, 1, 64), (kind, doc)


def test_every_single_edit_exits_cleanly_under_python_O(tmp_path):
    # python -O strips asserts; both documents as they are, which must
    # be valid, then each of their one-edit mutants, in one interpreter
    form = tmp_path / "f.txt"
    form.write_text(FORM)
    docs = sorted(BASE.items())
    docs += [(kind, _apply(doc, edit)) for kind, doc in sorted(BASE.items())
             for edit in _edits(doc)]
    runs = []
    for i, (kind, doc) in enumerate(docs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        runs.append([kind, "verify", str(form), str(path)])
    script = (
        "import contextlib, io, json, sys\n"
        "from padic_forms import cli\n"
        "codes = []\n"
        "for argv in json.load(sys.stdin):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    pkg_root = str(Path(padic_forms.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=json.dumps(runs),
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": pkg_root})
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr[-2000:]
    codes = json.loads(proc.stdout)
    assert len(codes) == len(runs) > 300
    assert codes[:2] == [0, 0] and set(codes) <= {0, 1, 64}
