import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import padic_forms
from padic_forms import cli
from padic_forms.artifacts import named_form
from padic_forms.ring import RingElem
from test_engine import chain_certificate

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ["solve", "oracle", "witness", "certificate", "lemma", "reproduce", "gamma"]


@pytest.fixture
def h6_file(tmp_path):
    p = tmp_path / "h6.json"
    p.write_text(json.dumps(named_form("H", 6).form().to_json()))
    return str(p)


@pytest.fixture
def g6_file(tmp_path):
    p = tmp_path / "g6.json"
    p.write_text(json.dumps(named_form("G", 6).form().to_json()))
    return str(p)


@pytest.fixture
def iso_file(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("d=6; 1, 7\n")
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_isotropic(iso_file, capsys):
    code, out, _ = run(["solve", iso_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ISOTROPIC"
    assert "witness" in doc and "timings" not in doc


def test_solve_anisotropic(h6_file, capsys):
    code, out, _ = run(["solve", h6_file], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "ANISOTROPIC"
    assert doc["certificate"]["kind"] == "exhaustion"


def test_solve_output_is_deterministic(iso_file, capsys):
    _, out1, _ = run(["solve", iso_file], capsys)
    _, out2, _ = run(["solve", iso_file], capsys)
    assert out1 == out2
    _, out3, _ = run(["solve", iso_file, "--verbose"], capsys)
    assert "timings" in json.loads(out3)


def test_solve_verbose_times_each_search_stage(iso_file, capsys):
    # validation has its own key; the lift's covers the lift alone
    code, out, _ = run(["solve", iso_file, "-v"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["stage"] == "search"
    assert set(doc["timings"]) == {"search", "validate", "lift"}
    assert all(t >= 0 for t in doc["timings"].values())


def test_solve_malformed_exit64(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("not a form")
    code, _, err = run(["solve", str(p)], capsys)
    assert code == 64 and "parse" in err


def test_solve_missing_file_exit64(capsys):
    code, _, _ = run(["solve", "/nonexistent/never.json"], capsys)
    assert code == 64


def test_solve_precision_too_shallow_exit65(tmp_path, capsys):
    p = tmp_path / "f.txt"
    p.write_text("d=6; 1, 8\n")
    code, _, _ = run(["solve", str(p), "--precision", "3"], capsys)
    assert code == 65


def test_solve_short_window_exit65(tmp_path, capsys):
    # at K = 2 no unit coefficient is trusted to the 3 digits the flat
    # decision reads, and the trusted part alone has no zero
    p = tmp_path / "f.txt"
    p.write_text("d=6; 1, 1, w\n")
    code, _, err = run(["solve", str(p), "--precision", "2"], capsys)
    assert code == 65 and "window" in err


def test_solve_lone_anchors_at_short_precision_exit1(tmp_path, capsys):
    # at K = 5 the 16 is trusted to one digit past its level 4, yet it and
    # the 1 are each alone at their level, so no completion has a zero;
    # the oracle agrees on the same coefficients at K = 10
    p = tmp_path / "f.txt"
    p.write_text("d=6; K=5; 1, 16\n")
    code, out, _ = run(["solve", str(p)], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "ANISOTROPIC"
    assert doc["certificate"] == {"kind": "exhaustion", "M": 7, "statesVisited": 0}
    p.write_text("d=6; 1, 16\n")
    code, out, _ = run(["oracle", str(p)], capsys)
    assert code == 1 and json.loads(out)["verdict"] == "ANISOTROPIC"


def test_solve_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("d=6; 1, 7"))
    code, out, _ = run(["solve", "-"], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "ISOTROPIC"


@pytest.mark.parametrize("text, precision", [
    ("d=6; 1, 3, 1024", "20"),  # 1024 is 0 at the default K = 10
    ("d=6; 1, 1025", "12"),  # 1025 is 1 at the default K = 10
])
def test_solve_precision_reads_text_as_json(tmp_path, capsys, text, precision):
    # the override applies before the form is built, in either format
    pairs = [[int(c), 0] for c in text.split(";")[1].split(",")]
    (tmp_path / "f.txt").write_text(text + "\n")
    (tmp_path / "f.json").write_text(json.dumps(
        {"degree": 6, "precision": 10, "coeffs": pairs}))
    results = []
    for name in ("f.txt", "f.json"):
        path = str(tmp_path / name)
        assert cli.load_form(path, int(precision)).to_json() == {
            "degree": 6, "precision": int(precision), "coeffs": pairs}
        results.append(run(["solve", path, "--precision", precision], capsys))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1) and results[0][2] == ""


def test_oracle_full_decision(h6_file, capsys):
    code, out, _ = run(["oracle", h6_file], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "ANISOTROPIC"
    assert doc["certificate"]["M"] == 7


def test_oracle_window_only(g6_file, capsys):
    # mod 8 the unit may sit at level 0, G's only level; a zero of G mod 8
    # would be one mod 4, which criterion 01 rules out
    code, out, _ = run(["oracle", g6_file, "--precision", "3"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["found"] is False and doc["modulus"] == 3


def test_oracle_precision_finds_zeros_of_the_input_form(tmp_path, capsys):
    # the search reads each coefficient as it is, reduced or not, so every
    # assignment found is a zero mod 2^M of the input form; x^6 + 448 y^6
    # has none mod 8 (448 y^6 vanishes there and x must be the unit),
    # though its reduction x^6 + 7 y^6 has one
    p = tmp_path / "f.txt"
    p.write_text("d=6; K=16; 1, 448\n")
    code, out, _ = run(["oracle", str(p), "--precision", "3"], capsys)
    assert code == 1 and json.loads(out)["found"] is False
    found = 0
    for text in ("d=6; K=16; 1, 448", "d=6; K=16; 1, 7, 448", "d=6; K=20; 64, 7, 3*w, 2",
                 "d=6; K=20; 1, 64, 1*w, 128", "d=10; K=24; 1, 1024, 3, 5*w"):
        p.write_text(text + "\n")
        f = cli.load_form(str(p))
        for M in range(3, 8):
            code, out, _ = run(["oracle", str(p), "--precision", str(M)], capsys)
            doc = json.loads(out)
            assert code == (0 if doc["found"] else 1)
            if not doc["found"]:
                continue
            found += 1
            values = [RingElem(a, b, f.K) for a, b in doc["assignment"]]
            total = f.evaluate(values)
            assert (total.a | total.b) % (1 << M) == 0, (text, M)
            anchor = values[doc["anchor"]]
            assert anchor.is_unit() and f.levels()[doc["anchor"]] <= M - 3
    assert found >= 10


def test_oracle_modulus_beyond_policy_exit65(g6_file, capsys):
    code, _, _ = run(["oracle", g6_file, "--precision", "11"], capsys)
    assert code == 65


def test_witness_verify_roundtrip(iso_file, tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run(["solve", iso_file, "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    wit_path = tmp_path / "wit.json"
    wit_path.write_text(json.dumps(doc["witness"]))
    code, out, _ = run(["witness", "verify", iso_file, str(wit_path)], capsys)
    assert code == 0 and json.loads(out)["valid"] is True

    tampered = dict(doc["witness"])
    tampered["values"] = [[3, 1]] + tampered["values"][1:]
    wit_path.write_text(json.dumps(tampered))
    code, out, _ = run(["witness", "verify", iso_file, str(wit_path)], capsys)
    assert code == 1 and json.loads(out)["valid"] is False


def test_certificate_verify(tmp_path, capsys):
    # before the single pass this form's certificate named its levels
    # rotated by t = 1 and failed against the form itself
    form = tmp_path / "f.txt"
    form.write_text("d=6; K=10; 1, 7, 32\n")
    res = tmp_path / "res.json"
    assert run(["solve", str(form), "--out", str(res)], capsys)[0] == 0
    doc = json.loads(res.read_text())
    bare = tmp_path / "cert.json"
    bare.write_text(json.dumps(doc["contraction"]))
    for path in (res, bare):
        code, out, _ = run(["certificate", "verify", str(form), str(path)], capsys)
        assert code == 0 and json.loads(out) == {
            "valid": True, "anchor": doc["contraction"]["anchor"],
            "anchorLevel": doc["contraction"]["anchorLevel"]}
    # a doctored copy: one leaf raised to 2 times a unit
    doctored = json.loads(json.dumps(doc["contraction"]))
    leaf = next(rec for rec in doctored["nodes"] if rec["kind"] == "leaf")
    leaf["exp"] = leaf.get("exp", 0) + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doctored))
    code, out, _ = run(["certificate", "verify", str(form), str(bad)], capsys)
    assert code == 1 and json.loads(out)["valid"] is False
    # another form with the same levels
    other = tmp_path / "g.txt"
    other.write_text("d=6; K=10; 1, 3, 32\n")
    code, out, _ = run(["certificate", "verify", str(other), str(bare)], capsys)
    assert code == 1 and json.loads(out)["valid"] is False


@pytest.mark.parametrize("doc", [
    "not json",
    json.dumps({"verdict": "ANISOTROPIC", "stage": "oracle"}),
    json.dumps({"kind": "contraction", "degree": 6, "precision": 10, "root": 0,
                "nodes": [{"id": 0, "kind": "leaf", "value": [1, 0], "var": 0, "exp": -1}]}),
    json.dumps([1, 2]),
], ids=["not-json", "no-contraction", "negative-exp", "a-list"])
def test_certificate_verify_malformed_exit64(tmp_path, capsys, doc):
    form = tmp_path / "f.txt"
    form.write_text("d=6; K=10; 1, 7, 32\n")
    cert = tmp_path / "cert.json"
    cert.write_text(doc)
    code, out, err = run(["certificate", "verify", str(form), str(cert)], capsys)
    assert code == 64 and out == "" and "cannot parse certificate file" in err


@pytest.mark.parametrize("field", ["leaf-value", "multiplier", "epsilon", "root", "node-id",
                                   "child-id"])
def test_certificate_verify_non_integer_field_exit64(tmp_path, capsys, field):
    # each edit used to be read as the integer it equals (true as 1, 2.0
    # as 2), and the certificate was reported valid (exit 0)
    form = tmp_path / "f.txt"
    form.write_text("d=6; K=10; 1, 7\n")
    res = tmp_path / "res.json"
    assert run(["solve", str(form), "--out", str(res)], capsys)[0] == 0
    cert = json.loads(res.read_text())["contraction"]
    leaf0, leaf1, top = cert["nodes"]
    assert (leaf0["kind"], leaf1["kind"], top["id"], cert["root"]) == ("leaf", "leaf", 2, 2)
    if field == "leaf-value":
        leaf0["value"] = [True, 0]
    elif field == "multiplier":
        leaf0["multiplier"] = [True, False]
    elif field == "epsilon":  # the rep 125 = 5^3 carries epsilon 1, and 125 + 7 * 125 = 1000
        leaf0.update(multiplier=[125, 0], epsilon=1)
        leaf1.update(multiplier=[125, 0], epsilon=True)
        top["value"] = [1000, 0]
    elif field == "root":
        cert["root"] = 2.0
    elif field == "node-id":
        leaf1["id"] = True
        top["children"] = [0, True]
    else:
        top["children"] = [0, True]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, err = run(["certificate", "verify", str(form), str(path)], capsys)
    assert code == 64 and out == ""
    assert "cannot parse certificate file" in err and "must be an integer" in err


def test_certificate_verify_refuses_a_bogus_kind_and_a_foreign_epsilon(tmp_path, capsys):
    # both used to be reported valid (exit 0).  9 = 1 mod 8 is a sixth
    # power and the root 1 + 7 * 9 = 64 vanishes mod 8, but 9's rep mod 8
    # is 1, whose epsilon is 0; a kind other than leaf read as contraction
    form = tmp_path / "f.txt"
    form.write_text("d=6; K=10; 1, 7\n")
    res = tmp_path / "res.json"
    assert run(["solve", str(form), "--out", str(res)], capsys)[0] == 0
    doc = json.loads(res.read_text())
    for name in ("epsilon", "kind"):
        bad = json.loads(json.dumps(doc))
        leaf1, top = bad["contraction"]["nodes"][1:]
        if name == "epsilon":
            leaf1.update(multiplier=[9, 0], epsilon=7)
            top["value"] = [64, 0]
        else:
            top["kind"] = "bogus"
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        for flags in ([], ["-O"]):
            proc = fresh_process([sys.executable, *flags, "-m", "padic_forms",
                                  "certificate", "verify", str(form), str(path)])
            assert proc.returncode == 64 and proc.stdout == "", (name, flags, proc.stdout)
            assert "cannot parse certificate file" in proc.stderr, (name, flags)
            assert proc.stderr.count("\n") == 1, (name, flags)


def test_certificate_verify_reads_a_deep_chain(tmp_path, capsys):
    # 2,000 contractions deep: the recursive reader died with a
    # RecursionError traceback and exit 1, the "check failed" code
    form = tmp_path / "ones.json"
    form.write_text(json.dumps({"degree": 6, "precision": 10, "coeffs": [[1, 0]] * 2000}))
    cert = tmp_path / "chain.json"
    cert.write_text(json.dumps(chain_certificate(2000)))
    code, out, err = run(["certificate", "verify", str(form), str(cert)], capsys)
    assert code == 1 and json.loads(out)["valid"] is False and err == ""


def test_certificate_verify_reads_a_long_chain_in_linear_memory(tmp_path, capsys):
    # 16,000 contractions, a 3.5 MB document: with a set of variables per
    # node the reader needed some 5 GB and 12 s
    form = tmp_path / "ones.json"
    form.write_text(json.dumps({"degree": 6, "precision": 10, "coeffs": [[1, 0]] * 16000}))
    cert = tmp_path / "chain.json"
    cert.write_text(json.dumps(chain_certificate(16000)))
    start = time.perf_counter()
    code, out, err = run(["certificate", "verify", str(form), str(cert)], capsys)
    assert time.perf_counter() - start < 8
    assert code == 1 and json.loads(out)["valid"] is False and err == ""


def test_certificate_verify_on_reused_nodes_ids_degrees_and_exponents(tmp_path, capsys):
    # `solve`'s certificate for (1, 7), edited four ways.  A node id
    # listed twice was read as its last record (exit 0); a certificate of
    # degree 10 checked against the sextic was valid (exit 0); a root
    # listing both leaves twice, 1 + 7 + 1 + 7 = 16, was a parse error
    # (exit 64) and is now a tree that uses its variables twice (exit 1).
    # Leaves with exponent m stand for their coefficients times 2^(6m),
    # so their recorded values are multiples of it; with m = 2^40 on both
    # the check worked mod 2^(6m + 3) and ran out of memory (exit 70)
    form = tmp_path / "f.txt"
    form.write_text("d=6; K=10; 1, 7\n")
    res = tmp_path / "res.json"
    assert run(["solve", str(form), "--out", str(res)], capsys)[0] == 0
    good = json.loads(res.read_text())["contraction"]
    edits = {"duplicate": 64, "degree": 1, "overlap": 1, "shifted": 1}
    for name, want in edits.items():
        doc = json.loads(json.dumps(good))
        if name == "duplicate":
            doc["nodes"].append(dict(doc["nodes"][0]))
        elif name == "degree":
            doc["degree"] = 10
        elif name == "shifted":
            for n in doc["nodes"][:2]:
                n["exp"] = SHIFTABLE
        else:
            top = doc["nodes"][2]
            top["children"] *= 2
            top["value"] = [16, 0]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(["certificate", "verify", str(form), str(path)], capsys)
        assert code == want, (name, code, err)
        if want == 64:
            assert out == "" and "lists a node id twice" in err
        else:
            assert json.loads(out)["valid"] is False and err == ""


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize("argv", [
    ["solve", "deep-form.json"],
    ["witness", "verify", "f.txt", "deep.json"],
    ["certificate", "verify", "f.txt", "deep.json"],
], ids=["solve", "witness", "certificate"])
def test_deeply_nested_json_is_unreadable_input(tmp_path, capsys, argv):
    # the decoder's RecursionError used to escape as a traceback with
    # exit 1, the ANISOTROPIC (or "check failed") code
    (tmp_path / "f.txt").write_text("d=6; 1, 7\n")
    (tmp_path / "deep-form.json").write_text('{"degree": ' + DEEP + "}")
    (tmp_path / "deep.json").write_text(DEEP)
    argv = [str(tmp_path / a) if (tmp_path / a).exists() else a for a in argv]
    code, out, err = run(argv, capsys)
    assert code == 64 and out == "" and "cannot parse" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["oracle", "f.txt", "-v"],
    ["witness", "verify", "f.txt", "w.json", "--verbose"],
    ["certificate", "verify", "f.txt", "c.json", "-v"],
], ids=["oracle", "witness", "certificate"])
def test_verbose_is_refused_where_no_timing_is_printed(argv, capsys):
    # it used to be accepted and change no byte of the output
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 64 and "unrecognized arguments" in capsys.readouterr().err
    parser = cli.build_parser()
    for argv in (["solve", "f.txt", "-v"], ["lemma", "probe", "025", "-v"],
                 ["gamma", "--d", "6", "--s", "1", "-v"]):
        assert parser.parse_args(argv).verbose is True


@pytest.mark.parametrize("field, value", [
    ("primitive", "0"),
    ("target_valuation", "10"),
    ("primitive", True),
    ("target_valuation", True),
])
def test_witness_verify_mistyped_field_exit64(iso_file, tmp_path, capsys, field, value):
    # a string used to end in a TypeError traceback (exit 1, "check
    # failed"), and true was taken as 1 or 0 and echoed back as true
    _, out, _ = run(["solve", iso_file], capsys)
    wit = dict(json.loads(out)["witness"], **{field: value})
    wit_path = tmp_path / "wit.json"
    wit_path.write_text(json.dumps(wit))
    code, out, err = run(["witness", "verify", iso_file, str(wit_path)], capsys)
    assert code == 64 and out == ""
    assert "cannot parse witness file" in err and f"witness {field} must be an integer" in err


def test_form_boolean_coefficient_exit64(tmp_path, capsys):
    # true used to read as 1, and the form was decided (exit 0)
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"degree": 6, "precision": 10, "coeffs": [[True, 0], [7, 0]]}))
    for argv in (["solve", str(p)], ["oracle", str(p)]):
        code, out, err = run(argv, capsys)
        assert code == 64 and out == "", argv
        assert "coefficient must be an integer, got True" in err and err.count("\n") == 1, argv


def test_solve_float_degree_exit64(tmp_path, capsys):
    # 6.0 passes every comparison of the degree check, then broke on arithmetic
    p = tmp_path / "f.json"
    p.write_text(json.dumps({"degree": 6.0, "precision": 10, "coeffs": [[1, 0], [7, 0]]}))
    code, out, err = run(["solve", str(p)], capsys)
    assert code == 64 and out == ""
    assert "degree must be an integer, got 6.0" in err


def test_lemma_verify_exhaustive(capsys):
    code, out, _ = run(["lemma", "verify", "007"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 170544 and doc["failures"] == []
    assert doc["mode"] == "EXHAUSTIVE"


def test_lemma_verify_sampled_small(capsys):
    code, out, _ = run(["lemma", "verify", "541", "--trials", "500"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 500 and doc["seed"] == 42
    assert doc["failures"] == [] and "elapsed" not in doc


def test_lemma_probe(capsys):
    code, out, _ = run(["lemma", "probe", "007"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "minimality"
    assert doc["decrements"][0]["searchFailures"] > 0


def test_lemma_unknown_exit64(capsys):
    code, _, err = run(["lemma", "verify", "999"], capsys)
    assert code == 64 and "known" in err


def test_lemma_bad_mode_exit64(capsys):
    # a lemma's mode follows from its shape; --mode is no option
    with pytest.raises(SystemExit) as exc:
        run(["lemma", "verify", "541", "--mode", "exhaustive"], capsys)
    out, err = capsys.readouterr()
    assert exc.value.code == 64 and out == ""
    assert "unrecognized arguments: --mode" in err


@pytest.mark.parametrize("argv", [
    ["lemma", "verify", "5", "--trials", "0"],
    ["lemma", "verify", "541", "--trials", "-2"],
    ["reproduce", "--trials", "0", "--d", "6"],
    ["gamma", "--d", "6", "--s", "8", "--trials", "0"],
])
def test_trials_below_one_exit64(argv, capsys):
    # zero samples would pass every sampled check vacuously
    code, out, err = run(argv, capsys)
    assert code == 64 and out == ""
    assert "at least 1" in err


def test_out_of_memory_exit70(monkeypatch, capsys):
    # a request too large for memory is not a failed check (exit 1); the
    # message names the request and no traceback follows
    def too_big(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "sweep_lemma", too_big)
    code, out, err = run(["lemma", "verify", "5", "--trials", "100000000000"], capsys)
    assert code == 70 and out == ""
    assert err == "padic-forms: not enough memory for: lemma verify 5 --trials 100000000000\n"


def test_battery_rejects_a_zero_trials_cap(capsys):
    with pytest.raises(ValueError, match="trials_cap must be at least 1"):
        cli.run_battery([10], trials_cap=0)
    assert capsys.readouterr().out == ""


def test_lemma_negative_seed_exit64(capsys):
    code, out, err = run(["lemma", "verify", "5", "--trials", "10", "--seed", "-1"], capsys)
    assert code == 64 and out == ""
    assert "seed must be non-negative, got -1" in err
    assert "expected non-negative integer" not in err


def test_gamma_deterministic_output(capsys):
    args = ["gamma", "--d", "6", "--s", "25", "--trials", "4", "--seed", "11"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["trials"] == 4 and doc["isotropic"] == 4


def test_reproduce_quick_d10(capsys):
    ok = cli.run_battery([10], trials_cap=30)
    lines = capsys.readouterr().out.strip().splitlines()
    assert ok is True
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)
    names = [line.split()[2] for line in lines]
    assert names[0] == "obstruction-G" and names[-1] == "agreement"


def test_battery_rows_follow_the_degree(capsys):
    # each row derives from d: H descends in one round per block, F and I
    # run when 3 | d (I's first window as at d = 6), the oracle row only
    # while H fits the oracle's modulus, the threshold at
    # isotropy_threshold(d)
    ok = cli.run_battery([14, 18, 22], trials_cap=20)
    lines = capsys.readouterr().out.splitlines()
    assert ok is True and all(line.startswith("PASS") for line in lines), lines
    rows = [(line.split()[1], line.split()[2]) for line in lines]
    head, tail = ["obstruction-G", "descent-H"], ["agreement"]
    assert rows == ([("d=14", n) for n in head + ["threshold-s22"] + tail]
                    + [("d=18", n) for n in head + ["descent-F", "descent-I", "threshold-s73"] + tail]
                    + [("d=22", n) for n in head + ["threshold-s34"] + tail])
    details = [line.split(None, 3)[3] for line in lines]
    for d, rounds in ((14, 7), (18, 9), (22, 11)):
        assert f"H(d={d}): DESCENT, {rounds} rounds" in details
    assert "F(d=18): DESCENT, 1 round" in details
    assert "I(d=18): DESCENT, 18 rounds, first window frozen set" in details


@pytest.mark.parametrize("d", ["8", "2", "0"])
def test_reproduce_bad_degree_exit64(d, capsys):
    # the degree is checked before any row runs, so no FAIL row is printed
    code, out, err = run(["reproduce", "--d", d, "--trials", "1"], capsys)
    assert code == 64 and out == ""
    assert "degree" in err


def test_bad_usage_exit64(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 64
    capsys.readouterr()


def package_env() -> dict:
    """The environment with this padic_forms first on PYTHONPATH."""
    env = dict(os.environ)
    pkg_root = str(Path(padic_forms.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [pkg_root, env.get("PYTHONPATH")] if p
    )
    return env


def fresh_process(argv):
    """Run argv in a new interpreter that imports this padic_forms, from
    whatever directory pytest was started in."""
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=package_env())


def test_console_script_help():
    proc = fresh_process([sys.executable, "-m", "padic_forms", "--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: padic-forms")
    for word in SUBCOMMANDS:
        assert word in proc.stdout
    # the installed script must run the same main as `python -m padic_forms`
    text = PYPROJECT.read_text()
    if tomllib is None:
        assert 'padic-forms = "padic_forms.cli:main"' in text.splitlines()
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
        assert scripts["padic-forms"] == "padic_forms.cli:main"


def test_module_entry_passes_exit_codes(h6_file):
    proc = fresh_process([sys.executable, "-m", "padic_forms", "solve", h6_file])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "ANISOTROPIC"
    proc = fresh_process([sys.executable, "-m", "padic_forms", "frobnicate"])
    assert proc.returncode == 64


@pytest.mark.parametrize("argv", [["lemma", "verify", "223"], ["solve", "-"]])
def test_closed_stdout_ends_quietly(argv):
    # the reader is gone before the output comes: the report (several KB)
    # fails in its write, the verdict (a few hundred bytes) in the flush;
    # either way no traceback, and the status a SIGPIPE death would give
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "padic_forms", *argv], input=b"d=6; 1, 1",
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                              env=package_env())
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 141


# a form whose only zeros need a variable equal to 2 times a unit, so a
# leaf of its certificate carries an exponent
WRAPPED_ISOTROPIC = {"degree": 6, "precision": 10, "coeffs": [
    [608, 0], [928, 576], [424, 432], [152, 728], [472, 1008], [934, 272], [340, 62],
    [32, 160], [576, 96]]}


def test_solve_is_the_same_under_python_O(tmp_path, h6_file):
    # python -O strips asserts; no verdict may depend on one
    # the second case's levels used to be rotated before the search; the
    # third divides 448 = 7 * 2^6 down to level 0 before the search
    cases = [("search.txt", "d=6; 1, 7\n", 0, "search"),
             ("shifted.txt", "d=6; 1, 7, 32\n", 0, "search"),
             ("unreduced.txt", "d=6; K=20; 1, 448\n", 0, "search"),
             ("wrapped.json", json.dumps(WRAPPED_ISOTROPIC), 0, "search"),
             ("short.txt", "d=6; K=2; 1, 1, w\n", 65, None)]
    paths = [(h6_file, 1, "oracle")]
    for name, text, code, stage in cases:
        (tmp_path / name).write_text(text)
        paths.append((str(tmp_path / name), code, stage))
    for path, code, stage in paths:
        plain = fresh_process([sys.executable, "-m", "padic_forms", "solve", path])
        optimized = fresh_process([sys.executable, "-O", "-m", "padic_forms", "solve", path])
        assert plain.returncode == optimized.returncode == code, path
        assert plain.stdout == optimized.stdout, path
        if stage is not None:
            assert json.loads(plain.stdout)["stage"] == stage
        else:
            assert plain.stdout == "" and "window" in optimized.stderr


HUGE = 2**70  # 2^HUGE has more digits than an int can hold
SHIFTABLE = 2**40  # 2^SHIFTABLE is an int Python would try to build, in 128 GB


def _form_doc(K) -> dict:
    return {"degree": 6, "precision": K, "coeffs": [[1, 0], [7, 0]]}


def _witness_doc(K) -> dict:
    return {"values": [[1, 0], [1, 0]], "primitive": 0, "target_valuation": 3, "precision": K}


def _certificate_doc(K) -> dict:
    return {"kind": "contraction", "degree": 6, "precision": K, "root": 0,
            "nodes": [{"id": 0, "kind": "leaf", "value": [1, 0], "var": 0}]}


BAD_INPUTS = {
    "p0.json": _form_doc(0),
    "empty.json": {"degree": 6, "precision": 10, "coeffs": []},
    "w0.json": _witness_doc(0),
    "huge.json": _form_doc(HUGE),
    "whuge.json": _witness_doc(HUGE),
    "c0.json": _certificate_doc(0),
    "c-3.json": _certificate_doc(-3),
    "chuge.json": _certificate_doc(HUGE),
}


@pytest.mark.parametrize("argv, code, message", [
    (["solve", "p0.json"], 65, "precision must be at least 1, got 0"),
    (["solve", "f.txt", "--precision", "0"], 65, "precision must be at least 1, got 0"),
    (["solve", "empty.json"], 64, "form has no coefficients"),
    (["witness", "verify", "f.txt", "w0.json"], 64, "witness precision must be at least 1"),
    (["oracle", "f.txt", "--precision", "0"], 65, "oracle modulus 2^0 is below 2^1"),
    (["oracle", "f.txt", "--precision", "1"], 64, "max_unit_level -2 is below 0"),
    (["oracle", "f.txt", "--precision", "2"], 64, "max_unit_level -1 is below 0"),
    (["gamma", "--d", "6", "--s", "0"], 64, "needs at least 1 variable, got 0"),
    (["solve", "huge.json"], 65, f"precision {HUGE} is too large to hold"),
    (["solve", "f.txt", "--precision", str(HUGE)], 65, f"precision {HUGE} is too large to hold"),
    (["witness", "verify", "f.txt", "whuge.json"], 64, f"witness precision {HUGE} is too large"),
    (["certificate", "verify", "f.txt", "chuge.json"], 64, f"certificate precision {HUGE} is too large"),
    (["certificate", "verify", "f.txt", "c0.json"], 64,
     "certificate precision must be an integer at least 1, got 0"),
    (["certificate", "verify", "f.txt", "c-3.json"], 64,
     "certificate precision must be an integer at least 1, got -3"),
], ids=["json-precision-0", "flag-precision-0", "no-coeffs", "witness-precision-0",
        "oracle-modulus-0", "oracle-modulus-1", "oracle-modulus-2", "gamma-s-0",
        "json-precision-huge", "flag-precision-huge", "witness-precision-huge",
        "certificate-precision-huge", "certificate-precision-0", "certificate-precision-neg"])
def test_bad_input_is_rejected_under_python_O(tmp_path, argv, code, message):
    # checked at the library boundary, not by asserts that -O strips
    (tmp_path / "f.txt").write_text("d=6; 1, 7\n")
    for name, doc in BAD_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / a) if (tmp_path / a).exists() else a for a in argv]
    for flags in ([], ["-O"]):
        proc = fresh_process([sys.executable, *flags, "-m", "padic_forms", *argv])
        assert proc.returncode == code, (flags, proc.stderr)
        assert proc.stdout == ""
        assert message in proc.stderr and "Traceback" not in proc.stderr, flags


@pytest.mark.parametrize("K", [0, -1, HUGE, SHIFTABLE, "10", True],
                         ids=["zero", "negative", "huge", "shiftable", "string", "bool"])
def test_every_precision_reader_refuses_bad_values(tmp_path, capsys, K):
    # each subcommand that reads a precision, from a document or from
    # --precision: exit 64 or 65 with one line on stderr, never 0 or 1
    # ("valid" or "check failed") and never a traceback; a value that is
    # no integer, true included, exits 64.  On the command line "10" is
    # the number 10, so the string goes only into documents, and so does
    # true, which the command line cannot spell
    form = tmp_path / "f.txt"
    form.write_text("d=6; 1, 7\n")
    docs = {"form": _form_doc(K), "witness": _witness_doc(K), "certificate": _certificate_doc(K)}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    path = {name: str(tmp_path / f"{name}.json") for name in docs}
    runs = [["solve", path["form"]], ["oracle", path["form"]],
            ["witness", "verify", str(form), path["witness"]],
            ["certificate", "verify", str(form), path["certificate"]]]
    if not isinstance(K, (str, bool)):
        runs += [["solve", str(form), "--precision", str(K)], ["oracle", str(form), "--precision", str(K)]]
    for argv in runs:
        code, out, err = run(argv, capsys)
        assert code in ((64,) if isinstance(K, (str, bool)) else (64, 65)) and out == "", (argv, code, err)
        assert "Traceback" not in err and err.count("\n") == 1, (argv, err)


@pytest.mark.skipif(
    shutil.which("padic-forms") is None, reason="padic-forms script not installed"
)
def test_installed_script_matches_module():
    script = fresh_process(["padic-forms", "--help"])
    module = fresh_process([sys.executable, "-m", "padic_forms", "--help"])
    assert script.returncode == 0
    assert script.stdout == module.stdout
