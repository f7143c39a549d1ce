"""Decision pipeline: certificates, lifting, flat exhaustion, verdicts."""

import ast
import importlib
import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

from padic_forms import flat, forms
from padic_forms.engine import certificate_from_json, certificate_to_json, validate_certificate
from padic_forms.forms import AdditiveForm, normalize, parse_form_text, reduce_levels
from padic_forms.oracle import decide_isotropy_exhaustive
from padic_forms.ring import RingElem
from padic_forms import solver
from padic_forms.solver import (
    IsotropyResult,
    decide_isotropy,
    isotropy_threshold,
)
from padic_forms.sweeps import exhaustive_lemma_ids, sampled_lemma_ids, sweep_lemma
from padic_forms.witness import verify_witness
from test_forms import _seeded_form, rotated

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_threshold_values():
    assert isotropy_threshold(2) == 5
    assert isotropy_threshold(6) == 25
    assert isotropy_threshold(10) == 16
    assert isotropy_threshold(18) == 73
    assert isotropy_threshold(14) == 22


def test_quadratic_threshold_is_five():
    # the u-invariant of a local field is 4: some 4-variable quadratic form
    # has no zero, so 4 variables are below the threshold, 5 reach it
    anisotropic = AdditiveForm.from_json(parse_form_text("d=2; 5+6*w, 1, 1+w, 1+6*w"))
    r = decide_isotropy(anisotropic)
    assert (r.verdict, r.stage) == ("ANISOTROPIC", "oracle")
    assert decide_isotropy_exhaustive(anisotropic).verdict == "ANISOTROPIC"
    r = decide_isotropy(AdditiveForm.from_json(parse_form_text("d=2; 1, 1, 1, 1")))
    assert (r.verdict, r.stage) == ("ISOTROPIC", "search")
    r = decide_isotropy(AdditiveForm.from_json(parse_form_text("d=2; 1, 1, 1, 1, 1")))
    assert (r.verdict, r.stage) == ("ISOTROPIC", "search-threshold")


def test_x6_plus_7y6_isotropic_by_search():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    r = decide_isotropy(f)
    assert r.verdict == "ISOTROPIC" and r.stage == "search"
    assert r.witness.V == 10
    assert r.witness.values[1] == RingElem(1, 0, 10)
    x0 = r.witness.values[0]
    assert x0 ** 6 + RingElem(7, 0, 10) == RingElem.zero(10)
    assert verify_witness(f, r.witness)


def test_unit_form_needs_oracle_for_anisotropy():
    f = AdditiveForm.from_pairs(6, [(1, 0), (1, 0), (0, 1)], 10)
    r = decide_isotropy(f)
    assert r.verdict == "ANISOTROPIC" and r.stage == "oracle"
    assert r.certificate.to_json()["kind"] == "exhaustion"
    assert r.witness is None


def test_mixed_level_anisotropic():
    f = AdditiveForm.from_pairs(6, [(2, 0), (7, 0)], 10)
    r = decide_isotropy(f)
    assert r.verdict == "ANISOTROPIC" and r.stage == "oracle"


def test_four_units_contract_to_witness():
    f = AdditiveForm.from_pairs(6, [(1, 0)] * 4, 10)
    r = decide_isotropy(f)
    assert r.verdict == "ISOTROPIC" and r.stage == "search"
    used = [v for v in r.witness.values if v != RingElem.zero(10)]
    assert len(used) == 4 and all(v.is_unit() for v in used)
    assert f.evaluate(r.witness.values) == RingElem.zero(10)


def test_threshold_stage_tag_and_success():
    rng = random.Random(5)
    for d, s in ((6, 25), (10, 16)):
        pairs = []
        for _ in range(s):
            a, b = rng.getrandbits(8), rng.getrandbits(8)
            if (a | b) % 2 == 0:
                a |= 1
            pairs.append((a, b))
        f = AdditiveForm.from_pairs(d, pairs)
        r = decide_isotropy(f)
        assert r.verdict == "ISOTROPIC" and r.stage == "search-threshold"
        assert verify_witness(f, r.witness)


def test_level_gap_beyond_oracle_policy_is_anisotropic():
    # M = 11 in the reduced frame, past the FFT's policy; the flat kernel
    # decides it, and the FFT agrees on the isotropy-equivalent rotation
    # by 2 (levels 2, 2, 0, so M = 5), built as a root form
    f = AdditiveForm.from_pairs(10, [(1, 0), (1, 0), (256, 0)], 14)
    r = decide_isotropy(f)
    assert r.verdict == "ANISOTROPIC" and r.stage == "oracle"
    assert r.certificate.to_json()["M"] == 11
    shifted = rotated(f, 2)
    assert shifted.max_level() + 3 == 5
    dec = decide_isotropy_exhaustive(shifted)
    assert dec.verdict == "ANISOTROPIC" and dec.certificate.M == 5


def test_agreement_with_oracle_on_small_forms():
    rng = random.Random(4242)
    K = 12
    checked = {"ISOTROPIC": 0, "ANISOTROPIC": 0}
    for _ in range(60):
        s = rng.randrange(2, 6)
        pairs = []
        for _ in range(s):
            lvl = rng.randrange(0, 5)
            a = rng.getrandbits(K) | (1 << lvl)
            b = rng.getrandbits(K) & ~((1 << lvl) - 1)
            pairs.append((a, b))
        f = AdditiveForm.from_pairs(6, pairs, K)
        r = decide_isotropy(f)
        want = decide_isotropy_exhaustive(f).verdict
        assert r.verdict == want, (pairs, r.verdict, want)
        checked[want] += 1
        if r.verdict == "ISOTROPIC":
            assert verify_witness(f, r.witness)
        else:
            assert r.certificate is not None
    assert checked["ISOTROPIC"] > 0 and checked["ANISOTROPIC"] > 0


def test_result_json_shape():
    f = AdditiveForm.from_pairs(6, [(1, 0), (7, 0)], 10)
    r = decide_isotropy(f)
    doc = r.to_json(include_timings=False)
    assert doc["verdict"] == "ISOTROPIC"
    assert doc["stage"] == "search"
    assert "witness" in doc and "contraction" in doc
    assert "timings" not in doc
    timed = r.to_json()
    assert set(timed["timings"]) == {"search", "validate", "lift"}

    g = AdditiveForm.from_pairs(6, [(1, 0), (1, 0), (0, 1)], 10)
    doc2 = decide_isotropy(g).to_json(include_timings=False)
    assert doc2["certificate"]["kind"] == "exhaustion"
    assert "witness" not in doc2


def test_trace_hook_names_exist(monkeypatch):
    # perfbench/spans.py wraps these names with getattr; a missing one
    # would crash `perfbench/run.py --trace 1`.  Read from its source
    # without running it
    spans = ast.parse(SPANS.read_text())
    wrapped = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "WRAPPED")
    assert len(wrapped.elts) >= 10
    for entry in wrapped.elts:
        module, attr = entry.elts[0].id, ast.literal_eval(entry.elts[1])
        target = importlib.import_module(f"padic_forms.{module}")
        assert callable(getattr(target, attr, None)), f"{module}.{attr}"
    # a search-stage decision reaches each layer the spans time through
    # solver's namespace once, so no per-layer metric silently reads 0
    layers = ("search_certificate", "validate_certificate",
              "lift_witness", "solve_anchor", "verify_witness")
    calls = {}
    for name in layers:
        def counted(*args, _fn=getattr(solver, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    r = solver.decide_isotropy(AdditiveForm.from_pairs(6, [(1, 0), (7, 0), (32, 0)], 10))
    assert r.stage == "search"
    assert calls == dict.fromkeys(layers, 1), calls


def _ast_constant(path: Path, name: str):
    """The literal a module assigns to `name`, read without running it."""
    tree = ast.parse(path.read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name)


def test_benchmark_contract_fields():
    # perfbench/worker.py reads these fields of the traced search and of
    # sweep reports; `perfbench/run.py --trace 1` needs every one of them
    routes = _ast_constant(PERFBENCH / "worker.py", "ROUTES")
    for pairs, status in (([(1, 0), (7, 0)], "FOUND"), ([(1, 0), (1, 2)], "NOT_FOUND")):
        out = solver.search_certificate(AdditiveForm.from_pairs(6, pairs, 10))
        assert out.status == status
        assert isinstance(out.nodes_expanded, int)
    rep = sweep_lemma("5", "SAMPLED", trials=200, seed=42)
    assert set(rep.resolution) == set(routes)
    assert rep.escalations == {}
    # the sweeps workload's plan: these ids, in this order
    assert sampled_lemma_ids() == ["0061", "0241", "0225", "0045", "541", "211", "31", "5", "401", "23"]
    assert exhaustive_lemma_ids() == ["223", "133", "115", "044", "025", "007"]


def test_search_decision_runs_one_kernel_pass(monkeypatch):
    # the decision reduces and asks the kernel once; it never rotates the
    # levels (`normalize` stays only for the benchmark's recheck)
    calls = {"flat_zero": 0, "normalize": 0}

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(flat, "flat_zero", count("flat_zero", flat.flat_zero))
    for module in (forms, solver):
        monkeypatch.setattr(module, "normalize", count("normalize", forms.normalize))
    for pairs, stage in (([(1, 0), (7, 0), (32, 0)], "search"), ([(1, 0), (1, 2)], "oracle")):
        calls.update(flat_zero=0, normalize=0)
        r = decide_isotropy(AdditiveForm.from_pairs(6, pairs, 10))
        assert r.stage == stage
        assert calls == {"flat_zero": 1, "normalize": 0}


def _decision_bytes(f):
    return json.dumps(decide_isotropy(f).to_json(include_timings=False), sort_keys=True)


def test_decision_reads_the_root_form():
    # a form, its reduction and its normalized (rotated, scaled) frame
    # decide byte for byte alike: the decider reduces the root form
    rng = random.Random(30)
    seen = Counter()
    for d in (2, 6, 10, 14):
        for _ in range(50):
            f = _seeded_form(rng, d, rng.randrange(1, d + 4), 2 * d, 3 * d + 4)
            g = normalize(f)[0]
            want = _decision_bytes(f)
            assert _decision_bytes(reduce_levels(f)) == want
            assert _decision_bytes(g) == want
            seen[json.loads(want)["verdict"]] += 1
            seen["rotated"] += g.scale_log != 0
            seen["unreduced"] += not f.is_reduced()
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_below_threshold_corpus_certificates_validate_against_the_input():
    # the benchmark's 180 forms: every ISOTROPIC verdict carries a
    # contraction that validates, after a JSON round trip, against the
    # input form and through the normalized frame the benchmark's recheck
    # passes; every reference verdict holds
    spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    per_count = _ast_constant(PERFBENCH / "worker.py", "BELOW_PER_COUNT")
    table = reference["verdicts"]["below-threshold"]
    corpus_forms = corpus.below_corpus(reference["seed"], per_count)
    assert len(corpus_forms) == 180
    isotropic = 0
    for f in corpus_forms:
        r = decide_isotropy(f)
        want = table[corpus.form_key(f)]
        assert want == "INCONCLUSIVE" or r.verdict == want
        if r.verdict != "ISOTROPIC":
            continue
        isotropic += 1
        cert = certificate_from_json(json.loads(json.dumps(certificate_to_json(r.contraction))))
        assert validate_certificate(f, cert)
        assert validate_certificate(normalize(reduce_levels(f))[0], cert)
    assert isotropic == 149
