"""Tests of the benchmark itself: seeded job lists, the oracle against the
library, the tampered reverify inputs and the span tree."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from waring import apolarity, cli, decompose, rank, serialize  # noqa: E402
from waring.forms import parse_form, parse_homogeneous  # noqa: E402


def _reverify_snapshot(seed, tmp_path):
    """Argv (with the directory stripped) and file contents of a reverify pass."""
    jobs = workload.reverify_jobs(seed, str(tmp_path / f"s{seed}"))
    return [(job.argv[:2] + (Path(job.argv[2]).read_text(),), job.expect["pass"])
            for job in jobs]


@pytest.mark.parametrize("name", ["decompose", "certify"])
def test_job_lists_repeat_for_a_seed(name):
    first = workload.jobs_for(name, 7, None)
    assert [j.argv for j in first] == [j.argv for j in workload.jobs_for(name, 7, None)]
    assert [j.argv for j in first] != [j.argv for j in workload.jobs_for(name, 8, None)]


def test_reverify_inputs_repeat_for_a_seed(tmp_path):
    first = _reverify_snapshot(3, tmp_path / "a")
    assert first == _reverify_snapshot(3, tmp_path / "b")
    assert first != _reverify_snapshot(4, tmp_path / "c")
    tampered = sum(not ok for _, ok in first)
    assert tampered == -(-len(first) // 4)


def test_sweep_population(tmp_path):
    assert len(workload.SWEEP_SHAPES) == len(set(workload.SWEEP_SHAPES)) == 36
    for name in workload.WORKLOADS:
        assert len(workload.jobs_for(name, 1, str(tmp_path))) >= run.MIN_JOBS
    phi8 = [s for s in workload.SWEEP_SHAPES
            if len(workload.cyclotomic_poly(workload.block_field_order(s))) - 1 == 8]
    assert sorted(phi8) == [(1, 2, 4), (1, 3, 4), (2, 2, 4)]


def test_cyclotomic_helpers_match_the_library():
    from waring.cyclotomic import CyclotomicNumber, cyclotomic_polynomial
    for n in range(1, 31):
        assert workload.cyclotomic_poly(n) == cyclotomic_polynomial(n)
        for k in range(0, 2 * n, 3):
            assert CyclotomicNumber(n, workload.zeta_power(n, k)) == CyclotomicNumber.zeta(n, k)


def _random_forms(count, seed=11, d_max=6):
    rng = random.Random(seed)
    return [workload._random_sum(rng, d_max=d_max) for _ in range(count)]


def test_closed_form_decompositions_verify_in_the_library():
    rng = random.Random(5)
    forms = [workload._sum_form(rng, (s,)) for s in workload.SWEEP_SHAPES
             if sum(s) <= 6] + _random_forms(8, d_max=5)
    for form in forms:
        parsed = parse_form(form.text())
        dec = serialize.decomposition_from_json(workload.decomposition_json(form))
        report = decompose.verify_decomposition(parsed, dec)
        assert report.passed, form.text()
        assert decompose.least_variable_check(parsed, dec).passed, form.text()


def test_tampered_files_fail_and_untouched_files_pass(tmp_path):
    jobs = workload.reverify_jobs(2, str(tmp_path))
    small = [j for j in jobs if j.expect["form"].degree <= 5]
    assert any(not j.expect["pass"] for j in small)
    for job in small:
        form = parse_form(job.argv[1])
        with open(job.argv[2]) as fh:
            dec = serialize.decomposition_from_json(json.load(fh))
        report = decompose.verify_decomposition(form, dec)
        assert report.expansion_matches == job.expect["pass"], job.expect["tampered"]


@pytest.mark.parametrize("seed", range(8))
def test_tampering_always_changes_the_expansion(seed):
    rng = random.Random(seed)
    for form in _random_forms(10, seed=seed) + [workload._sum_form(rng, ((1, 2, 4),))]:
        dec = workload.decomposition_json(form)
        assert oracle.expansion_error(form, dec, random.Random(1)) < 1e-11
        workload.tamper(dec, form, rng)
        assert oracle.expansion_error(form, dec, random.Random(1)) > 1e-9


def test_oracle_agrees_with_the_library():
    for form in _random_forms(12, d_max=8):
        parsed = parse_form(form.text())
        assert oracle.rank_of(form) == rank.rank_coprime_sum(parsed)
        for t_max in (None, 2):
            t = t_max and min(t_max, form.degree)
            assert oracle.catalecticant_bound(form, t) == \
                apolarity.catalecticant_lower_bound(parsed, t)
    rng = random.Random(3)
    for d in (3, 4, 5):
        terms = workload._non_coprime_terms(rng, d)
        assert oracle.general_catalecticant_bound(terms) == \
            apolarity.catalecticant_lower_bound(parse_homogeneous(workload._poly_text(terms)))
    for n in range(1, 5):
        gens, names = workload._hf_generators(rng, n)
        t_max = 3 * n
        text = ",".join(workload._mono_text(names, g) for g in gens)
        assert oracle.hf_values(gens, t_max) == apolarity.hf_table(cli._parse_generators(text), t_max)
    for n in (2, 3, 4, 6):
        for d in range(3, 13):
            assert oracle.max_monomial_rank(n, d) == rank.survey_max_monomial_rank(n, d).value
            assert oracle.generic_rank(n, d) == tuple(vars(rank.generic_rank(n, d)).values())


def test_oracle_rejects_wrong_outputs():
    form = _random_forms(1)[0]
    dec = workload.decomposition_json(form)
    job = workload.Job("decompose", ("decompose", form.text(), "--json"),
                       {"form": form, "rank": oracle.rank_of(form)})
    assert oracle.check(job, 0, json.dumps(dec)) is None
    dec["terms"][0]["gamma"]["coeffs"][0] = "12345"
    assert oracle.check(job, 0, json.dumps(dec)) is not None
    assert oracle.check(job, 1, "") is not None
    verify = workload.Job("verify", (), {"pass": False, "tampered": "gamma[0]"})
    assert oracle.check(verify, 0, "expansion matches: True\nPASS\n") is not None


def _traced_jobs(jobs):
    runner, tracer = run.Runner(jobs), tracing.Tracer()
    run.traced_pass(runner, tracer)
    return runner, tracer


def test_spans_nest_and_zero_predictions_hold(tmp_path):
    original = decompose.verify_decomposition
    small = [j for j in workload.certify_jobs(1) if j.kind != "bound"][:25]
    small += [j for j in workload.decompose_jobs(1) if j.expect["form"].degree <= 4][:4]
    small += [j for j in workload.reverify_jobs(1, str(tmp_path))
              if j.expect["form"].degree <= 4][:4]
    runner, tracer = _traced_jobs(small)
    assert not runner.failures
    assert decompose.verify_decomposition is original
    for name, start, end, parent, job in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == job
    assert all(v >= 0 for v in tracer.self_times().values())
    assert {s[0] for s in tracer.spans} >= {"cli", "forms.parse", "linalg.solve",
                                            "serialize.from_json", "apolarity.hf"}

    certify_only = [j for j in workload.certify_jobs(2)][:30]
    _, tracer = _traced_jobs(certify_only)
    metrics = tracer.layer_metrics()
    assert metrics["cyclotomic.mul_calls"] == metrics["linalg.solve_calls"] == 0
    assert metrics["forms.parse_calls"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.TARGETS)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])


def test_run_fails_without_the_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert proc.stdout == ""
