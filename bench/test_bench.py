"""Tests of the benchmark itself: python3 -m pytest bench -q

The coloring and member counts are confirmed with the counters in
oracle.py, which import nothing from suplat.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import structures as st
import tracer
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize(
    "spec, colorings",
    [
        (st.pauli_qubit(), 8),
        (st.cabello_3(), 40),
        (st.cabello_18(), 0),
        (st.peres_24(), 0),
        (st.grid_3(), 31104),
        (st.diag(7), 7),
        (st.rot(6, random.Random(1)), 6),
        (st.merged_pair(5, 1, random.Random(2)), 1 + 4 * 4),
        (st.merged_pair(5, 3, random.Random(3)), 3 + 2 * 2),
    ],
    ids=lambda x: getattr(x, "name", str(x)),
)
def test_coloring_counts(spec, colorings):
    assert oracle.coloring_count(spec) == colorings


def test_ks_set_shapes():
    assert (len(st.peres_24_rays()), len(st.peres_24().contexts)) == (24, 24)
    assert (len(st.grid_3_rays()), len(st.grid_3().contexts)) == (49, 26)
    cabello = st.cabello_18()
    assert len(cabello.rays()) == 18
    uses = [sum(st.ray_key(r) in {st.ray_key(x) for _, x in atoms} for _, atoms in cabello.contexts)
            for r in cabello.rays()]
    assert uses == [2] * 18


@pytest.mark.parametrize("keep", [1, 3])
def test_merged_node_count(keep):
    spec = st.merged_pair(5, keep, random.Random(keep))
    assert oracle.distinct_member_count(spec) == 2 * 2 ** 5 - 2 ** (keep + 1)


def _every_spec():
    rng = random.Random(0)
    return [st.pauli_qubit(), st.cabello_3(), st.cabello_18(), st.peres_24(), st.grid_3(),
            st.diag(7), st.rot(6, rng), st.diag(5),
            st.merged_pair(5, 1, rng), st.merged_pair(5, 3, rng)]


@pytest.mark.parametrize("spec", _every_spec(), ids=lambda s: s.name)
def test_contexts_are_orthogonal_bases(spec):
    for _, atoms in spec.contexts:
        rays = [ray for _, ray in atoms]
        assert len(rays) == spec.dim
        for i, u in enumerate(rays):
            for v in rays[i + 1:]:
                assert st.inner(u, v) == (0, 0)


def test_literals_round_trip_through_the_parser():
    from suplat.linalg import parse_scalar

    for re_, im in [(Fraction(0), Fraction(0)), (Fraction(-3, 4), Fraction(0)), (Fraction(0), Fraction(1)),
                    (Fraction(0), Fraction(-5, 2)), (Fraction(1, 2), Fraction(-1, 2)), (Fraction(7), Fraction(2, 9))]:
        z = parse_scalar(st.literal(re_, im))
        assert (z.real, z.imag) == (re_, im)


@pytest.mark.parametrize("name", ["pauli-qubit", "cabello-3"])
def test_builtins_match_the_export(name):
    from suplat.contexts import structure_to_dict
    from suplat.datasets import builtin_structure

    spec = {"pauli-qubit": st.pauli_qubit, "cabello-3": st.cabello_3}[name]()
    assert st.to_json(spec) == structure_to_dict(builtin_structure(name))


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        workloads.build("merged-pair", seed, tmp_path / sub)
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_pass_is_correct_traced_and_untraced(workload, tmp_path):
    cli = importlib.import_module("suplat.cli")
    pinned = json.loads(run.DIGESTS.read_text())[workload]
    calls = workloads.build(workload, run.DEFAULT_SEED, tmp_path)
    assert {c.key for c in calls} == set(pinned)
    untraced = run.Bench(cli, calls, pinned)
    untraced.run_pass()
    assert untraced.failures == []
    trace = tracer.Tracer()
    originals = {name: getattr(cli, name) for name in ("main", "load_structure", "evaluate_structure")}
    trace.install()
    try:
        traced = run.Bench(cli, calls, pinned)
        times = traced.run_pass()
        spans, counts = trace.take()
    finally:
        trace.uninstall()
    assert traced.failures == []
    assert {name: getattr(cli, name) for name in originals} == originals
    rows = tracer.aggregate(spans)
    assert rows["cli.main"][0] == len(calls)
    for _, total, self_ in rows.values():
        assert 0 <= self_ <= total + 1e-9
    assert rows["cli.main"][1] <= times["wall_s"]
    assert counts["contexts.lattice.members"] <= counts["contexts.lattice.subsets"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "bench/run.py"
    timed = [{"pass_s": 1.0, "spans": {}, "counts": {}}]
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(timed, timed))
    e2e = run.end_to_end([{"pass_s": 1.0}], 0.1)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        source = e2e if entry in spec["end_to_end"] else run.per_layer(timed, timed)
        assert entry["unit"] == source[entry["name"]][1]


def test_refuses_to_run_without_sources(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in Path(run.BENCH).glob("*.py"):
        (bench_copy / path.name).write_text(path.read_text())
    import subprocess

    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ks-sets", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0 and done.stdout == ""
