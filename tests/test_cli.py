"""End-to-end checks for the command line: exit codes, report formats,
determinism, and the merge tool."""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import weakref
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st
from test_homlinalg import entries, from_entries

import cuspk.cli as cli
from cuspk import cyclicbar, polytopelab, simplicialx, wittlab
from cuspk.errors import IntegralityViolation, ResourceBound, TheoremViolation
from cuspk.homlinalg import HomologySummary
from cuspk.polytopelab import UNDECIDED, Verdict
from cuspk.simplicialx import ConjectureBReport


# report digests of the benchmark's commands, read only
BENCH_REFS = Path(__file__).resolve().parent.parent / "perfbench" / "refs.json"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out


def rows_of(out_dir, prefix="report"):
    path = out_dir / f"{prefix}.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestVerify:
    def test_semigroup_small(self, tmp_path):
        code, out = run(tmp_path, "verify", "semigroup", "--a", "2", "--b",
                        "3", "--m-max", "15")
        assert code == 0
        rows = rows_of(out)
        assert all(r["result"] == "pass" for r in rows)
        stmts = {r["statement"] for r in rows}
        assert {"interior-count", "membership", "card-S",
                "card-S-div-ab"} <= stmts
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "suite,a,b,m,p,q,statement,result"

    def test_kgroup_lengths(self, tmp_path):
        code, out = run(tmp_path, "verify", "kgroups", "--a", "2", "--b", "3",
                        "--p", "5", "--r-max", "3")
        assert code == 0
        rows = rows_of(out)
        assert [r["q"] for r in rows] == [0, 2, 4, 6]
        assert [r["details"]["length"] for r in rows] == [1, 3, 5, 7]
        assert rows[1]["result"] == "5,25"

    def test_prop51_example(self, tmp_path):
        code, out = run(tmp_path, "verify", "prop51", "--a", "2", "--b", "3",
                        "--m-max", "12")
        assert code == 0
        rows = rows_of(out)
        factors = [r for r in rows if r["statement"] == "connes-factor"]
        assert [r["m"] for r in factors] == [1, 5, 7, 11]
        assert all(r["result"] == "pass" for r in rows)

    def test_conjb_statements(self, tmp_path):
        code, out = run(tmp_path, "verify", "conjB", "--a", "2", "--b", "3",
                        "--m-max", "6")
        assert code == 0
        at_six = {r["statement"] for r in rows_of(out) if r["m"] == 6}
        assert at_six == {"homology-evidence", "fixed-points/s=1",
                          "fixed-points/s=2", "fixed-points/s=3",
                          "fixed-points/s=6"}

    def test_conjc_statement_selection(self, tmp_path):
        code, out = run(tmp_path, "verify", "conjC", "--a", "2", "--b", "3",
                        "--m-max", "6")
        assert code == 0
        by_m = {}
        for r in rows_of(out):
            by_m.setdefault(r["m"], set()).add(r["statement"])
        assert by_m[5] == {"c1", "c4"}
        assert by_m[6] == {"c1", "c2", "c3"}
        assert by_m[4] == {"c1", "c2"}

    def test_repeated_prime_runs_once(self, tmp_path):
        _, once = run(tmp_path / "once", "verify", "kgroups", "--a", "2",
                      "--b", "3", "--p", "5", "--r-max", "1")
        _, twice = run(tmp_path / "twice", "verify", "kgroups", "--a", "2",
                       "--b", "3", "--p", "5", "--p", "5", "--r-max", "1")
        assert [r["q"] for r in rows_of(twice)] == [0, 2]
        for name in ("report.jsonl", "report.csv"):
            assert (once / name).read_bytes() == (twice / name).read_bytes()

    def test_conjb_does_not_build_bar_complexes(self, tmp_path, monkeypatch):
        # any bar complex raises, and its statement would be a skipped row
        def refuse(p, m, budget):
            raise ResourceBound("bar complex built")

        monkeypatch.setattr(cyclicbar, "_bar_cells", refuse)
        code, out = run(tmp_path, "verify", "conjB", "--a", "3", "--b", "7",
                        "--m-max", "6")
        assert code == 0
        rows = rows_of(out)
        assert {r["m"] for r in rows} == set(range(1, 7))
        assert all(r["result"] != "skipped" for r in rows)

    def test_q_max_overrides_r_max(self, tmp_path):
        code, out = run(tmp_path, "verify", "kgroups", "--a", "2", "--b", "3",
                        "--p", "5", "--q-max", "4")
        assert code == 0
        assert [r["q"] for r in rows_of(out)] == [0, 2, 4]

    def test_byte_determinism(self, tmp_path):
        _, out1 = run(tmp_path / "r1", "verify", "conjC", "--a", "2", "--b",
                      "3", "--m-max", "6")
        _, out2 = run(tmp_path / "r2", "verify", "conjC", "--a", "2", "--b",
                      "3", "--m-max", "6")
        assert (out1 / "report.jsonl").read_bytes() == \
            (out2 / "report.jsonl").read_bytes()
        assert (out1 / "report.csv").read_bytes() == \
            (out2 / "report.csv").read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        _, seq = run(tmp_path / "seq", "verify", "semigroup", "--a", "2",
                     "--b", "3", "--m-max", "12", "--jobs", "1")
        _, par = run(tmp_path / "par", "verify", "semigroup", "--a", "2",
                     "--b", "3", "--m-max", "12", "--jobs", "3")
        assert (seq / "report.jsonl").read_bytes() == \
            (par / "report.jsonl").read_bytes()
        # suites whose toolkit modules the pool workers import themselves
        for argv in (["kgroups", "--p", "5", "--r-max", "2"],
                     ["conjC", "--m-max", "4"]):
            outs = [run(tmp_path / f"{argv[0]}-{jobs}", "verify", *argv,
                        "--a", "2", "--b", "3", "--jobs", jobs)[1]
                    for jobs in ("1", "2")]
            for name in ("report.jsonl", "report.csv"):
                assert (outs[0] / name).read_bytes() == \
                    (outs[1] / name).read_bytes(), (argv, name)

    @pytest.fixture
    def stub_pool(self, monkeypatch):
        """A stub process pool that records its size and the number of
        tasks it maps, and maps them in this process: a real pool forks
        every worker at once, so a large --jobs is never run."""
        import concurrent.futures

        seen = {"sizes": [], "mapped": []}

        class Pool:
            def __init__(self, max_workers):
                seen["sizes"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                seen["mapped"].append(len(items))
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        return seen

    @pytest.mark.parametrize("argv,tasks", [
        (["witt"], 1), (["prop51", "--a", "2", "--b", "3", "--m-max", "3"], 3),
        (["semigroup", "--a", "2", "--b", "3", "--m-max", "6"], 1)])
    def test_pool_has_no_more_workers_than_tasks(self, tmp_path, stub_pool,
                                                 argv, tasks):
        _, seq = run(tmp_path / "seq", "verify", *argv, "--jobs", "1")
        _, par = run(tmp_path / "par", "verify", *argv, "--jobs", "5000")
        assert stub_pool == {"sizes": [tasks], "mapped": [tasks]}
        for name in ("report.jsonl", "report.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    def test_pool_of_no_tasks_has_one_worker(self, tmp_path, stub_pool):
        cfg = cli.SuiteConfig(pairs=((2, 3),), m_max=0, primes=(2,), r_max=0,
                              precision_bits=128, budget=64,
                              out=str(tmp_path), jobs=5000)
        assert cli.cmd_verify("prop51", cfg) == 0
        assert stub_pool == {"sizes": [1], "mapped": [0]}

    @pytest.mark.parametrize("key", sorted(json.loads(BENCH_REFS.read_text())))
    def test_reports_match_benchmark_refs(self, tmp_path, key):
        # every key of the benchmark's references, so tier-1 checks the
        # same bytes the benchmark does
        ref = json.loads(BENCH_REFS.read_text())[key]
        code, out = run(tmp_path, "verify", *key.split())
        assert code == 0
        for ext in ("jsonl", "csv"):
            data = (out / f"report.{ext}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == ref[ext], ext

    def test_default_grid_bytes(self, tmp_path):
        # every suite on its default grid, through the real process pool;
        # a change to these digests is a change to the reports
        code, out = run(tmp_path, "verify", "all", "--jobs", "2")
        assert code == 0
        for name, want in (
                ("report.jsonl", "3dab42d117f9105481e89bfd9d7204b3"
                                 "517d35a5d18c06771e7d70d7f9cc00af"),
                ("report.csv", "f4513b07ae108d4ae69dc6c1d92f71c7"
                               "8b43df82decbb2bf81d1933802170b0e")):
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name

    def test_prop51_models_live_one_cell(self, tmp_path, monkeypatch):
        # each cell builds its bar complex and its cone once, for all of its
        # statements, and neither survives the cell
        built = []      # (cell index, model, weak reference)
        cells = []      # (m, models built, which of them are dead)

        def recorded(kind, build):
            def wrapper(p, m, *budget):
                model = build(p, m, *budget)
                built.append((len(cells), kind, weakref.ref(model)))
                return model
            return wrapper

        for kind, name in (("bar", "relative_bar_complex"),
                           ("cone", "relative_cone")):
            monkeypatch.setattr(cyclicbar, name,
                                recorded(kind, getattr(cyclicbar, name)))
        real_cell = cli._CELLS["prop51"]

        def cell(**kwargs):
            rows = real_cell(**kwargs)
            gc.collect()
            mine = [(kind, ref) for i, kind, ref in built if i == len(cells)]
            cells.append((kwargs["m"], sorted(kind for kind, _ in mine),
                          [ref() is None for _, ref in mine]))
            return rows

        monkeypatch.setitem(cli._CELLS, "prop51", cell)
        code, out = run(tmp_path, "verify", "prop51", "--a", "2", "--b", "3",
                        "--m-max", "8")
        assert code == 0
        assert {r["m"] for r in rows_of(out)
                if r["statement"] == "connes-factor"} == {1, 5, 7}
        assert cells == [(m, ["bar", "cone"], [True, True])
                         for m in range(1, 9)]

    def test_m_max_zero_is_not_the_default(self):
        cfg = cli.SuiteConfig(pairs=((2, 3),), m_max=0, primes=(2,), r_max=0,
                              precision_bits=128, budget=64, out=".", jobs=1)
        tasks = cli._build_tasks("all", cfg)
        assert sorted(name for name, _ in tasks) == ["ghost", "kgroups",
                                                    "semigroup"]
        assert [kw["m_max"] for name, kw in tasks if name == "semigroup"] == [0]

    def test_witt_battery(self, tmp_path):
        code, out = run(tmp_path, "verify", "witt")
        assert code == 0
        rows = rows_of(out)
        assert {r["statement"] for r in rows} == {
            "frobenius-composition", "verschiebung-composition",
            "frobenius-verschiebung", "coprime-commutation",
            "projection-formula"}
        assert all(r["details"]["failures"] == 0 for r in rows)


class TestExitCodes:
    def test_usage_errors_exit_three(self, tmp_path, monkeypatch, capsys):
        # each error prints the usage line of the command it belongs to
        for argv in (["verify", "nope"],
                     ["verify", "semigroup", "--a", "2"],
                     ["verify", "semigroup", "--a", "2", "--b", "4"],
                     ["verify", "conjC", "--precision", "4"],
                     ["verify", "conjC", "--precision", "1025"],
                     ["verify", "kgroups", "--q-max", "-1"],
                     ["verify", "kgroups", "--a", "2", "--b", "3",
                      "--r-max", "-1"],
                     ["verify", "kgroups", "--p", "4"],
                     ["verify", "kgroups", "--p", "1"],
                     ["verify", "conjC", "--m-max", "0"],
                     ["verify", "conjC", "--m-max", "-1"],
                     ["verify", "conjB", "--budget", "1"],
                     ["verify", "semigroup", "--jobs", "0"],
                     ["report"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + ["--out", str(tmp_path)])
            assert exc.value.code == 3
            assert capsys.readouterr().err.startswith(
                f"usage: cuspk {argv[0]} "), argv
        for value in ("two", "0"):
            monkeypatch.setenv("CUSPK_JOBS", value)
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "semigroup", "--out", str(tmp_path)])
            assert exc.value.code == 3
            assert capsys.readouterr().err.startswith("usage: cuspk verify ")

    def test_theorem_violation_exits_one(self, tmp_path, monkeypatch):
        def boom(p, m, bar, cone):
            raise cli.TheoremViolation("forced")

        monkeypatch.setattr(cyclicbar, "ty_agreement_check", boom)
        code, out = run(tmp_path, "verify", "prop51", "--a", "2", "--b", "3",
                        "--m-max", "3")
        assert code == 1
        assert any(r["result"] == "fail" for r in rows_of(out))

    def test_undecided_exits_two(self, tmp_path, monkeypatch):
        def stuck(p, m, precision, cap):
            return {"c1": Verdict(UNDECIDED, precision,
                                  witness={"reason": "forced"})}

        monkeypatch.setattr(polytopelab, "run_conjecture_checks", stuck)
        code, out = run(tmp_path, "verify", "conjC", "--a", "2", "--b", "3",
                        "--m-max", "2")
        assert code == 2

    @pytest.mark.parametrize("suite,target,statement,skipped", [
        ("prop51", "ty_agreement_check", "triple-agreement", 3),
        ("conjB", "fixed_point_check", "fixed-points/", 5)])
    def test_resource_limit_skips_the_statement(self, tmp_path, monkeypatch,
                                                capsys, suite, target,
                                                statement, skipped):
        def limited(*args):
            raise ResourceBound("forced limit of 16")

        owner = {"prop51": cyclicbar, "conjB": simplicialx}[suite]
        monkeypatch.setattr(owner, target, limited)
        code, out = run(tmp_path, "verify", suite, "--a", "2", "--b", "3",
                        "--m-max", "3")
        assert code == 4
        rows = rows_of(out)
        hit = [r for r in rows if r["statement"].startswith(statement)]
        assert {r["m"] for r in hit} == {1, 2, 3}
        assert all(r["result"] == "skipped" for r in hit)
        assert all(r["details"] == {"error": "ResourceBound",
                                    "reason": "forced limit of 16"}
                   for r in hit)
        assert all(r["result"] != "skipped" for r in rows if r not in hit)
        assert f"skipped={skipped}" in capsys.readouterr().out

    def test_conjb_past_the_budget_skips_every_statement(self, tmp_path):
        # Σ(2,3,m) has 321 faces at m = 12 and more at every larger m
        code, out = run(tmp_path, "verify", "conjB", "--a", "2", "--b", "3",
                        "--m-max", "14", "--budget", "321")
        assert code == 4
        rows = rows_of(out)
        past = [r for r in rows if r["m"] > 12]
        assert sorted((r["m"], r["statement"]) for r in past) == sorted(
            [(m, "homology-evidence") for m in (13, 14)]
            + [(m, f"fixed-points/s={s}") for m in (13, 14)
               for s in range(1, m + 1) if m % s == 0])
        for r in past:
            assert r["result"] == "skipped"
            assert r["details"] == {
                "error": "ResourceBound",
                "reason": f"the gap complex in weight {r['m']} has more "
                          "than 321 faces"}
        assert all(r["result"] != "skipped" for r in rows if r["m"] <= 12)

    @pytest.mark.parametrize("task,owner,builder", [
        # Σ(2,3,14) has more than 321 faces, the bar complex at (2,3,7)
        # more than 16 cells
        (("conjb", {"a": 2, "b": 3, "m": 14, "budget": 321}), simplicialx,
         "build_sigma"),
        (("prop51", {"a": 2, "b": 3, "m": 7, "budget": 16}), cyclicbar,
         "_bar_cells")], ids=["conjB", "prop51"])
    def test_a_refused_model_is_built_once_per_cell(self, monkeypatch, task,
                                                    owner, builder):
        # every statement of the cell reads the refused model, and each
        # skips with the error of its one build
        built = []
        real = getattr(owner, builder)

        def counted(p, m, budget):
            built.append(m)
            return real(p, m, budget)

        monkeypatch.setattr(owner, builder, counted)
        rows = cli._run_cell(task)
        m, budget = task[1]["m"], task[1]["budget"]
        assert len(rows) > 1
        assert {r["result"] for r in rows} == {"skipped"}
        assert len({r["details"]["reason"] for r in rows}) == 1
        assert str(budget) in rows[0]["details"]["reason"]
        assert built.count(m) == 1

    def test_running_out_of_memory_skips_the_cell(self, tmp_path,
                                                  monkeypatch):
        # both statements at m = 7 read the bar complex, whose one build
        # runs out of memory; the sweep goes on and writes its report
        built = []
        real = cyclicbar.relative_bar_complex

        def exhausted(p, m, budget):
            built.append(m)
            if m == 7:
                raise MemoryError
            return real(p, m, budget)

        monkeypatch.setattr(cyclicbar, "relative_bar_complex", exhausted)
        code, out = run(tmp_path, "verify", "prop51", "--a", "2", "--b", "3",
                        "--m-max", "8")
        assert code == 4
        rows = rows_of(out)
        hit = [r for r in rows if r["m"] == 7]
        assert sorted(r["statement"] for r in hit) == ["connes-factor",
                                                       "triple-agreement"]
        assert all(r["result"] == "skipped"
                   and r["details"]["error"] == "MemoryError" for r in hit)
        assert built.count(7) == 1
        assert all(r["result"] == "pass" for r in rows if r["m"] != 7)

    def test_conjb_computes_past_the_old_guard(self, tmp_path):
        # Σ(3,5,21) has few faces, though 2^21 exceeds the default budget
        code, out = run(tmp_path, "verify", "conjB", "--a", "3", "--b", "5",
                        "--m-max", "21")
        assert code == 0
        rows = rows_of(out)
        assert {r["m"] for r in rows} == set(range(1, 22))
        assert all(r["result"] in ("agree", "pass") for r in rows)

    def test_connes_image_off_the_cycles_is_a_fail_row(self, tmp_path,
                                                       monkeypatch):
        # a cyclic operator with a 1 in row 0 of every column no longer
        # anticommutes with the boundary, so at m = 5 B(generator) is no
        # cycle; at m = 1 the one entry of B is already that 1.  The cone
        # is Z with zero boundary in degree 2l + 1, so every image there is
        # a cycle, and the same skew of the de Rham operator fails on its
        # factor instead: 1 at m = 5, while at m = 1 it turns -1 into 1
        def skewed(real):
            def op(p, m, q):
                M = real(p, m, q)
                nonzero = dict(entries(M))
                if M.nrows:
                    nonzero.update({(0, c): 1 for c in range(M.ncols)})
                return from_entries(M.nrows, M.ncols, nonzero)
            return op

        for name, error in [
                ("connes_matrix", "cyclic operator image is not a cycle in degree 3"),
                ("cone_de_rham_matrix", "de Rham factor 1, expected +-5")]:
            with monkeypatch.context() as patch:
                patch.setattr(cyclicbar, name, skewed(getattr(cyclicbar, name)))
                code, out = run(tmp_path / name, "verify", "prop51", "--a", "2",
                                "--b", "3", "--m-max", "5")
            assert code == 1
            rows = rows_of(out)
            hit = [r for r in rows if r["result"] != "pass"]
            assert [(r["m"], r["statement"], r["result"]) for r in hit] == [
                (5, "connes-factor", "fail")]
            assert hit[0]["details"] == {"error": error}

    @pytest.mark.parametrize("error,result,exit_code,details", [
        (TheoremViolation("forced"), "fail", 1, {"error": "forced"}),
        (ResourceBound("forced limit of 16"), "skipped", 4,
         {"error": "ResourceBound", "reason": "forced limit of 16"})])
    def test_kgroup_errors_become_rows(self, tmp_path, monkeypatch, error,
                                       result, exit_code, details):
        def broken(p, prime, q):
            raise error

        monkeypatch.setattr(wittlab, "relative_k_group", broken)
        code, out = run(tmp_path, "verify", "kgroups", "--a", "2", "--b", "3",
                        "--p", "5", "--r-max", "2")
        assert code == exit_code
        rows = rows_of(out)
        assert [r["q"] for r in rows] == [0, 2, 4]
        assert all(r["result"] == result for r in rows)
        assert all(r["details"] == details for r in rows)

    @pytest.mark.parametrize("error,result,exit_code,details", [
        (TheoremViolation("forced"), "fail", 1, {"error": "forced"}),
        (IntegralityViolation("coordinate 2 needs 1/2"), "skipped", 4,
         {"error": "IntegralityViolation", "reason": "coordinate 2 needs 1/2"})])
    def test_witt_errors_become_rows(self, tmp_path, monkeypatch, error,
                                     result, exit_code, details):
        def broken(cases, seed):
            raise error

        monkeypatch.setattr(wittlab, "identity_failures", broken)
        code, out = run(tmp_path, "verify", "witt")
        assert code == exit_code
        rows = rows_of(out)
        assert [(r["suite"], r["statement"], r["result"], r["details"])
                for r in rows] == [("witt", "identities", result, details)]

    @pytest.mark.parametrize("error,result,exit_code,details", [
        (TheoremViolation("forced"), "fail", 1, {"error": "forced"}),
        (ResourceBound("forced limit of 16"), "skipped", 4,
         {"error": "ResourceBound", "reason": "forced limit of 16"})])
    def test_conjc_errors_become_rows(self, tmp_path, monkeypatch, error,
                                      result, exit_code, details):
        def broken(p, m, precision, cap):
            raise error

        monkeypatch.setattr(polytopelab, "run_conjecture_checks", broken)
        code, out = run(tmp_path, "verify", "conjC", "--a", "2", "--b", "3",
                        "--m-max", "3")
        assert code == exit_code
        rows = rows_of(out)
        assert [(r["m"], r["statement"]) for r in rows] == [
            (1, "checks"), (2, "checks"), (3, "checks")]
        assert all(r["result"] == result for r in rows)
        assert all(r["details"] == details for r in rows)

    def test_unwritable_out_exits_three_before_any_cell(self, tmp_path,
                                                        monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        ran = []
        monkeypatch.setattr(cli, "_run_cell", lambda task: ran.append(task))
        code = cli.main(["verify", "witt", "--out", str(blocker / "sub")])
        assert code == 3 and ran == []
        assert capsys.readouterr().err.startswith(f"{blocker / 'sub'}: ")

    def test_unbounded_summand_lp_is_a_fail_row(self, tmp_path, monkeypatch):
        # only the summand LPs of c2/c3 maximize, so c1 runs unchanged
        class Unbounded(polytopelab.SimplexTableau):
            def optimize(self, objective, maximize=False):
                if maximize:
                    return "unbounded", None, None
                return super().optimize(objective, maximize)

        monkeypatch.setattr(polytopelab, "SimplexTableau", Unbounded)
        code, out = run(tmp_path, "verify", "conjC", "--a", "2", "--b", "3",
                        "--m-max", "4")
        assert code == 1
        failed = [r for r in rows_of(out) if r["result"] == "fail"]
        assert [r["m"] for r in failed] == [2, 3, 4]
        assert all(r["statement"] == "checks" and "unbounded/optimal"
                   in r["details"]["error"] for r in failed)

    @given(suite=st.sampled_from(["semigroup", "witt", "kgroups", "prop51",
                                  "conjB", "conjC"]),
           pair=st.sampled_from([None, (2, 3), (3, 4), (2, 5), (2, 4)]),
           m_max=st.sampled_from([3, 1, 5, 0]),
           primes=st.lists(st.sampled_from([2, 3, 5, 4]), max_size=1),
           r_max=st.integers(-1, 2),
           q_max=st.one_of(st.none(), st.integers(-1, 4)),
           precision=st.sampled_from([8, 16, 64, 4]),
           budget=st.sampled_from([8, 16, 4096, 1]))
    @settings(max_examples=60, deadline=None)
    def test_small_arguments_never_raise(self, suite, pair, m_max, primes,
                                         r_max, q_max, precision, budget):
        argv = ["verify", suite, "--m-max", str(m_max), "--r-max", str(r_max),
                "--precision", str(precision), "--budget", str(budget),
                "--jobs", "1"]
        if pair is not None:
            argv += ["--a", str(pair[0]), "--b", str(pair[1])]
        for prime in primes:
            argv += ["--p", str(prime)]
        if q_max is not None:
            argv += ["--q-max", str(q_max)]
        with tempfile.TemporaryDirectory() as out:
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
                assert code == 3
        event(f"exit {code}")
        assert code in (0, 1, 2, 3, 4)

    def test_mismatch_is_finding_not_failure(self, tmp_path, monkeypatch,
                                             capsys):
        summary = HomologySummary.of({2: (1, ())})
        other = HomologySummary.of({2: (2, ())})

        def disagree(p, m, sigma):
            return ConjectureBReport(p.a, p.b, m, summary, other, False)

        monkeypatch.setattr(simplicialx, "conjecture_b_homology_check",
                            disagree)
        code, out = run(tmp_path, "verify", "conjB", "--a", "2", "--b", "3",
                        "--m-max", "2")
        assert code == 0
        assert "FINDING" in capsys.readouterr().out
        results = {r["result"] for r in rows_of(out)
                   if r["statement"] == "homology-evidence"}
        assert results == {"MISMATCH"}


def loaded_modules(tmp_path, argvs, names):
    """The modules of `names` that a fresh interpreter has loaded after
    running each command of `argvs` through the CLI."""
    script = textwrap.dedent("""\
        import json
        import sys
        import cuspk.cli as cli
        argvs, names = json.loads(sys.argv[2])
        for argv in argvs:
            assert cli.main(argv + ["--out", sys.argv[1]]) == 0
        print(sorted(name for name in names if name in sys.modules))
        """)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "CUSPK_JOBS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path),
                           json.dumps([argvs, names])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


class TestStartup:
    def test_suites_import_only_their_own_modules(self, tmp_path):
        """A fresh interpreter that runs semigroup, kgroups and witt never
        loads the modules of other suites, the Smith form, mpmath or the
        process pool."""
        argvs = [["verify", "semigroup", "--a", "2", "--b", "3"],
                 ["verify", "kgroups", "--a", "2", "--b", "3",
                  "--p", "5", "--r-max", "1"],
                 ["verify", "witt"]]
        names = ["mpmath", "concurrent.futures", "cuspk.homlinalg",
                 "cuspk.polytopelab", "cuspk.cyclicbar", "cuspk.simplicialx"]
        assert loaded_modules(tmp_path, argvs, names) == "[]"

    def test_conjb_loads_no_other_toolkit_module(self, tmp_path):
        """conjB compares spaces only; the bar complexes, the LP and the
        rationals stay unloaded."""
        argvs = [["verify", "conjB", "--a", "2", "--b", "3", "--m-max", "5"]]
        names = ["mpmath", "cuspk.cyclicbar", "cuspk.polytopelab",
                 "cuspk.wittlab", "cuspk.simplicialx", "cuspk.exactlp",
                 "fractions", "decimal"]
        assert loaded_modules(tmp_path, argvs, names) == \
            "['cuspk.simplicialx']"

    def test_prop51_loads_no_other_toolkit_module(self, tmp_path):
        """prop51 runs Smith forms on integers; the spaces of conjB, the LP
        and the rationals stay unloaded."""
        argvs = [["verify", "prop51", "--a", "2", "--b", "3", "--m-max", "5"]]
        names = ["mpmath", "cuspk.cyclicbar", "cuspk.polytopelab",
                 "cuspk.wittlab", "cuspk.simplicialx", "cuspk.exactlp",
                 "fractions", "decimal"]
        assert loaded_modules(tmp_path, argvs, names) == "['cuspk.cyclicbar']"

    def test_no_suite_loads_dataclasses(self, tmp_path):
        """Records are NamedTuples and slotted classes, so no suite pays
        for importing dataclasses and the inspect module it pulls in."""
        pair = ["--a", "2", "--b", "3"]
        argvs = [["verify", "semigroup", *pair],
                 ["verify", "witt"],
                 ["verify", "kgroups", *pair, "--p", "5", "--r-max", "1"],
                 ["verify", "prop51", *pair, "--m-max", "5"],
                 ["verify", "conjB", *pair, "--m-max", "5"],
                 ["verify", "conjC", *pair, "--m-max", "5"]]
        assert loaded_modules(tmp_path, argvs, ["dataclasses", "inspect"]) == "[]"

    def test_conjc_loads_no_homology_module(self, tmp_path):
        """conjC runs its LPs on the exactlp tableau alone and its roots of
        unity on integers; the Smith form, the chain complexes, the other
        suites and mpmath stay unloaded."""
        argvs = [["verify", "conjC", "--a", "2", "--b", "3", "--m-max", "5"]]
        names = ["mpmath", "cuspk.homlinalg", "cuspk.cyclicbar",
                 "cuspk.simplicialx", "cuspk.wittlab", "cuspk.exactlp"]
        assert loaded_modules(tmp_path, argvs, names) == "['cuspk.exactlp']"


class TestReport:
    def test_merge_dedupes_identical_rows(self, tmp_path):
        _, out = run(tmp_path / "v", "verify", "conjC", "--a", "2", "--b",
                     "3", "--m-max", "4")
        src = str(out / "report.jsonl")
        merged_dir = tmp_path / "m"
        code = cli.main(["report", src, src, "--out", str(merged_dir)])
        assert code == 0
        assert rows_of(merged_dir, "merged") == rows_of(out)

    def test_merge_is_order_stable(self, tmp_path):
        _, o1 = run(tmp_path / "v1", "verify", "conjC", "--a", "2", "--b",
                    "3", "--m-max", "4")
        _, o2 = run(tmp_path / "v2", "verify", "semigroup", "--a", "2",
                    "--b", "3", "--m-max", "6")
        a, b = str(o1 / "report.jsonl"), str(o2 / "report.jsonl")
        cli.main(["report", a, b, "--out", str(tmp_path / "ab")])
        cli.main(["report", b, a, "--out", str(tmp_path / "ba")])
        assert (tmp_path / "ab" / "merged.jsonl").read_bytes() == \
            (tmp_path / "ba" / "merged.jsonl").read_bytes()
        # the same keys and results, with details that differ in
        # precision_bits: the row with the least line is kept
        outs = [run(tmp_path / f"p{bits}", "verify", "conjC", "--a", "2",
                    "--b", "3", "--m-max", "6", "--precision", bits)[1]
                for bits in ("128", "256")]
        c, d = (str(o / "report.jsonl") for o in outs)
        assert cli.main(["report", c, d, "--out", str(tmp_path / "cd")]) == 0
        assert cli.main(["report", d, c, "--out", str(tmp_path / "dc")]) == 0
        merged = (tmp_path / "cd" / "merged.jsonl").read_bytes()
        assert merged == (tmp_path / "dc" / "merged.jsonl").read_bytes()
        lines = [o.joinpath("report.jsonl").read_bytes().splitlines(True)
                 for o in outs]
        assert lines[0] != lines[1]
        assert merged.splitlines(True) == [min(x, y) for x, y in zip(*lines)]

    def test_conflicting_results_flagged(self, tmp_path, capsys):
        _, out = run(tmp_path / "v", "verify", "semigroup", "--a", "2",
                     "--b", "3", "--m-max", "4")
        rows = rows_of(out)
        rows[0]["result"] = "fail"
        twisted = tmp_path / "twisted.jsonl"
        twisted.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        code = cli.main(["report", str(out / "report.jsonl"), str(twisted),
                         "--out", str(tmp_path / "m")])
        assert code == 1
        assert "CONFLICT" in capsys.readouterr().err

    def test_parse_error_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('not json at all\n')
        code = cli.main(["report", str(bad), "--out", str(tmp_path / "m")])
        assert code == 3
        assert "bad.jsonl:1" in capsys.readouterr().err

    def test_undecodable_line_reports_location(self, tmp_path, capsys,
                                               monkeypatch):
        # a line that is not UTF-8 is located like one that is not JSON
        _, out = run(tmp_path / "v", "verify", "semigroup", "--a", "2",
                     "--b", "3", "--m-max", "4")
        first = (out / "report.jsonl").read_bytes().splitlines()[0]
        (tmp_path / "bad.jsonl").write_bytes(first + b"\n\xff\n")
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = cli.main(["report", "bad.jsonl", "--out", "m"])
        assert code == 3
        assert capsys.readouterr().err.startswith("bad.jsonl:2: ")
        assert not (tmp_path / "m").exists()

    def test_incomplete_row_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "partial.jsonl"
        bad.write_text('{"suite": "x"}\n')
        code = cli.main(["report", str(bad), "--out", str(tmp_path / "m")])
        assert code == 3
        assert "partial.jsonl:1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("m", "6"), ("m", [1]),
                                             ("q", True), ("statement", 7)])
    def test_mistyped_row_reports_location(self, tmp_path, capsys, field,
                                           value):
        # a string among integer coordinates made the sort raise, a list
        # made the row unhashable, and a bool passed for the int 1
        _, out = run(tmp_path / "v", "verify", "semigroup", "--a", "2",
                     "--b", "3", "--m-max", "4")
        rows = rows_of(out)
        rows[1][field] = value
        bad = tmp_path / "typed.jsonl"
        bad.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        capsys.readouterr()
        code = cli.main(["report", str(bad), "--out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == f"{bad}:2: not a report row\n"

    def test_unwritable_out_exits_three(self, tmp_path, capsys):
        _, out = run(tmp_path / "v", "verify", "semigroup", "--a", "2",
                     "--b", "3", "--m-max", "4")
        blocker = tmp_path / "file"
        blocker.write_text("")
        capsys.readouterr()
        code = cli.main(["report", str(out / "report.jsonl"),
                         "--out", str(blocker / "sub")])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"{blocker / 'sub'}: ")

    def test_missing_input_exits_three(self, tmp_path):
        code = cli.main(["report", str(tmp_path / "nothing.jsonl"),
                         "--out", str(tmp_path / "m")])
        assert code == 3
        assert not (tmp_path / "m").exists()
