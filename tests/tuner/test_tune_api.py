"""The public entry points: Kernel.autoschedule, Kernel.tune, the CLI."""

import json

import pytest

from repro import Grid, Kernel, Machine, Schedule, compile_kernel
from repro.machine.cluster import Cluster
from repro.tuner.search import TuneResult
from repro.tuner.space import from_heuristic, heuristic_decision, realize
from repro.tuner.workloads import matmul
from repro.util.errors import LegalityError


class TestAutoschedule:
    def test_compiles_the_heuristic(self, rng):
        stmt = matmul(16)
        kern = Kernel.autoschedule(stmt, Machine.flat(2, 2))
        assert isinstance(kern, Kernel)
        kern.execute(
            {"B": rng.random((16, 16)), "C": rng.random((16, 16))},
            verify=True,
        )

    def test_matches_auto_schedule_module(self):
        # The heuristic compiles through the tuner's builder: on a
        # legal grid, the checked realize builds the same plan.
        machine = Machine.flat(2, 2)
        kern = Kernel.autoschedule(matmul(64), machine)
        stmt = matmul(64)
        sched, _ = realize(stmt, machine, heuristic_decision(stmt, (2, 2)))
        assert kern.plan.pretty() == compile_kernel(
            sched, machine
        ).plan.pretty()

    def test_builds_on_the_machines_own_grid(self):
        # The tuner's seed relabels a (4, 2) grid to (2, 4); the
        # heuristic keeps the machine's grid, and compiles grids the
        # tuner rejects (here, more grid dimensions than loops).
        assert from_heuristic(matmul(64), (4, 2)).grid == (2, 4)
        kern = Kernel.autoschedule(matmul(64), Machine.flat(4, 2))
        assert "i_o:4->m0, j_o:2->m1" in kern.plan.pretty()
        with pytest.raises(LegalityError):
            from_heuristic(matmul(64), (2, 2, 2, 2))
        Kernel.autoschedule(matmul(16), Machine.flat(2, 2, 2, 2))

    def test_gpu_machines_default_to_framebuffer(self):
        from repro.machine.cluster import MemoryKind

        cluster = Cluster.gpu_cluster(1)
        machine = Machine(cluster, Grid(2, 2))
        kern = Kernel.autoschedule(matmul(64), machine)
        for tensor in kern.plan.tensors.values():
            assert tensor.format.memory is MemoryKind.GPU_FB


class TestKernelTune:
    def test_accepts_cluster(self):
        result = Kernel.tune(matmul(1024), Cluster.cpu_cluster(2))
        assert isinstance(result, TuneResult)
        assert isinstance(result.schedule, Schedule)
        assert result.search.best.cost <= result.search.seed_outcome.cost

    def test_accepts_machine_and_seeds_its_grid(self):
        cluster = Cluster.cpu_cluster(2)
        machine = Machine(cluster, Grid(4, 1))
        result = Kernel.tune(matmul(1024), machine)
        assert result.search.seed_outcome.decision.grid in ((4, 1), (1, 4))

    def test_rejects_hierarchical_machines(self):
        cluster = Cluster.gpu_cluster(4)
        machine = Machine(cluster, Grid(2, 2), Grid(2, 2))
        with pytest.raises(ValueError):
            Kernel.tune(matmul(1024), machine)

    def test_result_replays_from_decision_vector(self):
        """The returned schedule is an ordinary Schedule + formats that
        replay byte-identically from the decision vector alone."""
        result = Kernel.tune(matmul(1024), Cluster.cpu_cluster(2))
        replay_stmt = matmul(1024)
        sched, fmts = realize(
            replay_stmt, result.machine, result.decision
        )
        replay_plan = compile_kernel(sched, result.machine).plan.pretty()
        assert replay_plan == result.kernel.plan.pretty()
        assert {n: f.notation() for n, f in fmts.items()} == {
            n: f.notation() for n, f in result.formats.items()
        }

    def test_tuned_kernel_is_executable(self, rng):
        result = Kernel.tune(matmul(16), Cluster.cpu_cluster(2))
        result.kernel.execute(
            {"B": rng.random((16, 16)), "C": rng.random((16, 16))},
            verify=True,
        )

    def test_describe_mentions_costs(self):
        result = Kernel.tune(matmul(1024), Cluster.cpu_cluster(2))
        text = result.describe()
        assert "heuristic seed" in text
        assert "best" in text
        assert "format A" in text


class TestCli:
    def test_demo_smoke(self, capsys):
        from repro.tune import main

        assert main(["--demo", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "heuristic cost" in out
        assert "tuned cost" in out

    def test_ledger_roundtrip_through_cli(self, tmp_path):
        from repro.tune import main

        ledger = tmp_path / "ledger.json"
        args = [
            "--workload", "matmul", "--nodes", "2", "--size", "1024",
            "--ledger", str(ledger),
        ]
        assert main(args) == 0
        data = json.loads(ledger.read_text())
        first = len(data["entries"])
        assert first > 0
        assert main(args) == 0
        assert len(json.loads(ledger.read_text())["entries"]) == first

    def test_analyze_prints_winner_bounds(self, capsys):
        from repro.tune import main

        # No --size: the problem is weak-scaled to --nodes.
        args = ["--nodes", "2", "--analyze"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "tuning matmul {'A': (11584, 11584)" in out
        assert "winner memory: n0/sysmem: peak in" in out
        assert "winner comm lower bound (volume)" in out

    def test_pipeline_smoke(self, capsys):
        from repro.tune import main

        args = [
            "--pipeline", "chain-matmul", "--nodes", "2",
            "--size", "1024", "--top-k", "2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "joint pipeline" in out
        assert "independent" in out


class TestCliExitCodes:
    """`python -m repro.tune` fails loudly, like `repro.bench` does."""

    def test_top_k_below_one_is_a_usage_error(self, capsys):
        from repro.tune import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--pipeline", "chain-matmul", "--top-k", "0"])
        assert exit_info.value.code == 2
        assert "--top-k must be at least 1" in capsys.readouterr().err

    def test_max_dims_below_one_is_a_usage_error(self, capsys):
        from repro.tune import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--demo", "--max-dims", "0", "--json"])
        assert exit_info.value.code == 2
        assert "--max-dims must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("gib", ["0", "-1"])
    def test_system_mem_below_one_is_a_usage_error(self, gib, capsys):
        from repro.tune import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--nodes", "4", "--size", "64", "--system-mem-gib", gib,
                  "--json"])
        assert exit_info.value.code == 2
        assert "--system-mem-gib must be at least 1" in (
            capsys.readouterr().err
        )

    def test_top_k_defaults_to_the_joint_tuners(self, monkeypatch):
        import repro.tune as tune_cli
        import repro.tuner.joint as joint

        seen = []

        def recording_tune_pipeline(*args, **kwargs):
            seen.append(kwargs["top_k"])
            raise RuntimeError("stop after the call")

        monkeypatch.setattr(joint, "tune_pipeline", recording_tune_pipeline)
        monkeypatch.setattr(joint, "DEFAULT_TOP_K", 3)
        args = ["--pipeline", "chain-matmul", "--nodes", "2"]
        assert tune_cli.main(args) == 1
        assert seen == [3]

    def test_unwritable_ledger_exits_nonzero(self, capsys):
        from repro.tune import main

        # /dev/null is a file, so the ledger's parent mkdir must fail.
        args = [
            "--workload", "matmul", "--nodes", "2", "--size", "1024",
            "--ledger", "/dev/null/nested/ledger.json",
        ]
        assert main(args) == 1
        assert "could not be written" in capsys.readouterr().err

    def test_oracle_simulation_failure_exits_nonzero(
        self, monkeypatch, capsys
    ):
        import repro.tune as tune_cli
        import repro.tuner.search as search_mod

        real_tune = search_mod.tune

        def failing_tune(*args, **kwargs):
            result = real_tune(*args, **kwargs)
            result.search.errors = 3
            return result

        # The CLI routes through api.tune_request, which resolves the
        # engine from repro.tuner.search at call time — patch it there.
        monkeypatch.setattr(search_mod, "tune", failing_tune)
        args = ["--workload", "matmul", "--nodes", "2", "--size", "1024"]
        assert tune_cli.main(args) == 1
        assert "simulation(s) failed" in capsys.readouterr().err

    def test_crash_exits_nonzero(self, monkeypatch, capsys):
        import repro.tune as tune_cli
        import repro.tuner.search as search_mod


        def exploding_tune(*args, **kwargs):
            raise RuntimeError("oracle died")

        monkeypatch.setattr(search_mod, "tune", exploding_tune)
        args = ["--workload", "matmul", "--nodes", "2", "--size", "1024"]
        assert tune_cli.main(args) == 1
        assert "tuning run failed" in capsys.readouterr().err
