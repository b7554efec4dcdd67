"""The problem-size rule every ``python -m repro.*`` main takes from
``repro.cli``: ``--size`` when given, else the weak-scaled default for
``--nodes``. (The ``--json`` and failure-boundary rules are exercised
through each CLI's own tests.)"""

import argparse

from repro import cli
from repro.tuner.workloads import (
    pipeline_stages,
    sized,
    weak_scaled,
    weak_scaled_pipeline,
)


def _shapes(assignments):
    return [
        {t.name: t.shape for t in a.tensors()} for a in assignments
    ]


class TestProblemSize:
    def test_size_wins_over_weak_scaling(self):
        args = argparse.Namespace(workload="ttv", size=128, nodes=16)
        assert _shapes([cli.workload(args)]) == _shapes([sized("ttv", 128)])

    def test_weak_scaled_without_size(self):
        args = argparse.Namespace(workload="ttv", size=None, nodes=16)
        assert _shapes([cli.workload(args)]) == _shapes(
            [weak_scaled("ttv", 16)]
        )

    def test_pipeline_size_wins_over_weak_scaling(self):
        args = argparse.Namespace(
            pipeline="chain-matmul", size=256, nodes=16
        )
        assert _shapes(cli.pipeline_stages(args)) == _shapes(
            pipeline_stages("chain-matmul", 256)
        )

    def test_pipeline_weak_scaled_without_size(self):
        args = argparse.Namespace(
            pipeline="chain-matmul", size=None, nodes=16
        )
        assert _shapes(cli.pipeline_stages(args)) == _shapes(
            weak_scaled_pipeline("chain-matmul", 16)
        )

