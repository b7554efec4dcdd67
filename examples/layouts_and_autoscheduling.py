#!/usr/bin/env python
"""Layout transformation and automatic scheduling.

Two capabilities around the core compiler:

* **Redistribution** (paper Section 1): tensors can be transformed
  between distributed layouts with a compiled transfer whose traffic the
  runtime derives automatically — "easily transform data between
  distributed layouts to match the computation".
* **Auto-scheduling** (paper Section 9, future work): derive a
  distribution schedule and matching formats for any einsum
  automatically, and inspect what was chosen.

Run:  python examples/layouts_and_autoscheduling.py
"""

import numpy as np

from repro import (
    Assignment,
    Format,
    Kernel,
    Machine,
    TensorVar,
    index_vars,
)
from repro.codegen.placement import describe_placement
from repro.core.transfer import redistribution_bytes, transfer_kernel
from repro.sim.analysis import communication_report
from repro.tuner.space import heuristic_decision


def main():
    rng = np.random.default_rng(4)
    machine = Machine.flat(4)
    n = 16

    # --- Redistribution: rows -> columns. ------------------------------
    T = TensorVar("T", (n, n), Format("xy -> x"))
    print("Placement of the source layout:")
    print(describe_placement(T, machine))
    print()

    cost = redistribution_bytes(T, Format("yx -> x"), machine)
    print(f"Transforming rows -> columns moves {cost:,} bytes")
    kern = transfer_kernel(T, Format("yx -> x"), machine)
    data = rng.random((n, n))
    res = kern.execute({"T": data})
    np.testing.assert_allclose(res.outputs["T_re"], data)
    print("Transfer verified: same values, new layout.")
    print()

    # --- Auto-scheduling a TTV. -----------------------------------------
    m2 = Machine.flat(2, 2)
    A = TensorVar("A", (n, n))
    B = TensorVar("B", (n, n, n))
    c = TensorVar("c", (n,))
    i, j, k = index_vars("i j k")
    stmt = Assignment(A[i, j], B[i, j, k] * c[k])

    decision = heuristic_decision(stmt, m2.levels[0].shape)
    print(f"auto-schedule: {decision.describe()}")
    kern = Kernel.autoschedule(stmt, m2)
    for tensor in stmt.tensors():
        print(f"  format {tensor.name}: {tensor.format.notation()}")
    res = kern.execute(
        {"B": rng.random((n, n, n)), "c": rng.random(n)}, verify=True
    )
    print()
    print("Auto-scheduled TTV communication report:")
    print(communication_report(res.trace, m2))
    print()
    print("(The derived schedule matches the paper's hand-written one: "
          "tile B and A, replicate c, zero communication.)")


if __name__ == "__main__":
    main()
