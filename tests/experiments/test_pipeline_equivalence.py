"""Pipeline-refactor equivalence pins.

The allocation pipeline extraction (``repro.core.pipeline``, commit
``1de9554``) must be behavior-preserving: with event coalescing off
and signature caching on (the defaults), fig8 and fig10 outputs are
bit-identical to the pre-refactor code, commit ``ef1d96a``.  These
tests compare with ``==`` on the raw floats, not approx.

The outputs are a function of the code *and* of the numeric stack it
runs on, so ``golden_pipeline.json`` keeps a list of recordings, each
tagged with the stack that produced it:

* **scipy release.**  SLSQP runs in the constrained sensitivity fit
  (``core.sensitivity._constrained_fit``) and in the Eq. 2 solve of
  non-convex ports (``core.allocation._solve_slsqp``), and its iterates
  change between scipy releases.  One ulp in a fitted coefficient
  moves fig8 by ~7e-8 relative, because ``_solve_kkt``'s Brent stop at
  ``xtol=rtol=1e-6`` and its 30-step inner bisection quantise the
  weights; one ulp in an SLSQP weight moves fig10 by about an ulp.
* **numpy release**, which SLSQP and the fits are built on.
* **CPython minor version.**  Builtin ``sum`` compensates rounding from
  3.12 on, and ``simnet/fairness.py`` uses it for fluid rates.

A recording's ``stack`` is ``{"python": "X.Y", "numpy": ..., "scipy":
...}``; the first recording holds the values the file was created
with, whose stack was not recorded (``stack`` is null), so no
installed stack selects it.  The recipe subprocess reports its own
stack beside its outputs and both tests compare against the recording
for that stack.  Where the installed stack has no recording the tests
skip, naming the installed stack and the recorded ones: there is no
pre-refactor reference to compare with.  The CI ``perfbench`` job pins
a recorded stack and fails if these tests skip.

To record a stack, run ``_PINNED_RECIPE`` against the pre-refactor
``src/`` tree with this module as a script (any checkout of
``ef1d96a``'s ``src/``, a ``git worktree`` say, serves as well)::

    mkdir -p /tmp/pre-refactor
    git archive ef1d96a src | tar -x -C /tmp/pre-refactor
    python tests/experiments/test_pipeline_equivalence.py \\
        /tmp/pre-refactor/src \\
        --source-commit ef1d96a2dcb13c9ca03620ed8055020ed5e8de6a

and append the printed entry to ``recordings``.  Passing ``src``
instead prints HEAD's figures for the same stack, which must match.

The recipe runs in a fresh subprocess and replays fig8 and fig10 in
one process, in the golden-generation order.  Both points matter:

* fig8/fig10 floats are deterministic within a process but can wobble
  by one ulp depending on which code ran earlier in it (solver
  warm-up -- observed with the pre-refactor code as well), so the
  comparison cannot run inside the (ordering-dependent) test process;
* flow ids come from a process-global counter
  (``repro.simnet.flows``) and ECMP path selection keys on the flow
  id, so the fig10 runs only reproduce the goldens when preceded by
  exactly the flow population the golden-generation script created --
  i.e. the fig8 runs.

The coalesced-churn test covers the opt-in batching mode: batching
connection events into one deduplicated pass per quantum must still
complete the same job set.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

GOLDEN = Path(__file__).parent / "golden_pipeline.json"

#: Reduced spine-leaf shape used by the golden fig10 runs.
TINY_TOPOLOGY = dict(n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4)

#: Exact replay of the golden-generation script: catalog table, two
#: fig8 setup pairs, then the fig10 baseline/saba points; the stack is
#: read only after both figures are computed.
_PINNED_RECIPE = """
import json
from repro.experiments.common import build_catalog_table
from repro.experiments.fig8 import run_setup_pair
from repro.cluster.setups import generate_setups
from repro.experiments.fig10_fig11 import (
    build_simulation, profile_synthetic, run_policy_point,
)

table = build_catalog_table(method="analytic")
setups = list(generate_setups(
    n_setups=2, jobs_per_setup=4, seed=2023, max_instances=8,
))
fig8 = {
    f"setup{setup.setup_id}": run_setup_pair(setup, table, n_servers=8)
    for setup in setups
}

TINY = dict(n_spine=2, n_leaf=3, n_tor=4, servers_per_tor=4)
_, _, specs = build_simulation(n_workloads=6, topology_kwargs=TINY, seed=11)
syn_table = profile_synthetic(specs)
fig10 = {
    policy: run_policy_point(
        policy, syn_table, topology_kwargs=TINY, n_workloads=6, seed=11,
    )
    for policy in ("baseline", "saba")
}

import sys
import numpy
import scipy
stack = {
    "python": "%d.%d" % sys.version_info[:2],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}
print(json.dumps({"stack": stack, "fig8": fig8, "fig10": fig10}))
"""

_pinned_cache = {}


def _run_recipe(script, src=REPO_ROOT / "src"):
    """Run ``script`` in a fresh interpreter importing ``repro`` from
    ``src``; the persistent sweep cache is left off so every point is
    computed by the tree under test."""
    env = dict(os.environ)
    env.pop("REPRO_SWEEP_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=540,
        cwd=REPO_ROOT, env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def pinned():
    if "result" not in _pinned_cache:
        _pinned_cache["result"] = _run_recipe(_PINNED_RECIPE)
    return _pinned_cache["result"]


@pytest.fixture(scope="module")
def recording(pinned):
    recordings = json.loads(GOLDEN.read_text())["recordings"]
    for entry in recordings:
        if entry["stack"] == pinned["stack"]:
            return entry
    recorded = [entry["stack"] for entry in recordings if entry["stack"]]
    pytest.skip(
        f"no pre-refactor recording for the installed stack "
        f"{pinned['stack']}; recorded stacks: {recorded}"
    )


def test_fig8_bit_identical_to_pre_refactor(recording, pinned):
    assert pinned["fig8"] == recording["fig8"]


def test_fig10_bit_identical_to_pre_refactor(recording, pinned):
    assert pinned["fig10"] == recording["fig10"]


def test_coalesced_churn_completes_same_job_set():
    """Randomized co-run churn: the coalesced control plane sees the
    same registrations/teardowns batched per quantum and must still
    run every job to completion."""
    from repro.cluster.runtime import CoRunExecutor, PolicySetup
    from repro.core.controller import SabaController
    from repro.core.library import SabaLibrary
    from repro.experiments.fig10_fig11 import (
        build_simulation, profile_synthetic,
    )

    make_topology, make_jobs, specs = build_simulation(
        n_workloads=4, topology_kwargs=TINY_TOPOLOGY, seed=29,
    )
    syn_table = profile_synthetic(specs, rack_nodes=6)

    def run_mode(quantum):
        controller = SabaController(
            syn_table, coalesce_quantum=quantum,
        )
        setup = PolicySetup(
            policy=controller,
            connections_factory=SabaLibrary.factory(controller),
            controller=controller,
            pipeline=controller.pipeline,
        )
        executor = CoRunExecutor(
            make_topology(), policy=setup, completion_quantum=0.1,
        )
        results = executor.run(make_jobs())
        return results, controller.pipeline.stats

    eager_results, eager_stats = run_mode(0.0)
    coalesced_results, coalesced_stats = run_mode(0.05)
    assert set(coalesced_results) == set(eager_results)
    for job_id, result in coalesced_results.items():
        assert result.completion_time > 0.0
    assert coalesced_stats.coalesce_flushes > 0
    assert coalesced_stats.coalesced_updates > 0
    assert coalesced_stats.passes < eager_stats.passes


def main(argv=None):
    """Print a ``golden_pipeline.json`` recording of ``_PINNED_RECIPE``
    run against the given ``src/`` tree on the installed stack."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("src", type=Path, help="the src/ tree to run")
    parser.add_argument(
        "--source-commit", required=True,
        help="the commit the src/ tree was checked out from",
    )
    args = parser.parse_args(argv)
    result = _run_recipe(_PINNED_RECIPE, src=args.src.resolve())
    result["source_commit"] = args.source_commit
    print(json.dumps(result, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
