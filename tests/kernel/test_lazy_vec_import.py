"""numpy and the vec kernel load only when a fixpoint resolves to vec.

Deciding and serving never call the fixpoints, so a fresh interpreter that
imports the CLI and the gateway, decides, registers a schema, serves a
decide line and resets the process caches must not have imported numpy,
``repro.kernel.vec`` or ``repro.kernel.vec_fixpoint``.  Neither may a
fixpoint that resolves to the bitset kernel: an explicit ``bitset`` oneway
call, an ``auto`` one below the 4,096-row switch, or a ``bitset`` type
enumeration.  A vec fixpoint run in that same process then loads them and
agrees with the bitset run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernel.backend import HAVE_NUMPY

REPO = Path(__file__).resolve().parents[2]
VEC_MODULES = ("numpy", "repro.kernel.vec", "repro.kernel.vec_fixpoint")

SCRIPT = r"""
import json, sys

import repro, repro.cli, repro.service.gateway.gateway
from repro import is_contained
from repro.dl.tbox import TBox
from repro.io import tbox_to_dict
from repro.service.server import ContainmentServer
from repro.service.sessions import SessionManager, reset_process_caches

MODULES = %r
out = {}
schema = TBox.of([("A", "B"), ("B", "exists r.C"), ("C", "forall r.D")], name="small")
out["contained"] = is_contained("A(x)", "r(x,y), C(y)", schema).contained
session = SessionManager().register("s", tbox_to_dict(schema))
out["schema_names"] = len(session.tbox.concept_names())
server = ContainmentServer(use_cache=False)
server.handle_line(json.dumps({"id": "d1", "lhs": "A(x)", "rhs": "B(x)"}))
responses, _stop = server.handle_line('{"type": "flush"}')
out["served"] = [(r["type"], r.get("id")) for r in responses]
reset_process_caches()
out["after_serving"] = [m for m in MODULES if m in sys.modules]

from repro.core.oneway import realizable_refuting_oneway
from repro.core.search import SearchLimits
from repro.dl.normalize import normalize
from repro.dl.types import consistent_types
from repro.graphs.types import Type
from repro.queries.parser import parse_query


def chain_oneway(width, backend):
    # the E21 chain; width 3 stays below the auto switch
    chain = normalize(TBox.of([(f"A{i}", f"A{i + 1}") for i in range(width - 1)]))
    query = parse_query(f"Z(x), r(x,y), A{width - 1}(y)")
    return realizable_refuting_oneway(
        Type.of("A0"), chain, query,
        limits=SearchLimits(max_nodes=4, max_steps=4000),
        backend=backend,
    )


out["small_backends"] = [chain_oneway(3, b).backend for b in ("bitset", "auto")]
pair = normalize(TBox.of([("A0", "A1")]))
out["small_types"] = len(list(consistent_types(pair, ["A0", "A1", "A2"], backend="bitset")))
out["after_bitset"] = [m for m in MODULES if m in sys.modules]

if sys.argv[1] == "vec":
    survivors = {}
    for backend in ("vec", "bitset"):
        result = chain_oneway(10, backend)  # |Γ₀| = 12, a 4,096-row table
        survivors[backend] = sorted(str(t) for t in result.survivors)
        out[f"backend_{backend}"] = result.backend
        if backend == "vec":
            out["after_vec"] = [m for m in MODULES if m in sys.modules]
    out["same_survivors"] = survivors["vec"] == survivors["bitset"]
    out["survivors"] = len(survivors["vec"])
print(json.dumps(out))
""" % (VEC_MODULES,)


def _run(mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_serving_loads_no_numpy_until_a_vec_fixpoint_runs():
    out = _run("vec" if HAVE_NUMPY else "serve")
    assert out["contained"] is True
    assert out["schema_names"] <= 12
    assert out["served"] == [["verdict", "d1"]]
    assert out["after_serving"] == []
    assert out["small_backends"] == ["bitset", "bitset"]
    assert out["small_types"] == 6
    assert out["after_bitset"] == []
    if not HAVE_NUMPY:
        pytest.skip("numpy not installed; the vec half needs it")
    assert out["after_vec"] == list(VEC_MODULES)
    assert out["backend_vec"] == "vec"
    assert out["backend_bitset"] == "bitset"
    assert out["same_survivors"] is True
    assert out["survivors"] > 0
