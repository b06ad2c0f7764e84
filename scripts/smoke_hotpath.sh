#!/usr/bin/env bash
# Hot-path smoke check: tier-1 test suite plus a short DNS through the
# planned serial transforms, verified bit-for-bit against the naive
# reference backend.  Run from the repository root:
#
#   scripts/smoke_hotpath.sh
#
# Exits non-zero on any test failure or on trajectory divergence.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo
echo "== 10-step 32^3 DNS, planned vs naive transform backend =="
python - <<'EOF'
import numpy as np

from repro.core import ChannelConfig, ChannelDNS
from repro.core.timestepper import IMEXStepper
from repro.core.transforms import NaiveTransformBackend

cfg = ChannelConfig(nx=32, ny=33, nz=32, dt=2e-4, seed=3)
dns = ChannelDNS(cfg)  # planned serial transforms (the default)
dns.initialize()
ref = ChannelDNS(cfg)
ref.stepper = IMEXStepper(
    ref.grid, nu=cfg.nu, dt=cfg.dt, forcing=cfg.forcing, scheme=cfg.scheme,
    backend=NaiveTransformBackend(ref.grid),
)
ref.initialize()
dns.run(10)
ref.run(10)

dv = float(np.abs(dns.state.v - ref.state.v).max())
de = abs(dns.kinetic_energy() - ref.kinetic_energy())
div = dns.divergence_norm()
print(f"max |v - v_ref| = {dv:.3e}")
print(f"|KE - KE_ref|   = {de:.3e}")
print(f"divergence norm = {div:.3e}")
print(dns.transforms.counters.report())
assert dv == 0.0, "planned transforms diverged from the naive trajectory"
assert de == 0.0, "kinetic energy diverged"
assert div < 1e-12, "velocity field not solenoidal"
print("smoke OK")
EOF

echo
echo "== banded solve engine micro-bench (n=1024, batch=64, bandwidth 7) =="
python - <<'EOF'
import time

import numpy as np

from repro.linalg.custom import FoldedLU
from repro.linalg.structure import BandedSystemSpec, FoldedBanded

rng = np.random.default_rng(0)
spec = BandedSystemSpec(n=1024, kl=3, ku=3, corner=3)
data = rng.standard_normal((64, 1024, spec.window))
data[:, np.arange(1024), spec.mdiag] += 14.0
lu = FoldedLU(FoldedBanded(spec, data))
rhs = rng.standard_normal((64, 1024)) + 1j * rng.standard_normal((64, 1024))
eng = lu.engine()

assert np.array_equal(eng.solve(rhs), lu.solve(rhs)), "engine != FoldedLU.solve"
np.testing.assert_allclose(eng.solve(rhs), lu.solve_reference(rhs), atol=1e-9)

t_eng = t_row = np.inf
for _ in range(7):  # interleaved so load drift hits both sides
    t0 = time.perf_counter(); eng.solve(rhs); t_eng = min(t_eng, time.perf_counter() - t0)
    t0 = time.perf_counter(); lu.solve_reference(rhs); t_row = min(t_row, time.perf_counter() - t0)
print(f"engine {t_eng*1e3:.2f} ms   row sweeps {t_row*1e3:.2f} ms   "
      f"speedup {t_row/t_eng:.2f}x")
assert t_row / t_eng >= 2.0, "solve-engine speedup regressed below 2x"
snap = eng.counters.snapshot()
eng.solve(rhs)
assert eng.counters.snapshot()["workspace_allocs"] == snap["workspace_allocs"], \
    "steady-state solve allocated workspace"
print("solver micro-bench OK")
EOF

echo
echo "== 10-step DNS trajectory identity: fused vs unfused solves =="
python - <<'EOF'
import numpy as np

from repro.core import ChannelConfig, ChannelDNS

cfg = ChannelConfig(nx=16, ny=25, nz=16, dt=2e-4, seed=3, init_amplitude=0.5)
fused = ChannelDNS(cfg)
fused.initialize()
unfused = ChannelDNS(cfg)
unfused.stepper.fused_solves = False
unfused.initialize()
fused.run(10)
unfused.run(10)
for name in ("v", "omega_y", "u00", "w00"):
    a = getattr(fused.state, name)
    b = getattr(unfused.state, name)
    assert np.array_equal(a, b), f"{name} diverged between fused and unfused solves"
t = fused.timers
print(t.report())
assert t.elapsed[t.SOLVE] > 0.0, "SOLVE section never timed"
print("trajectory identity OK")
EOF


echo
echo "== telemetry smoke: stream + manifest + trace, < 1% recorder overhead =="
python scripts/telemetry_smoke.py --out "$(mktemp -d)/telemetry" --steps 40

echo
echo "== kill-restart-verify: crash at step 7, supervised restart, identity at step 10 =="
python scripts/supervision_smoke.py
