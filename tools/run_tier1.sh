#!/usr/bin/env sh
# Tier-1 gate: configure, build, and run the full test suite exactly the
# way CI does. Run from anywhere; exits nonzero on the first failure.
#
# After the plain tier-1 suite passes, the suite runs once more with
# TGR_VERIFY_EACH=1 (the tier1-verify-each preset): every lowering
# pipeline re-verifies the kernel IR after every pass — including the
# reduce::OpDef atomic-legality check, so an op/arch-illegal or
# under-expanded atomic fails with the pass's name even if a later pass
# would have masked the damage. Skip with --no-verify-each.
#
# Finally the `op-matrix` labeled suites (the tier1-opmatrix preset) run
# under the same per-pass verification: the reduction-op x dtype sweeps
# across {Add, Min, Max, ArgMax} x {F32, I32, I64}. They are part of the
# plain suite too; the dedicated pass pins the label wiring so the sweep
# can be invoked alone (`ctest --preset tier1-opmatrix`). Skip with
# --no-op-matrix.
#
# The `serve` labeled suite (the tier1-serving preset) then runs alone:
# the serving-layer tests — batch bit-identity across the op x dtype
# matrix, admission backpressure, shard failover, and drain-on-stop.
# Also part of the plain suite; the dedicated pass pins the label wiring
# (`ctest --preset tier1-serving`). Skip with --no-serving.
#
# The `resilience` labeled suite (the tier1-resilience preset) runs next:
# the chaos acceptance matrix (every ChaosKind x coalesced/direct x
# op/dtype, zero wrong answers), the circuit-breaker lifecycle, the
# retry/backoff client, and the deadline/batch race. Also part of the
# plain suite (and of the serve pass — it carries both labels); the
# dedicated pass pins the label wiring (`ctest --preset
# tier1-resilience`). Skip with --no-chaos.
#
# The `persistent-cache-pack` labeled suite (the tier1-cache preset)
# runs last: the tuned-pack cross-process reuse matrix, pack corruption
# and key-mismatch handling, and export/import round trips. Also part of
# the plain suite; the dedicated pass pins the label wiring (`ctest
# --preset tier1-cache`). Skip with --no-cache.
#
#   tools/run_tier1.sh                        # RelWithDebInfo tier-1 gate
#   tools/run_tier1.sh --preset asan-ubsan    # same suite under ASan+UBSan
#   tools/run_tier1.sh --preset tier1-native  # native-backend suite only
#   tools/run_tier1.sh --preset tier1-serving # serving suite only
#
# `tier1-native` reuses the tier1 build and runs only the `native`
# labeled suite — the native-CPU-backend differential tests that check
# the vectorized host engine against the simulator oracle.
set -eu

PRESET="tier1"
VERIFY_EACH=1
OP_MATRIX=1
SERVING=1
CHAOS=1
CACHE=1
while [ $# -gt 0 ]; do
  case "$1" in
    --preset)
      [ $# -ge 2 ] || { echo "run_tier1.sh: --preset needs a value" >&2; exit 2; }
      PRESET="$2"; shift 2 ;;
    --preset=*)
      PRESET="${1#--preset=}"; shift ;;
    --no-verify-each)
      VERIFY_EACH=0; shift ;;
    --no-op-matrix)
      OP_MATRIX=0; shift ;;
    --no-serving)
      SERVING=0; shift ;;
    --no-chaos)
      CHAOS=0; shift ;;
    --no-cache)
      CACHE=0; shift ;;
    -h|--help)
      sed -n '2,14p' "$0"; exit 0 ;;
    *)
      echo "run_tier1.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

if command -v cmake >/dev/null 2>&1 && cmake --list-presets >/dev/null 2>&1; then
  # Label-filter test presets (tier1-native, tier1-opmatrix) share the
  # tier1 build tree; everything else builds under its own preset name.
  case "$PRESET" in
    tier1-*) BUILD_PRESET="tier1" ;;
    *) BUILD_PRESET="$PRESET" ;;
  esac
  cmake --preset "$BUILD_PRESET"
  cmake --build --preset "$BUILD_PRESET" -j "$(nproc 2>/dev/null || echo 2)"
  ctest --preset "$PRESET"
  if [ "$VERIFY_EACH" = 1 ] && [ "$PRESET" = tier1 ]; then
    echo "== tier-1 again with per-pass IR verification (TGR_VERIFY_EACH=1) =="
    ctest --preset tier1-verify-each
  fi
  if [ "$OP_MATRIX" = 1 ] && [ "$PRESET" = tier1 ]; then
    echo "== op-matrix sweep under per-pass verification (label: op-matrix) =="
    ctest --preset tier1-opmatrix
  fi
  if [ "$SERVING" = 1 ] && [ "$PRESET" = tier1 ]; then
    echo "== serving-layer suite (label: serve) =="
    ctest --preset tier1-serving
  fi
  if [ "$CHAOS" = 1 ] && [ "$PRESET" = tier1 ]; then
    echo "== resilience/chaos suite (label: resilience) =="
    ctest --preset tier1-resilience
  fi
  if [ "$CACHE" = 1 ] && [ "$PRESET" = tier1 ]; then
    echo "== tuned-pack persistence suite (label: persistent-cache) =="
    ctest --preset tier1-cache
  fi
else
  # CMake < 3.21: no preset support; fall back to the plain tier-1 build.
  cmake -B build -S .
  cmake --build build -j "$(nproc 2>/dev/null || echo 2)"
  ctest --test-dir build --output-on-failure -j 4
  if [ "$VERIFY_EACH" = 1 ]; then
    echo "== tier-1 again with per-pass IR verification (TGR_VERIFY_EACH=1) =="
    TGR_VERIFY_EACH=1 ctest --test-dir build --output-on-failure -j 4
  fi
  if [ "$OP_MATRIX" = 1 ]; then
    echo "== op-matrix sweep under per-pass verification (label: op-matrix) =="
    TGR_VERIFY_EACH=1 ctest --test-dir build -L op-matrix --output-on-failure -j 4
  fi
  if [ "$SERVING" = 1 ]; then
    echo "== serving-layer suite (label: serve) =="
    ctest --test-dir build -L serve --output-on-failure -j 4
  fi
  if [ "$CHAOS" = 1 ]; then
    echo "== resilience/chaos suite (label: resilience) =="
    ctest --test-dir build -L resilience --output-on-failure -j 4
  fi
  if [ "$CACHE" = 1 ]; then
    echo "== tuned-pack persistence suite (label: persistent-cache) =="
    ctest --test-dir build -L persistent-cache --output-on-failure -j 4
  fi
fi
