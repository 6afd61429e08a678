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
# Those two passes run every test. The label-filtered presets
# (tier1-opmatrix, tier1-native, tier1-serving, tier1-resilience,
# tier1-cache, tier1-tsan) select subsets of the same tests, so the gate
# does not re-run them; the tests-manifest test pins every test's labels
# in tests/MANIFEST.txt instead, which fails when a label a preset filters
# on is dropped or renamed (a filter that matches nothing runs zero tests
# and passes).
#
#   tools/run_tier1.sh                        # RelWithDebInfo tier-1 gate
#   tools/run_tier1.sh --preset asan-ubsan    # same suite under ASan+UBSan
#   tools/run_tier1.sh --preset tier1-native  # native-backend suite only
#   tools/run_tier1.sh --preset tier1-serving # serving suite only
#
# Label-filtered tier1-* presets reuse the tier1 build and run only their
# labeled suite: tier1-native, for example, runs the native-CPU-backend
# differential tests that check the vectorized host engine against the
# simulator oracle.
set -eu

PRESET="tier1"
VERIFY_EACH=1
while [ $# -gt 0 ]; do
  case "$1" in
    --preset)
      [ $# -ge 2 ] || { echo "run_tier1.sh: --preset needs a value" >&2; exit 2; }
      PRESET="$2"; shift 2 ;;
    --preset=*)
      PRESET="${1#--preset=}"; shift ;;
    --no-verify-each)
      VERIFY_EACH=0; shift ;;
    -h|--help)
      # The header comment: every line from the second to `set -eu`.
      sed -n '2,/^set -eu$/p' "$0" | sed '$d'; exit 0 ;;
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
else
  # CMake < 3.21: no preset support; fall back to the plain tier-1 build.
  cmake -B build -S .
  cmake --build build -j "$(nproc 2>/dev/null || echo 2)"
  ctest --test-dir build --output-on-failure -j 4
  if [ "$VERIFY_EACH" = 1 ]; then
    echo "== tier-1 again with per-pass IR verification (TGR_VERIFY_EACH=1) =="
    TGR_VERIFY_EACH=1 ctest --test-dir build --output-on-failure -j 4
  fi
fi
