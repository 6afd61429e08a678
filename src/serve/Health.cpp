//===- Health.cpp - Serving-layer stats and health reporting ---------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "serve/Health.h"

#include "support/StringUtils.h"

using namespace tangram;
using namespace tangram::serve;

double tangram::serve::percentileSorted(const std::vector<double> &Sorted,
                                        double Q) {
  if (Sorted.empty())
    return 0;
  if (Q < 0)
    Q = 0;
  if (Q > 1)
    Q = 1;
  size_t I = static_cast<size_t>(Q * static_cast<double>(Sorted.size() - 1));
  return Sorted[I];
}

std::string HealthReport::renderText() const {
  std::string Out;
  for (const ShardHealth &S : Shards) {
    Out += strformat(
        "shard %-14s queue=%zu submitted=%llu completed=%llu failed=%llu "
        "expired=%llu rejected=%llu(overloaded=%llu unavailable=%llu)\n",
        S.ArchName.c_str(), S.QueueDepth,
        static_cast<unsigned long long>(S.Stats.Submitted),
        static_cast<unsigned long long>(S.Stats.Completed),
        static_cast<unsigned long long>(S.Stats.Failed),
        static_cast<unsigned long long>(S.Stats.Expired),
        static_cast<unsigned long long>(S.Stats.rejected()),
        static_cast<unsigned long long>(S.Stats.RejectedOverloaded),
        static_cast<unsigned long long>(S.Stats.RejectedUnavailable));
    Out += strformat(
        "  degraded=%.1f%% expiry=%.1f%% breaker: trips=%llu "
        "fast-fails=%llu recoveries=%llu chaos=%llu\n",
        S.degradedRatio() * 100.0, S.expiryRatio() * 100.0,
        static_cast<unsigned long long>(S.Stats.BreakerTrips),
        static_cast<unsigned long long>(S.Stats.BreakerFastFails),
        static_cast<unsigned long long>(S.Stats.BreakerRecoveries),
        static_cast<unsigned long long>(S.Stats.ChaosInjected));
    Out += strformat("  cache: hits=%llu misses=%llu compiled=%llu\n",
                     static_cast<unsigned long long>(S.Cache.Hits),
                     static_cast<unsigned long long>(S.Cache.Misses),
                     static_cast<unsigned long long>(S.Cache.VariantsCompiled));
    for (const std::string &W : S.Warnings)
      Out += strformat("  warning: %s\n", W.c_str());
    for (const LaneHealth &L : S.Lanes)
      Out += strformat(
          "  lane %-6s %-4s breaker=%-9s window-failure=%.2f trips=%llu "
          "probes=%llu%s\n",
          getReduceOpSpelling(L.Op), reduce::getScalarTypeSpelling(L.Elem),
          getBreakerStateName(L.State), L.FailureRatio,
          static_cast<unsigned long long>(L.Breaker.Trips),
          static_cast<unsigned long long>(L.Breaker.Probes),
          L.BatchQuarantined ? " [primary quarantined]" : "");
  }
  return Out;
}
