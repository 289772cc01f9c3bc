#include "core/hybrid.h"

#include "core/alignment.h"
#include "core/deblank.h"

namespace rdfalign {

Partition HybridPartitionFrom(const CombinedGraph& cg, const Partition& base,
                              RefinementStats* stats) {
  // The refinable set is UN(base) plus every blank node. Including the
  // already-aligned blanks re-derives their deblank colors inside this run,
  // which realizes the paper's structured-color semantics: a previously
  // unaligned node whose unfolding coincides with an aligned blank's
  // derivation tree lands in that blank's class (colors are built in one
  // color space). It also makes the choice of base partition irrelevant
  // beyond its aligned/unaligned verdicts, which is why starting from
  // λ_Trivial or λ_Deblank provably yields the same partition (§3.4).
  std::vector<NodeId> x = UnalignedNonLiterals(cg, base);
  {
    std::vector<uint8_t> in_x(cg.graph().NumNodes(), 0);
    for (NodeId n : x) in_x[n] = 1;
    for (NodeId n = 0; n < cg.graph().NumNodes(); ++n) {
      if (cg.graph().IsBlank(n) && !in_x[n]) x.push_back(n);
    }
  }
  Partition blanked = BlankColors(base, x);
  return BisimRefineFixpoint(cg.graph(), std::move(blanked), x, stats);
}

Partition HybridPartition(const CombinedGraph& cg, RefinementStats* stats,
                          const RefinementOptions& /*options*/) {
  return HybridPartitionFrom(cg, DeblankPartition(cg), stats);
}

}  // namespace rdfalign
