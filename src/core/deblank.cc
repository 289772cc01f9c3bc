#include "core/deblank.h"

namespace rdfalign {

Partition DeblankPartition(const CombinedGraph& cg, RefinementStats* stats) {
  const TripleGraph& g = cg.graph();
  std::vector<NodeId> blanks = g.NodesOfKind(TermKind::kBlank);
  return BisimRefineFixpoint(g, LabelPartition(g), blanks, stats);
}

}  // namespace rdfalign
