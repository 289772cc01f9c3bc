#include "core/worklist_engine.h"

namespace rdfalign {
namespace internal {

size_t ResolveThreads(size_t requested) {
  return rdfalign::ResolveThreads(requested);
}

Partition RunWorklistFixpoint(const TripleGraph& g, const Partition& initial,
                              const std::vector<NodeId>& x,
                              WorklistConfig config,
                              const RefinementOptions& options,
                              RefinementStats* stats) {
  config.threads = ResolveThreads(options.threads);
  config.parallel_min_round = options.parallel_min_round;
  RefinementStats local;
  local.initial_classes = initial.NumColors();
  WorklistEngine<TripleGraph> engine(g, initial, x, config);
  Partition result = engine.Run(&local);
  assert(Partition::IsFinerOrEqual(result, initial));
  local.final_classes = result.NumColors();
  if (stats != nullptr) *stats = std::move(local);
  return result;
}

}  // namespace internal
}  // namespace rdfalign
