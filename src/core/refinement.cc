#include "core/refinement.h"

#include "core/worklist_engine.h"

namespace rdfalign {

Partition BisimRefineFixpoint(const TripleGraph& g, Partition initial,
                              const std::vector<NodeId>& x,
                              RefinementStats* stats) {
  return internal::RunWorklistFixpoint(g, initial, x, {}, stats);
}

Partition BlankColors(const Partition& p, const std::vector<NodeId>& x) {
  std::vector<ColorId> colors(p.colors());
  // A color id beyond every existing color acts as the fresh blank color ⊥b.
  const ColorId blank = static_cast<ColorId>(p.NumColors());
  for (NodeId node : x) colors[node] = blank;
  return Partition::FromColors(std::move(colors));
}

std::vector<uint8_t> BuildPredicateMask(
    const TripleGraph& g, const std::vector<std::string>& predicate_uris) {
  std::vector<uint8_t> mask(g.NumNodes(), 0);
  for (const std::string& uri : predicate_uris) {
    // The combined graph can hold one node per side for the same URI; mark
    // every node carrying the label.
    LexId lex = g.dict().Find(uri);
    if (lex == kInvalidLex) continue;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsUri(n) && g.LexicalId(n) == lex) mask[n] = 1;
    }
  }
  return mask;
}

Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats) {
  return internal::RunWorklistFixpoint(
      g, initial, x, {.predicate_mask = &predicate_mask}, stats);
}

}  // namespace rdfalign
