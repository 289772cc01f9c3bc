#include "core/bisim.h"

#include <set>

namespace rdfalign {

namespace {

bool SameLabel(const TripleGraph& g, NodeId n, NodeId m) {
  if (g.KindOf(n) != g.KindOf(m)) return false;
  if (g.IsBlank(n)) return true;  // all blanks share the label ⊥b
  return g.LexicalId(n) == g.LexicalId(m);
}

/// One direction of Definition 2: every out-pair of n can be simulated by
/// some out-pair of m within `rel`.
bool Simulates(const TripleGraph& g,
               const std::set<std::pair<NodeId, NodeId>>& rel, NodeId n,
               NodeId m) {
  for (const PredicateObject& a : g.Out(n)) {
    bool matched = false;
    for (const PredicateObject& b : g.Out(m)) {
      if (rel.count({a.p, b.p}) > 0 && rel.count({a.o, b.o}) > 0) {
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

}  // namespace

Partition BisimPartition(const TripleGraph& g, RefinementStats* stats) {
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  return BisimRefineFixpoint(g, LabelPartition(g), all, stats);
}

bool AreBisimilar(const TripleGraph& g, NodeId n, NodeId m) {
  Partition p = BisimPartition(g);
  return p.ColorOf(n) == p.ColorOf(m);
}

std::vector<std::pair<NodeId, NodeId>> MaximalBisimulationBruteForce(
    const TripleGraph& g) {
  const NodeId n = static_cast<NodeId>(g.NumNodes());
  std::set<std::pair<NodeId, NodeId>> rel;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (SameLabel(g, a, b)) rel.emplace(a, b);
    }
  }
  // Greatest fixpoint: repeatedly delete pairs violating either direction.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = rel.begin(); it != rel.end();) {
      auto [a, b] = *it;
      if (!Simulates(g, rel, a, b) || !Simulates(g, rel, b, a)) {
        it = rel.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  return {rel.begin(), rel.end()};
}

bool IsBisimulation(const TripleGraph& g,
                    const std::vector<std::pair<NodeId, NodeId>>& relation) {
  std::set<std::pair<NodeId, NodeId>> rel(relation.begin(), relation.end());
  for (const auto& [a, b] : rel) {
    if (!SameLabel(g, a, b)) return false;
    if (!Simulates(g, rel, a, b)) return false;
    if (!Simulates(g, rel, b, a)) return false;
  }
  return true;
}

}  // namespace rdfalign
