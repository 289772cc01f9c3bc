#include "oracle/refinement.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <unordered_map>

#include "core/worklist_engine.h"
#include "util/hash.h"

namespace rdfalign::oracle {

namespace {

// Signature tags keep recolored nodes in a different key space from kept
// nodes: recolor_λ(n) is a structured pair and can never equal a plain kept
// color (see §3.2 eq. 1-2).
constexpr uint32_t kKeepTag = 0;
constexpr uint32_t kRecolorTag = 1;

using SignatureMap =
    std::unordered_map<std::vector<uint32_t>, ColorId, U32VectorHash>;

// The shared step: `mask` restricts out-pairs to key predicates; a non-null
// `mediation` appends the mediation section for nodes flagged in
// `predicate_only`.
Partition RescanStep(const TripleGraph& g, const Partition& p,
                     const std::vector<NodeId>& x,
                     const std::vector<uint8_t>* mask,
                     const MediationIndex* mediation,
                     const std::vector<uint8_t>* predicate_only) {
  const size_t n = g.NumNodes();
  assert(p.NumNodes() == n);
  std::vector<uint8_t> in_x(n, 0);
  for (NodeId node : x) in_x[node] = 1;

  SignatureMap cons;
  cons.reserve(n);
  std::vector<ColorId> next(n);
  std::vector<uint32_t> sig;
  std::vector<uint64_t> packed;

  // Appends a pair list as a sorted *set* of color pairs (eq. 1).
  auto append_pairs = [&](std::span<const PredicateObject> pairs,
                          const std::vector<uint8_t>* key) {
    packed.clear();
    for (const PredicateObject& po : pairs) {
      if (key != nullptr && !(*key)[po.p]) continue;  // non-key attribute
      packed.push_back(PackPair(p.ColorOf(po.p), p.ColorOf(po.o)));
    }
    std::sort(packed.begin(), packed.end());
    packed.erase(std::unique(packed.begin(), packed.end()), packed.end());
    for (uint64_t v : packed) {
      sig.push_back(UnpackHi(v));
      sig.push_back(UnpackLo(v));
    }
  };

  for (NodeId node = 0; node < n; ++node) {
    sig.clear();
    if (!in_x[node]) {
      sig.push_back(kKeepTag);
      sig.push_back(p.ColorOf(node));
    } else {
      sig.push_back(kRecolorTag);
      sig.push_back(p.ColorOf(node));
      append_pairs(g.Out(node), mask);
      if (mediation != nullptr && (*predicate_only)[node]) {
        // The (subject, object) colors of the triples this node mediates,
        // separated from the out-signature.
        sig.push_back(internal::kMediationSeparator);
        append_pairs(mediation->Mediated(node), nullptr);
      }
    }
    auto [it, inserted] = cons.try_emplace(std::vector<uint32_t>(sig),
                                           static_cast<ColorId>(cons.size()));
    next[node] = it->second;
  }
  return Partition::FromColors(std::move(next));
}

// Re-signs all of X until a step splits nothing. A step only splits
// classes (the old color is part of the signature), so n steps suffice.
template <typename Step>
Partition RescanFixpoint(const TripleGraph& g, Partition initial,
                         const std::vector<NodeId>& x, RefinementStats* stats,
                         const Step& step) {
  RefinementStats local;
  local.initial_classes = initial.NumColors();
  Partition current = std::move(initial);
  const size_t hard_cap = g.NumNodes() + 2;
  for (size_t iter = 0; iter < hard_cap; ++iter) {
    Partition next = step(current);
    ++local.iterations;
    local.dirty_per_iteration.push_back(x.size());
    assert(Partition::IsFinerOrEqual(next, current));
    // Equal class counts between a partition and its refinement imply
    // equivalence (Definition 4's stopping rule).
    const bool stable = next.NumColors() == current.NumColors();
    current = std::move(next);
    if (stable) break;
  }
  local.final_classes = current.NumColors();
  if (stats != nullptr) *stats = std::move(local);
  return current;
}

}  // namespace

Partition BisimRefineStep(const TripleGraph& g, const Partition& p,
                          const std::vector<NodeId>& x) {
  return RescanStep(g, p, x, nullptr, nullptr, nullptr);
}

Partition BisimRefineStepKeyed(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const std::vector<uint8_t>& predicate_mask) {
  return RescanStep(g, p, x, &predicate_mask, nullptr, nullptr);
}

Partition ContextualRefineStep(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const MediationIndex& mediation,
                               const std::vector<uint8_t>& predicate_only) {
  return RescanStep(g, p, x, nullptr, &mediation, &predicate_only);
}

Partition BisimRefineFixpoint(const TripleGraph& g, Partition initial,
                              const std::vector<NodeId>& x,
                              RefinementStats* stats) {
  return RescanFixpoint(g, std::move(initial), x, stats,
                        [&](const Partition& p) {
                          return BisimRefineStep(g, p, x);
                        });
}

Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats) {
  return RescanFixpoint(g, std::move(initial), x, stats,
                        [&](const Partition& p) {
                          return BisimRefineStepKeyed(g, p, x, predicate_mask);
                        });
}

Partition ContextualRefineFixpoint(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const MediationIndex& mediation,
                                   const std::vector<uint8_t>& predicate_only,
                                   RefinementStats* stats) {
  return RescanFixpoint(g, std::move(initial), x, stats,
                        [&](const Partition& p) {
                          return ContextualRefineStep(g, p, x, mediation,
                                                      predicate_only);
                        });
}

Partition PredicateAwareHybridPartition(const CombinedGraph& cg,
                                        RefinementStats* stats) {
  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  return oracle::ContextualRefineFixpoint(cg.graph(), std::move(in.blanked),
                                          in.x, in.mediation,
                                          in.predicate_only, stats);
}

}  // namespace rdfalign::oracle
