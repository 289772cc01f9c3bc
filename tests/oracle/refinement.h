// Full-rescan refinement oracles (§3.2, Definitions 3 and 4).
//
// Each step recolors every node of X by its hash-consed signature
//     recolor_λ(n) = (λ(n), { (λ(p), λ(o)) | (p,o) ∈ out_G(n) })
// — restricted to key predicates for keyed refinement, and extended by the
// mediation signature of predicate-only URIs for contextual refinement —
// while every node outside X keeps its color. The fixpoint functions re-sign
// all of X every iteration until the class count stops changing.
//
// This is the literal reading of the paper and the engine the library's
// worklist engine (core/worklist_engine.h) replaced. It is kept as a test
// oracle only: the equivalence suites require the worklist fixpoints to
// reproduce these partitions bit for bit. It is compiled into the test
// binary, never into the library. Do not "optimize" it.

#ifndef RDFALIGN_TESTS_ORACLE_REFINEMENT_H_
#define RDFALIGN_TESTS_ORACLE_REFINEMENT_H_

#include <cstdint>
#include <vector>

#include "core/context.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/graph.h"
#include "rdf/merge.h"

namespace rdfalign::oracle {

/// One-step refinement BisimRefine_X(λ): recolors exactly the nodes in X by
/// signature; all other nodes keep their class.
Partition BisimRefineStep(const TripleGraph& g, const Partition& p,
                          const std::vector<NodeId>& x);

/// One-step keyed refinement: as BisimRefineStep, but only out-pairs whose
/// predicate node is marked in `predicate_mask` enter the signature.
Partition BisimRefineStepKeyed(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const std::vector<uint8_t>& predicate_mask);

/// One contextual step: as BisimRefineStep, and nodes in X flagged in
/// `predicate_only` additionally carry their mediation signature.
Partition ContextualRefineStep(const TripleGraph& g, const Partition& p,
                               const std::vector<NodeId>& x,
                               const MediationIndex& mediation,
                               const std::vector<uint8_t>& predicate_only);

/// Rescan fixpoints of the three steps. `stats` records |X| re-signings
/// per iteration, the iteration count (including the stabilizing one), and
/// the initial and final class counts.
Partition BisimRefineFixpoint(const TripleGraph& g, Partition initial,
                              const std::vector<NodeId>& x,
                              RefinementStats* stats = nullptr);
Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats = nullptr);
Partition ContextualRefineFixpoint(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const MediationIndex& mediation,
                                   const std::vector<uint8_t>& predicate_only,
                                   RefinementStats* stats = nullptr);

/// PredicateAwareHybridPartition over the rescan contextual fixpoint.
Partition PredicateAwareHybridPartition(const CombinedGraph& cg,
                                        RefinementStats* stats = nullptr);

}  // namespace rdfalign::oracle

#endif  // RDFALIGN_TESTS_ORACLE_REFINEMENT_H_
