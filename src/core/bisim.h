// Maximal bisimulation (§2.3, Proposition 1).
//
// λ_Bisim = BisimRefine*_{N_G}(ℓ_G) captures the maximal bisimulation on G:
// two nodes get one color iff they are bisimilar. Also provides a
// quadratic-time reference implementation (pair-removal greatest fixpoint)
// used by the property tests to validate the refinement engine.

#ifndef RDFALIGN_CORE_BISIM_H_
#define RDFALIGN_CORE_BISIM_H_

#include <utility>
#include <vector>

#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/graph.h"

namespace rdfalign {

/// The bisimulation partition λ_Bisim of G (Proposition 1).
Partition BisimPartition(const TripleGraph& g,
                         RefinementStats* stats = nullptr);

/// True iff n and m are bisimilar in G (same λ_Bisim color). Prefer
/// computing the partition once when testing many pairs.
bool AreBisimilar(const TripleGraph& g, NodeId n, NodeId m);

/// Reference oracle: computes the maximal bisimulation by iterated removal
/// of violating pairs from the same-label relation. O(V²·E) — tests only.
std::vector<std::pair<NodeId, NodeId>> MaximalBisimulationBruteForce(
    const TripleGraph& g);

/// Checks Definition 2 directly: is `relation` (as a set of pairs) a
/// bisimulation on G? Used to validate both implementations.
bool IsBisimulation(const TripleGraph& g,
                    const std::vector<std::pair<NodeId, NodeId>>& relation);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_BISIM_H_
