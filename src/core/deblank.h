// Deblanking alignment (§3.3): λ_Deblank = BisimRefine*_{Blanks(G)}(ℓ_G).
//
// Every blank node receives a color characterizing its contents — the URIs
// and data values reachable from it — so blank nodes with identical contents
// align across versions (nodes b2/b3 vs b4 in Fig. 3). Non-blank nodes keep
// label equality, i.e. the trivial alignment.

#ifndef RDFALIGN_CORE_DEBLANK_H_
#define RDFALIGN_CORE_DEBLANK_H_

#include "core/partition.h"
#include "core/refinement.h"
#include "rdf/merge.h"

namespace rdfalign {

/// Computes λ_Deblank over the combined graph.
Partition DeblankPartition(const CombinedGraph& cg,
                           RefinementStats* stats = nullptr);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_DEBLANK_H_
