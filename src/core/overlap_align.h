// Overlap alignment (§4.7, Algorithm 2): the scalable approximation of the
// σEdit alignment.
//
// Round 0 matches unaligned *literals* with the word-set characterization
// (`split`) verified by normalized string edit distance. Each subsequent
// round enriches the weighted partition with the discovered pairs,
// propagates weights (§4.5), and matches the remaining unaligned
// *non-literal* nodes characterized by the colors of their outgoing edges
// (out-color_ξ) and verified by σNL — the rank-coupled matching that
// realizes the optimal same-color assignment without running the Hungarian
// algorithm. Rounds continue until no new pair is discovered.

#ifndef RDFALIGN_CORE_OVERLAP_ALIGN_H_
#define RDFALIGN_CORE_OVERLAP_ALIGN_H_

#include <vector>

#include "core/overlap.h"
#include "core/partition.h"
#include "core/propagate.h"
#include "core/weighted_partition.h"
#include "rdf/merge.h"

namespace rdfalign {

/// Tuning of the overlap alignment.
struct OverlapAlignOptions {
  /// Similarity threshold θ (Fig. 15 sweeps this; 0.65 maximizes exact
  /// matches in the paper's GtoPdb study).
  double theta = 0.65;
  /// Weight-propagation stabilization.
  PropagateOptions propagate;
  /// Safety cap on enrichment rounds.
  size_t max_rounds = 100;
  /// Candidate-generation variant (see overlap.h).
  OverlapMatchOptions match;
  /// Worker threads for the postings sorts, candidate probing, and class
  /// side scans (Aligner wires RefinementOptions::threads in here). Output
  /// is bit-identical for any value; 1 keeps every phase on this thread.
  size_t threads = 1;
};

/// Outcome of Algorithm 2.
struct OverlapAlignResult {
  WeightedPartition xi;               ///< ξ_Overlap
  size_t rounds = 0;                  ///< enrichment rounds executed
  size_t literal_matches = 0;         ///< |H0|
  size_t nonliteral_matches = 0;      ///< Σ|Hi|, i >= 1
  std::vector<OverlapMatchStats> round_stats;

  // Wall-clock phase breakdown of this run, milliseconds (summed across
  // rounds; feeds AlignmentOutcome::phases).
  double refine_ms = 0;   ///< base λ_Hybrid fixpoint (ξ0)
  double enrich_ms = 0;   ///< Enrich + Propagate
  double index_ms = 0;    ///< characterizing sets + inverted-index builds
  double match_ms = 0;    ///< candidate probing + σ verification
};

/// σNL_ξ(n,m): the §4.7 distance on non-literal nodes — out-edges grouped
/// by color pair, same-color edges coupled by weight rank, uncoupled edges
/// costing 1, normalized by the larger out-degree. Exposed for tests.
double SigmaNonLiteral(const TripleGraph& g, const WeightedPartition& xi,
                       NodeId n, NodeId m);

/// out-color_ξ(n) as sorted unique packed (λ(p), λ(o)) pairs. Exposed for
/// tests.
std::vector<uint64_t> OutColorSet(const TripleGraph& g,
                                  const WeightedPartition& xi, NodeId n);

/// Streams out-color_ξ(n) into `sets` — the CSR equivalent of OutColorSet,
/// used by the alignment rounds and the pipeline bench (which must exercise
/// this exact production build, not a copy).
void AppendOutColorSet(const TripleGraph& g, const WeightedPartition& xi,
                       NodeId n, CharacterizingSets& sets);

/// Runs Algorithm 2 on the combined graph. When `hybrid` is non-null it is
/// used as the ξ0 base partition (callers that already computed λ_Hybrid
/// avoid recomputation); otherwise λ_Hybrid is computed internally.
OverlapAlignResult OverlapAlign(const CombinedGraph& cg,
                                const OverlapAlignOptions& options = {},
                                const Partition* hybrid = nullptr);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_OVERLAP_ALIGN_H_
