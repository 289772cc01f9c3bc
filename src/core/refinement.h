// The partition-refinement engine (§3.2, Definitions 3 & 4).
//
// One refinement step recolors every node n in a chosen subset X with the
// hash-consed signature
//     recolor_λ(n) = (λ(n), { (λ(p), λ(o)) | (p,o) ∈ out_G(n) })      (1)
// while nodes outside X keep their color (2). The fixpoint driver iterates
// until the induced equivalence stops changing; because a step only splits
// classes, the fixpoint is detected by a stable class count.
//
// This is the paper's "derivation tree as a DAG with simple hashing": a
// dense ColorId stands for the whole derivation tree rooted at the node.
//
// Every fixpoint function runs the incremental worklist engine
// (core/worklist_engine.h). After the first pass over X, only nodes with an
// out-neighbor whose color changed in the previous round are re-signed;
// every other node keeps its color with zero work. Signatures are consed
// through a 64-bit hash into a shared arena with collision verification,
// so steady-state rounds perform no per-node heap allocation. Signing runs
// on the calling thread. See docs/refinement.md for the invariants; the
// full-rescan step the engine replaced lives on as a test oracle in
// tests/oracle/.

#ifndef RDFALIGN_CORE_REFINEMENT_H_
#define RDFALIGN_CORE_REFINEMENT_H_

#include <vector>

#include "core/partition.h"
#include "rdf/graph.h"

namespace rdfalign {

/// Worker settings of an alignment run (AlignerOptions::refinement).
struct RefinementOptions {
  /// Pool lanes Aligner uses for the merge, the alignment statistics and
  /// the overlap kernels (OverlapAlignOptions::threads); 0 = one lane per
  /// hardware thread. The refinement fixpoints themselves always sign on
  /// the calling thread. Any setting yields bit-identical results.
  size_t threads = 1;
};

/// Telemetry of a refinement run.
struct RefinementStats {
  size_t iterations = 0;      ///< steps executed (incl. the stabilizing one)
  size_t final_classes = 0;   ///< classes in the fixpoint partition
  size_t initial_classes = 0; ///< classes in the input partition
  /// Nodes re-signed per iteration (the worklist sizes).
  std::vector<size_t> dirty_per_iteration;
  /// Total bytes of signature words built while signing nodes (counted per
  /// re-signing, including signatures deduplicated by the cons table — a
  /// measure of signing work, not of cons-table memory).
  size_t signature_bytes = 0;

  /// Sum of dirty_per_iteration: total node re-signings performed.
  size_t TotalDirty() const {
    size_t total = 0;
    for (size_t d : dirty_per_iteration) total += d;
    return total;
  }
};

/// Fixpoint refinement BisimRefine*_X(λ) (Definition 4): recolors the nodes
/// in X by signature until the partition stabilizes; all other nodes keep
/// their class. X entries must be valid node ids of `g`.
Partition BisimRefineFixpoint(const TripleGraph& g, Partition initial,
                              const std::vector<NodeId>& x,
                              RefinementStats* stats = nullptr);

/// Blank(λ, X): resets the color of every node in X to one shared fresh
/// "blank" color (eq. 3) — the precursor of the hybrid alignment and of
/// weighted propagation.
Partition BlankColors(const Partition& p, const std::vector<NodeId>& x);

// --- key-restricted refinement (§6 future work) ----------------------------
//
// "variants of our approach where only selected parts of the outbound
//  neighborhood are used, for instance specified by a notion of a key for
//  graph databases, possibly allowing to align nodes of graphs following
//  different structure."
//
// A *graph key* is a set of predicates; keyed refinement identifies a node
// by the key attributes only, so nodes agreeing on the key align even when
// their non-key attributes changed.

/// Builds a per-node mask marking the nodes whose URI label is one of
/// `predicate_uris` (the key predicates).
std::vector<uint8_t> BuildPredicateMask(
    const TripleGraph& g, const std::vector<std::string>& predicate_uris);

/// Keyed fixpoint: as BisimRefineFixpoint, but only out-pairs whose
/// predicate node is marked in `predicate_mask` enter the signature.
Partition BisimRefineFixpointKeyed(const TripleGraph& g, Partition initial,
                                   const std::vector<NodeId>& x,
                                   const std::vector<uint8_t>& predicate_mask,
                                   RefinementStats* stats = nullptr);

}  // namespace rdfalign

#endif  // RDFALIGN_CORE_REFINEMENT_H_
