// StreamAligner: continuous alignment of a live target graph against a
// frozen source version (docs/stream.md).
//
// The aligner keeps one worklist engine alive across update batches
// (store/update_fragment.h) and maintains the alignment partition
// incrementally:
//
//  * Non-blank nodes are classed by label through a persistent registry —
//    (kind, lexical form) -> engine color — so creating a node whose label
//    the partition has seen (including the frozen source side) joins the
//    existing class with zero refinement work, and a genuinely fresh label
//    allocates a fresh singleton class. Non-blank colors never change:
//    under both supported methods their classes are fixed by label alone.
//  * Blank nodes are re-refined only when the batch can actually affect
//    them: some blank's out-neighborhood changed, or a blank was created.
//    kDeblank's initial partition has *one* blank class, so the minimal
//    sound reset region that is closed under that initial partition is all
//    live blanks — they are moved onto one fresh color, seeded dirty, and
//    the engine resumes (RunInPlace) from its persistent state. Rounds
//    re-sign only dirty blanks, exactly the machinery the batch path uses,
//    and a batch touching no blank skips the engine entirely. The
//    "characterizing set" exact-maintenance alternative (Luo et al.,
//    arXiv:1210.0748) is named future work in docs/stream.md.
//
// Supported methods: kTrivial and kDeblank. kHybrid and above derive their
// refinable set X from a completed deblank pass, which has no incremental
// form here yet.
//
// Batch-equivalence contract: after any update sequence, the live
// partition and the cumulatively applied alignment-pair deltas are
// bit-identical (after dense renumbering) to running the batch aligner on
// the final versions — CheckBatchEquivalence pins it; tests/stream_test.cc
// enforces it after every batch (random chains and the category
// generator), and e2ebench's stream_push workload checks it end to end.

#ifndef RDFALIGN_STREAM_STREAM_ALIGNER_H_
#define RDFALIGN_STREAM_STREAM_ALIGNER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aligner.h"
#include "core/partition.h"
#include "core/worklist_engine.h"
#include "store/update_fragment.h"
#include "stream/dynamic_graph.h"
#include "util/result.h"

namespace rdfalign::stream {

/// One aligned pair by node label, the stable identity deltas are emitted
/// in (stream node ids are meaningless to consumers).
struct LabeledPair {
  TermKind src_kind;
  TermKind tgt_kind;
  std::string src_lex;
  std::string tgt_lex;

  friend bool operator==(const LabeledPair& a, const LabeledPair& b) {
    return a.src_kind == b.src_kind && a.tgt_kind == b.tgt_kind &&
           a.src_lex == b.src_lex && a.tgt_lex == b.tgt_lex;
  }
  friend bool operator<(const LabeledPair& a, const LabeledPair& b) {
    if (a.src_kind != b.src_kind) return a.src_kind < b.src_kind;
    if (a.src_lex != b.src_lex) return a.src_lex < b.src_lex;
    if (a.tgt_kind != b.tgt_kind) return a.tgt_kind < b.tgt_kind;
    return a.tgt_lex < b.tgt_lex;
  }
};

/// Outcome of applying one update batch.
struct StreamBatchResult {
  uint64_t sequence = 0;
  size_t applied_adds = 0;
  size_t ignored_adds = 0;  ///< already-present triples (set semantics)
  size_t applied_removes = 0;
  size_t ignored_removes = 0;  ///< already-absent triples
  size_t new_nodes = 0;
  size_t removed_nodes = 0;
  /// True when the batch could affect blank classes and the engine ran.
  bool refined = false;
  size_t iterations = 0;
  size_t dirty_total = 0;  ///< node re-signings across the resumed rounds
  /// The alignment delta: pairs that stopped/started holding. Sorted,
  /// disjoint. Applying every delta in sequence to the open-time pair set
  /// reproduces CurrentPairs() exactly.
  std::vector<LabeledPair> removed_pairs;
  std::vector<LabeledPair> added_pairs;
  double apply_ms = 0;
  double refine_ms = 0;
  double delta_ms = 0;
};

struct StreamOptions {
  AlignMethod method = AlignMethod::kDeblank;
  /// Pool lanes for building the overlay graph and the batch check's
  /// combined graph (0 = hardware threads). Refinement signs serially.
  size_t threads = 1;
};

/// Summary of a batch-equivalence check.
struct StreamCheckResult {
  size_t live_nodes = 0;
  size_t classes = 0;
};

class StreamAligner {
 public:
  /// Opens a stream session: builds the combined overlay graph and runs
  /// the method's initial fixpoint. `source` and `target` must share one
  /// Dictionary.
  static Result<std::unique_ptr<StreamAligner>> Open(
      const TripleGraph& source, const TripleGraph& target,
      const StreamOptions& options);

  /// Applies one update batch and returns the alignment delta. Errors
  /// (unresolvable or duplicate node references, RDF-positional
  /// violations, retiring a still-referenced node) can leave the session
  /// state partially updated: treat any error as fatal to the session.
  Result<StreamBatchResult> Apply(const store::UpdateBatch& batch);

  /// The current alignment as labeled pairs, sorted (see LabeledPair).
  std::vector<LabeledPair> CurrentPairs() const;

  /// Verifies the live partition against a from-scratch batch alignment of
  /// (batch_source, batch_target) — the final versions after every applied
  /// update. The two graphs must share a Dictionary with each other (not
  /// necessarily with this session); nodes are matched by label. Returns
  /// the check summary or an error describing the first divergence.
  Result<StreamCheckResult> CheckBatchEquivalence(
      const TripleGraph& batch_source, const TripleGraph& batch_target) const;

  const DynamicGraph& graph() const { return *graph_; }
  const StreamOptions& options() const { return options_; }
  /// Engine-side class count upper bound (includes emptied classes).
  size_t NumColorsAllocated() const { return engine_->next_color(); }
  /// Statistics of the open-time initial fixpoint.
  const RefinementStats& open_stats() const { return open_stats_; }
  uint64_t batches_applied() const { return batches_applied_; }

 private:
  using Engine = internal::WorklistEngine<DynamicGraph>;

  StreamAligner(const StreamOptions& options) : options_(options) {}

  LabeledPair MakePair(NodeId src, NodeId tgt) const;
  /// All (source blank, target blank) equal-color pairs over live blanks,
  /// sorted by (src id, tgt id).
  std::vector<std::pair<NodeId, NodeId>> BlankPairs() const;
  /// Equal-color source partners of a non-blank node's color.
  void AppendStaticPartners(NodeId tgt, ColorId color,
                            std::vector<LabeledPair>* out) const;

  StreamOptions options_;
  std::unique_ptr<DynamicGraph> graph_;
  std::unique_ptr<Engine> engine_;
  RefinementStats open_stats_;

  /// Persistent non-blank label registry: (kind, LexId) -> engine color.
  std::unordered_map<uint64_t, ColorId> label_color_;
  /// Source-side non-blank members per engine color (source colors are
  /// fixed for the session).
  std::unordered_map<ColorId, std::vector<NodeId>> src_nonblank_by_color_;
  /// Every blank node id ever live (source + target + appended); dead ones
  /// are filtered on use.
  std::vector<NodeId> blank_nodes_;
  uint64_t batches_applied_ = 0;
};

}  // namespace rdfalign::stream

#endif  // RDFALIGN_STREAM_STREAM_ALIGNER_H_
