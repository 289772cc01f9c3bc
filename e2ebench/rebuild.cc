#include "rebuild.h"

#include "core/delta.h"
#include "core/hybrid.h"
#include "core/overlap_align.h"
#include "rdf/merge.h"
#include "rdf/term.h"
#include "service/json.h"
#include "service/snapshot_cache.h"
#include "service/verbs.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "util/thread_pool.h"

namespace e2ebench {

using rdfalign::AlignMethod;
using rdfalign::CombinedGraph;
using rdfalign::Dictionary;
using rdfalign::Partition;
using rdfalign::Result;
using rdfalign::Status;
using rdfalign::TripleGraph;
using rdfalign::service::GraphSource;
using rdfalign::service::JsonBuf;
using rdfalign::service::JsonEscape;
using rdfalign::service::LoadedGraph;
using rdfalign::service::LoadedGraphRef;

// ------------------------------------------------------------------ Tracer

double Tracer::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  if (open_ < 0) ++request_;
  spans_.push_back(Span{name, NowMs(), 0, open_, request_, probe_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int span) {
  spans_[span].end_ms = NowMs();
  open_ = spans_[span].parent;
}

void Tracer::Count(const std::string& name, double value) {
  counters_.push_back(Counter{name, value, open_});
}

// ------------------------------------------------------------------- Scrub

namespace {

bool IsVolatileKey(const std::string& key) {
  const bool ms = key.size() > 3 && key.compare(key.size() - 3, 3, "_ms") == 0;
  return ms || key == "align_seconds" || key == "threads" || key == "session";
}

/// End of the JSON string starting at body[i] == '"' (index of the
/// closing quote).
size_t StringEnd(const std::string& body, size_t i) {
  for (size_t j = i + 1; j < body.size(); ++j) {
    if (body[j] == '\\') {
      ++j;
    } else if (body[j] == '"') {
      return j;
    }
  }
  return body.size() - 1;
}

}  // namespace

std::string Scrub(const std::string& body) {
  std::string out;
  out.reserve(body.size());
  size_t i = 0;
  while (i < body.size()) {
    if (body[i] != '"') {
      out += body[i++];
      continue;
    }
    const size_t end = StringEnd(body, i);
    const std::string key = body.substr(i + 1, end - i - 1);
    out.append(body, i, end + 1 - i);
    i = end + 1;
    if (body.compare(i, 2, ": ") != 0 || !IsVolatileKey(key)) continue;
    out += ": _";
    i += 2;
    if (i < body.size() && body[i] == '"') {
      i = StringEnd(body, i) + 1;
    } else {
      while (i < body.size() && body[i] != ',' && body[i] != '}' &&
             body[i] != '\n') {
        ++i;
      }
    }
  }
  return out;
}

// ------------------------------------------------------- acquire + rebind

namespace {

rdfalign::service::CommonOptions Common(const RequestFlags& flags) {
  rdfalign::service::CommonOptions common;
  common.threads = flags.threads;
  common.use_mmap = flags.mmap;
  common.json = true;
  return common;
}

/// GraphSource::Acquire as the verb sees it. A cache source is one call
/// (hit or miss); a direct load is LoadGraphFile's steps for a snapshot.
Result<LoadedGraphRef> Acquire(Tracer* t, GraphSource* source,
                               const std::string& path,
                               const RequestFlags& flags) {
  const rdfalign::service::CommonOptions common = Common(flags);
  if (source->cache() != nullptr) {
    Scope s(t, "service.cache_acquire");
    RDFALIGN_ASSIGN_OR_RETURN(rdfalign::service::AcquiredGraph g,
                              source->Acquire(path, common, false));
    t->Count("service.cache_hit", g.cache_hit ? 1 : 0);
    return g.loaded;
  }
  auto loaded = std::make_shared<LoadedGraph>();
  {
    Scope s(t, "store.load_snapshot");
    if (!rdfalign::store::LooksLikeSnapshot(path)) {
      return Status::InvalidArgument("not a snapshot: " + path);
    }
    loaded->kind = flags.mmap ? "snapshot(mmap)" : "snapshot";
    rdfalign::store::SnapshotLoadOptions options;
    options.use_mmap = flags.mmap;
    options.verify_checksums = common.verify_checksums;
    rdfalign::store::SnapshotLoadStats stats;
    RDFALIGN_ASSIGN_OR_RETURN(
        loaded->graph,
        rdfalign::store::LoadSnapshot(path, nullptr, options, &stats));
    t->Count("store.load_bytes", static_cast<double>(stats.file_bytes));
  }
  {
    Scope s(t, "service.loaded_graph_bytes");
    loaded->resident_bytes =
        rdfalign::service::LoadedGraphBytes(loaded->graph);
  }
  t->Count("service.cache_hit", 0);
  return LoadedGraphRef(std::move(loaded));
}

TripleGraph Rebind(Tracer* t, const LoadedGraphRef& g,
                   const std::shared_ptr<Dictionary>& dict) {
  Scope s(t, "service.rebind");
  const size_t before = dict->size();
  TripleGraph out = rdfalign::service::RebindGraph(g, dict);
  t->Count("service.rebind_terms", static_cast<double>(dict->size() - before));
  return out;
}

rdfalign::RefinementOptions Refinement(const RequestFlags& flags) {
  rdfalign::RefinementOptions options;
  options.threads = flags.threads;
  return options;
}

Result<CombinedGraph> Merge(Tracer* t, const TripleGraph& a,
                            const TripleGraph& b, size_t workers) {
  Scope s(t, "rdf.merge");
  return CombinedGraph::Build(a, b, workers);
}

Partition Hybrid(Tracer* t, const CombinedGraph& cg, const RequestFlags& flags,
                 rdfalign::RefinementStats* stats) {
  Scope s(t, "core.refine");
  Partition p = rdfalign::HybridPartition(cg, stats, Refinement(flags));
  t->Count("core.refine_rounds", static_cast<double>(stats->iterations));
  t->Count("core.final_classes", static_cast<double>(stats->final_classes));
  return p;
}

void Stats(Tracer* t, const CombinedGraph& cg, const Partition& p,
           size_t workers, rdfalign::EdgeAlignmentStats* edge,
           rdfalign::NodeAlignmentStats* node) {
  {
    Scope s(t, "core.edge_stats");
    *edge = rdfalign::ComputeEdgeAlignment(cg, p, workers);
  }
  Scope s(t, "core.node_stats");
  *node = rdfalign::ComputeNodeAlignment(cg, p, workers);
}

template <typename Render, typename Response>
std::string RenderBody(Tracer* t, Render render, const Response& resp) {
  Scope s(t, "service.render");
  std::string body = render(resp);
  t->Count("service.response_bytes", static_cast<double>(body.size()));
  return body;
}

/// The graphs a request holds. The verb frees its locals when it
/// returns; the rebuild frees them inside a span so that cost is
/// attributed too.
struct Held {
  std::shared_ptr<Dictionary> dict = std::make_shared<Dictionary>();
  LoadedGraphRef la, lb;
  TripleGraph a, b, next;
  CombinedGraph cg;
  Partition partition;
};

void Release(Tracer* t, std::unique_ptr<Held>* held) {
  Scope s(t, "service.release");
  held->reset();
}

}  // namespace

// ------------------------------------------------------------------- align

Result<std::string> TracedAlign(Tracer* t, GraphSource* source,
                                const std::string& a, const std::string& b,
                                AlignMethod method,
                                const RequestFlags& flags) {
  Scope request(t, "verb.align");
  const size_t workers = rdfalign::ResolveThreads(flags.threads);
  rdfalign::service::AlignResponse resp;
  resp.method = method;
  resp.threads = workers;
  resp.path_a = a;
  resp.path_b = b;

  // One shared dictionary puts both versions in one label space.
  auto h = std::make_unique<Held>();
  RDFALIGN_ASSIGN_OR_RETURN(h->la, Acquire(t, source, a, flags));
  h->a = Rebind(t, h->la, h->dict);
  resp.kind_a = h->la->kind;
  resp.nodes_a = h->a.NumNodes();
  resp.triples_a = h->a.NumEdges();
  RDFALIGN_ASSIGN_OR_RETURN(h->lb, Acquire(t, source, b, flags));
  h->b = Rebind(t, h->lb, h->dict);
  resp.kind_b = h->lb->kind;
  resp.nodes_b = h->b.NumNodes();
  resp.triples_b = h->b.NumEdges();

  RDFALIGN_ASSIGN_OR_RETURN(h->cg, Merge(t, h->a, h->b, workers));
  if (method == AlignMethod::kOverlap) {
    // Aligner::AlignCombined leaves the refinement stats empty here.
    Scope s(t, "core.overlap");
    rdfalign::OverlapAlignOptions options;
    options.propagate.refinement = Refinement(flags);
    options.threads = workers;
    h->partition = rdfalign::OverlapAlign(h->cg, options).xi.partition;
  } else if (method == AlignMethod::kHybrid) {
    h->partition = Hybrid(t, h->cg, flags, &resp.refinement);
  } else {
    return Status::InvalidArgument("rebuild supports hybrid and overlap");
  }
  Stats(t, h->cg, h->partition, workers, &resp.edge_stats, &resp.node_stats);
  std::string body = RenderBody(t, rdfalign::service::AlignToJson, resp);
  Release(t, &h);
  return body;
}

// -------------------------------------------------------------------- diff

Result<std::string> TracedDiff(Tracer* t, GraphSource* source,
                               const std::string& base,
                               const std::string& next,
                               const std::string& out,
                               const RequestFlags& flags) {
  Scope request(t, "verb.diff");
  const size_t workers = rdfalign::ResolveThreads(flags.threads);
  rdfalign::service::DiffResponse resp;
  resp.method = AlignMethod::kHybrid;
  resp.threads = workers;
  resp.path_base = base;
  resp.path_next = next;
  resp.path_out = out;

  auto h = std::make_unique<Held>();
  RDFALIGN_ASSIGN_OR_RETURN(h->la, Acquire(t, source, base, flags));
  h->a = Rebind(t, h->la, h->dict);
  resp.kind_base = h->la->kind;
  resp.nodes_base = h->a.NumNodes();
  resp.triples_base = h->a.NumEdges();
  RDFALIGN_ASSIGN_OR_RETURN(h->lb, Acquire(t, source, next, flags));
  h->b = Rebind(t, h->lb, h->dict);
  resp.kind_next = h->lb->kind;
  resp.nodes_next = h->b.NumNodes();
  resp.triples_next = h->b.NumEdges();

  // RunDiff runs Aligner::AlignCombined, which computes the statistics
  // too even though diff does not render them.
  RDFALIGN_ASSIGN_OR_RETURN(h->cg, Merge(t, h->a, h->b, workers));
  rdfalign::RefinementStats refinement;
  h->partition = Hybrid(t, h->cg, flags, &refinement);
  rdfalign::EdgeAlignmentStats edge;
  rdfalign::NodeAlignmentStats node;
  Stats(t, h->cg, h->partition, workers, &edge, &node);
  rdfalign::VersionNodeMap map;
  {
    Scope s(t, "core.node_map");
    map = rdfalign::NodeMapFromPartition(h->cg, h->partition);
  }
  {
    Scope s(t, "store.write_delta");
    RDFALIGN_RETURN_IF_ERROR(rdfalign::store::WriteDelta(
        h->a, h->b, map, out, &resp.stats, {.compress_dict = true}));
    t->Count("store.delta_bytes", static_cast<double>(resp.stats.file_bytes));
  }
  std::string body = RenderBody(t, rdfalign::service::DiffToJson, resp);
  Release(t, &h);
  return body;
}

// ------------------------------------------------------------------- patch

Result<std::string> TracedPatch(Tracer* t, GraphSource* source,
                                const std::string& base,
                                const std::string& delta,
                                const std::string& out,
                                const RequestFlags& flags,
                                uint64_t* fingerprint) {
  Scope request(t, "verb.patch");
  const size_t workers = rdfalign::ResolveThreads(flags.threads);
  rdfalign::service::PatchResponse resp;
  resp.threads = workers;
  resp.path_base = base;
  resp.path_delta = delta;
  resp.path_out = out;

  auto h = std::make_unique<Held>();
  RDFALIGN_ASSIGN_OR_RETURN(h->la, Acquire(t, source, base, flags));
  h->a = Rebind(t, h->la, h->dict);
  resp.kind_base = h->la->kind;
  resp.nodes_base = h->a.NumNodes();
  resp.triples_base = h->a.NumEdges();
  {
    Scope s(t, "store.apply_delta");
    rdfalign::store::DeltaApplyOptions options;
    options.threads = workers;
    RDFALIGN_ASSIGN_OR_RETURN(
        h->next, rdfalign::store::ApplyDelta(h->a, delta, h->dict, options,
                                             &resp.stats));
  }
  resp.nodes = h->next.NumNodes();
  resp.triples = h->next.NumEdges();
  {
    Scope s(t, "store.write_snapshot");
    RDFALIGN_RETURN_IF_ERROR(rdfalign::store::WriteSnapshot(
        h->next, out, {.compress_dict = true}));
  }
  std::string body = RenderBody(t, rdfalign::service::PatchToJson, resp);
  {
    // The benchmark's own check, not part of the verb: spans named
    // bench.* are taken out of the request's wall time.
    Scope s(t, "bench.fingerprint");
    *fingerprint = rdfalign::store::GraphFingerprint(h->next);
  }
  Release(t, &h);
  return body;
}

// ------------------------------------------------------------------ stream
//
// The stream renderers are private to service/stream_verbs.cc; these are
// copies of their --json forms. The benchmark compares every rebuilt body
// with the verb's own, so a change to either shows up as a mismatch.

namespace {

void AppendPairs(JsonBuf* b, const char* key,
                 const std::vector<rdfalign::stream::LabeledPair>& pairs,
                 bool trailing_comma) {
  b->Appendf("  \"%s\": [\n", key);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const rdfalign::stream::LabeledPair& p = pairs[i];
    b->Appendf(
        "    {\"src\": \"%s\", \"src_kind\": \"%s\", \"tgt\": \"%s\", "
        "\"tgt_kind\": \"%s\"}%s\n",
        JsonEscape(p.src_lex).c_str(),
        std::string(rdfalign::TermKindToString(p.src_kind)).c_str(),
        JsonEscape(p.tgt_lex).c_str(),
        std::string(rdfalign::TermKindToString(p.tgt_kind)).c_str(),
        i + 1 < pairs.size() ? "," : "");
  }
  b->Appendf("  ]%s\n", trailing_comma ? "," : "");
}

}  // namespace

Result<std::string> TracedStream::Open(const std::string& src,
                                       const std::string& tgt,
                                       const RequestFlags& flags) {
  Scope request(t_, "verb.stream_open");
  flags_ = flags;
  source_path_ = src;
  fragments_ = pairs_added_total_ = pairs_removed_total_ = 0;
  auto h = std::make_unique<Held>();
  RDFALIGN_ASSIGN_OR_RETURN(h->la, Acquire(t_, source_, src, flags));
  h->a = Rebind(t_, h->la, h->dict);
  RDFALIGN_ASSIGN_OR_RETURN(h->lb, Acquire(t_, source_, tgt, flags));
  h->b = Rebind(t_, h->lb, h->dict);
  {
    Scope s(t_, "stream.open");
    rdfalign::stream::StreamOptions options;
    options.method = AlignMethod::kDeblank;
    options.threads = flags.threads;
    RDFALIGN_ASSIGN_OR_RETURN(
        aligner_, rdfalign::stream::StreamAligner::Open(h->a, h->b, options));
  }
  Release(t_, &h);
  Scope s(t_, "service.render");
  const rdfalign::stream::StreamAligner& a = *aligner_;
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"stream\": \"open\",\n");
  b.Appendf("  \"session\": \"-\",\n");
  b.Appendf("  \"source\": \"%s\",\n", JsonEscape(src).c_str());
  b.Appendf("  \"target\": \"%s\",\n", JsonEscape(tgt).c_str());
  b.Appendf("  \"method\": \"deblank\",\n");
  b.Appendf("  \"threads\": %zu,\n", a.options().threads);
  b.Appendf("  \"source_nodes\": %u,\n", a.graph().n1());
  b.Appendf("  \"live_nodes\": %zu,\n", a.graph().NumLiveNodes());
  b.Appendf("  \"target_triples\": %zu,\n", a.graph().NumTargetTriples());
  b.Appendf("  \"iterations\": %zu,\n", a.open_stats().iterations);
  b.Appendf("  \"classes\": %zu,\n", a.open_stats().final_classes);
  b.Appendf("  \"pairs\": %zu\n", a.CurrentPairs().size());
  b.Appendf("}\n");
  t_->Count("service.response_bytes", static_cast<double>(b.str().size()));
  return b.Take();
}

Result<std::string> TracedStream::Push(const std::string& fragment) {
  Scope request(t_, "verb.stream_push");
  if (aligner_ == nullptr) return Status::InvalidArgument("no open session");
  rdfalign::store::UpdateBatch batch;
  {
    Scope s(t_, "store.decode_fragment");
    RDFALIGN_ASSIGN_OR_RETURN(
        batch, rdfalign::store::DecodeUpdateBatch(fragment, "stream push"));
    t_->Count("store.fragment_bytes", static_cast<double>(fragment.size()));
  }
  rdfalign::stream::StreamBatchResult r;
  {
    Scope s(t_, "stream.apply");
    RDFALIGN_ASSIGN_OR_RETURN(r, aligner_->Apply(batch));
    t_->Count("stream.dirty_total", static_cast<double>(r.dirty_total));
    t_->Count("stream.refined", r.refined ? 1 : 0);
    t_->Count("stream.updates",
              static_cast<double>(r.applied_adds + r.applied_removes));
  }
  ++fragments_;
  pairs_added_total_ += r.added_pairs.size();
  pairs_removed_total_ += r.removed_pairs.size();
  Scope s(t_, "service.render");
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"stream\": \"push\",\n");
  b.Appendf("  \"sequence\": %llu,\n", (unsigned long long)r.sequence);
  b.Appendf("  \"applied_adds\": %zu,\n", r.applied_adds);
  b.Appendf("  \"ignored_adds\": %zu,\n", r.ignored_adds);
  b.Appendf("  \"applied_removes\": %zu,\n", r.applied_removes);
  b.Appendf("  \"ignored_removes\": %zu,\n", r.ignored_removes);
  b.Appendf("  \"new_nodes\": %zu,\n", r.new_nodes);
  b.Appendf("  \"removed_nodes\": %zu,\n", r.removed_nodes);
  b.Appendf("  \"refined\": %s,\n", r.refined ? "true" : "false");
  b.Appendf("  \"iterations\": %zu,\n", r.iterations);
  b.Appendf("  \"dirty_total\": %zu,\n", r.dirty_total);
  AppendPairs(&b, "removed_pairs", r.removed_pairs, true);
  AppendPairs(&b, "added_pairs", r.added_pairs, true);
  b.Appendf("  \"apply_ms\": %.3f,\n", r.apply_ms);
  b.Appendf("  \"refine_ms\": %.3f,\n", r.refine_ms);
  b.Appendf("  \"delta_ms\": %.3f\n", r.delta_ms);
  b.Appendf("}\n");
  t_->Count("service.response_bytes", static_cast<double>(b.str().size()));
  return b.Take();
}

Result<std::string> TracedStream::Check(const std::string& final_target) {
  Scope request(t_, "verb.stream_check");
  if (aligner_ == nullptr) return Status::InvalidArgument("no open session");
  auto h = std::make_unique<Held>();
  RDFALIGN_ASSIGN_OR_RETURN(h->la, Acquire(t_, source_, source_path_, flags_));
  h->a = Rebind(t_, h->la, h->dict);
  RDFALIGN_ASSIGN_OR_RETURN(h->lb, Acquire(t_, source_, final_target, flags_));
  h->b = Rebind(t_, h->lb, h->dict);
  rdfalign::stream::StreamCheckResult check;
  {
    Scope s(t_, "stream.check");
    RDFALIGN_ASSIGN_OR_RETURN(check,
                              aligner_->CheckBatchEquivalence(h->a, h->b));
  }
  Release(t_, &h);
  Scope s(t_, "service.render");
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"stream\": \"check\",\n");
  b.Appendf("  \"equivalent\": true,\n");
  b.Appendf("  \"live_nodes\": %zu,\n", check.live_nodes);
  b.Appendf("  \"classes\": %zu\n", check.classes);
  b.Appendf("}\n");
  t_->Count("service.response_bytes", static_cast<double>(b.str().size()));
  return b.Take();
}

std::string TracedStream::Close() {
  Scope request(t_, "verb.stream_close");
  {
    Scope s(t_, "stream.close");
    aligner_.reset();
  }
  Scope s(t_, "service.render");
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"stream\": \"close\",\n");
  b.Appendf("  \"fragments\": %llu,\n", (unsigned long long)fragments_);
  b.Appendf("  \"pairs_added_total\": %llu,\n",
            (unsigned long long)pairs_added_total_);
  b.Appendf("  \"pairs_removed_total\": %llu\n",
            (unsigned long long)pairs_removed_total_);
  b.Appendf("}\n");
  t_->Count("service.response_bytes", static_cast<double>(b.str().size()));
  return b.Take();
}

}  // namespace e2ebench
