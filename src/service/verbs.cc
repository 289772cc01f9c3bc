#include "service/verbs.h"

#include <utility>

#include "core/delta.h"
#include "gen/category_gen.h"
#include "parser/ntriples_parser.h"
#include "parser/ntriples_writer.h"
#include "parser/turtle_parser.h"
#include "rdf/merge.h"
#include "service/json.h"
#include "store/atomic_writer.h"
#include "store/update_fragment.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rdfalign::service {

namespace {

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Result<AlignMethod> ParseMethod(const std::string& name) {
  if (name == "trivial") return AlignMethod::kTrivial;
  if (name == "deblank") return AlignMethod::kDeblank;
  if (name == "hybrid") return AlignMethod::kHybrid;
  if (name == "hybrid-contextual") return AlignMethod::kHybridContextual;
  if (name == "overlap") return AlignMethod::kOverlap;
  return Status::InvalidArgument("unknown alignment method: " + name);
}

/// Fills the usage/message fields for a failed OnlyKnown / positional
/// check (both present as usage errors, message first when set).
bool UsageError(ParseError* error, std::string message = "") {
  if (error) {
    error->usage = true;
    error->message = std::move(message);
  }
  return false;
}

bool PlainError(ParseError* error, std::string message) {
  if (error) {
    error->usage = false;
    error->message = std::move(message);
  }
  return false;
}

/// Aligner options from a parsed request: raw thread count (0 = all
/// hardware threads is the engine's convention) into the refinement and
/// overlap pipelines, exactly as the historical CLI wired it.
AlignerOptions MakeAlignerOptions(AlignMethod method,
                                  const CommonOptions& common) {
  AlignerOptions options;
  options.method = method;
  options.refinement.threads = common.threads;
  options.overlap.propagate.refinement = options.refinement;
  return options;
}

void CountAcquire(const AcquiredGraph& g, uint64_t* hits, uint64_t* misses) {
  if (g.cache_hit) {
    ++*hits;
  } else {
    ++*misses;
  }
}

}  // namespace

// ---------------------------------------------------------------- build

bool ParseBuildRequest(const Args& args, BuildRequest* req,
                       ParseError* error) {
  if (args.positional().size() != 2) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"format", "threads", "json"}, &message)) {
    return UsageError(error, message);
  }
  req->input = args.positional()[0];
  req->output = args.positional()[1];
  req->format = args.GetString("format", "auto");
  if (!ParseCommonFlags(args, "build", &req->common, &message)) {
    return PlainError(error, message);
  }
  if (req->format != "auto" && req->format != "ntriples" &&
      req->format != "turtle") {
    return PlainError(error, "rdfalign: unknown --format=" + req->format);
  }
  return true;
}

Status RunBuild(const BuildRequest& req, BuildResponse* resp) {
  const size_t workers = ResolveThreads(req.common.threads);
  resp->output = req.output;
  resp->threads = workers;

  WallTimer parse_timer;
  Result<TripleGraph> graph = Status::Internal("unreachable");
  if (req.format == "turtle" ||
      (req.format == "auto" && HasSuffix(req.input, ".ttl"))) {
    graph = ParseTurtleFile(req.input, nullptr, workers);
  } else {
    graph = ParseNTriplesFile(req.input, nullptr, nullptr, workers);
  }
  RDFALIGN_RETURN_IF_ERROR(graph.status());
  resp->parse_ms = parse_timer.ElapsedMillis();
  resp->nodes = graph->NumNodes();
  resp->triples = graph->NumEdges();

  WallTimer write_timer;
  RDFALIGN_RETURN_IF_ERROR(store::WriteSnapshot(*graph, req.output));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string BuildToJson(const BuildResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"output\": \"%s\",\n", JsonEscape(r.output).c_str());
  b.Appendf("  \"nodes\": %zu,\n", r.nodes);
  b.Appendf("  \"triples\": %zu,\n", r.triples);
  b.Appendf("  \"threads\": %zu,\n", r.threads);
  b.Appendf("  \"parse_ms\": %.2f,\n", r.parse_ms);
  b.Appendf("  \"write_ms\": %.2f\n", r.write_ms);
  b.Appendf("}\n");
  return b.Take();
}

std::string BuildToText(const BuildResponse& r) {
  JsonBuf b;
  b.Appendf(
      "built %s: %zu nodes, %zu triples (parse %.1f ms, "
      "write %.1f ms, %zu threads)\n",
      r.output.c_str(), r.nodes, r.triples, r.parse_ms, r.write_ms,
      r.threads);
  return b.Take();
}

// ----------------------------------------------------------------- info

bool ParseInfoRequest(const Args& args, InfoRequest* req, ParseError* error) {
  if (args.positional().size() != 1) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"json", "threads", "mmap", "no-verify-checksums"},
                      &message)) {
    return UsageError(error, message);
  }
  req->path = args.positional()[0];
  if (!ParseCommonFlags(args, "info", &req->common, &message)) {
    return PlainError(error, message);
  }
  req->with_fingerprint = req->common.json;
  return true;
}

Status RunInfo(const InfoRequest& req, InfoResponse* resp) {
  resp->path = req.path;
  if (store::LooksLikeDelta(req.path)) {
    resp->kind = "delta";
    RDFALIGN_ASSIGN_OR_RETURN(resp->delta, store::ReadDeltaInfo(req.path));
    resp->has_fingerprint = true;
    resp->fingerprint = resp->delta.base_fingerprint;
    return Status::OK();
  }
  if (store::LooksLikeArchive(req.path)) {
    resp->kind = "archive";
    RDFALIGN_ASSIGN_OR_RETURN(resp->archive,
                              store::ReadArchiveInfo(req.path));
    if (req.with_fingerprint && resp->archive.num_versions > 0) {
      RDFALIGN_ASSIGN_OR_RETURN(resp->fingerprint,
                                store::ArchiveBaseFingerprint(req.path));
      resp->has_fingerprint = true;
    }
    return Status::OK();
  }
  if (store::LooksLikeUpdateFile(req.path)) {
    resp->kind = "update";
    // One read: the reported size is the size of the bytes decoded.
    RDFALIGN_ASSIGN_OR_RETURN(const std::string bytes,
                              store::ReadFileBytes(req.path));
    RDFALIGN_ASSIGN_OR_RETURN(const store::UpdateBatch batch,
                              store::DecodeUpdateBatch(bytes, req.path));
    resp->update.sequence = batch.sequence;
    resp->update.refs = batch.nodes.size();
    resp->update.new_nodes = batch.num_new;
    resp->update.removed_nodes = batch.removed_nodes.size();
    resp->update.removed_triples = batch.removed.size();
    resp->update.added_triples = batch.added.size();
    resp->update.file_bytes = bytes.size();
    return Status::OK();
  }
  // Snapshot, or the error path for files that are no store format at all.
  resp->kind = "snapshot";
  RDFALIGN_ASSIGN_OR_RETURN(resp->snapshot,
                            store::ReadSnapshotInfo(req.path));
  if (req.with_fingerprint) {
    // The fingerprint is a property of the graph content, so the graph is
    // actually loaded — through the daemon's cache this is the resident
    // fast path, in the CLI a one-shot load.
    RDFALIGN_ASSIGN_OR_RETURN(
        AcquiredGraph g, req.source->Acquire(req.path, req.common, true));
    CountAcquire(g, &resp->cache_hits, &resp->cache_misses);
    resp->fingerprint = g.loaded->fingerprint;
    resp->has_fingerprint = true;
  }
  return Status::OK();
}

namespace {

/// The `sections` member of `info --json`, last in every kind's object.
template <typename Section, typename NameFn>
void SectionsToJson(const std::vector<Section>& sections, NameFn name,
                    JsonBuf* b) {
  b->Appendf("  \"sections\": [\n");
  for (size_t i = 0; i < sections.size(); ++i) {
    const Section& s = sections[i];
    b->Appendf(
        "    {\"name\": \"%s\", \"offset\": %llu, \"bytes\": %llu, "
        "\"checksum\": \"%016llx\"}%s\n",
        std::string(name(s.id)).c_str(), (unsigned long long)s.offset,
        (unsigned long long)s.size, (unsigned long long)s.checksum,
        i + 1 < sections.size() ? "," : "");
  }
  b->Appendf("  ]\n");
}

/// The section table of text `info`; `width` pads the kind's longest
/// section name.
template <typename Section, typename NameFn>
void SectionsToText(const std::vector<Section>& sections, NameFn name,
                    int width, JsonBuf* b) {
  b->Appendf("  sections:\n");
  for (const Section& s : sections) {
    b->Appendf("    %-*s offset=%-10llu bytes=%-10llu checksum=%016llx\n",
               width, std::string(name(s.id)).c_str(),
               (unsigned long long)s.offset, (unsigned long long)s.size,
               (unsigned long long)s.checksum);
  }
}

}  // namespace

std::string InfoToJson(const InfoResponse& r) {
  JsonBuf b;
  if (r.kind == "delta") {
    const auto& info = r.delta;
    b.Appendf("{\n");
    b.Appendf("  \"path\": \"%s\",\n", JsonEscape(r.path).c_str());
    b.Appendf("  \"kind\": \"delta\",\n");
    b.Appendf("  \"version\": %u,\n", info.version);
    b.Appendf(
        "  \"base\": {\"nodes\": %llu, \"triples\": %llu, "
        "\"terms\": %llu, \"fingerprint\": \"%016llx\"},\n",
        (unsigned long long)info.base_nodes,
        (unsigned long long)info.base_triples,
        (unsigned long long)info.base_terms,
        (unsigned long long)info.base_fingerprint);
    b.Appendf(
        "  \"next\": {\"nodes\": %llu, \"triples\": %llu, "
        "\"terms\": %llu, \"new_terms\": %llu},\n",
        (unsigned long long)info.next_nodes,
        (unsigned long long)info.next_triples,
        (unsigned long long)info.next_terms,
        (unsigned long long)info.num_new_terms);
    b.Appendf("  \"file_bytes\": %llu,\n",
              (unsigned long long)info.file_size);
    SectionsToJson(info.sections, store::DeltaSectionName, &b);
    b.Appendf("}\n");
    return b.Take();
  }
  if (r.kind == "archive") {
    const auto& info = r.archive;
    b.Appendf("{\n");
    b.Appendf("  \"path\": \"%s\",\n", JsonEscape(r.path).c_str());
    b.Appendf("  \"kind\": \"archive\",\n");
    b.Appendf("  \"version\": %u,\n", info.version);
    b.Appendf("  \"versions\": %llu,\n",
              (unsigned long long)info.num_versions);
    if (r.has_fingerprint) {
      b.Appendf("  \"base_fingerprint\": \"%016llx\",\n",
                (unsigned long long)r.fingerprint);
    }
    b.Appendf("  \"file_bytes\": %llu,\n",
              (unsigned long long)info.file_size);
    SectionsToJson(info.sections, store::ArchiveSectionName, &b);
    b.Appendf("}\n");
    return b.Take();
  }
  if (r.kind == "update") {
    const auto& info = r.update;
    b.Appendf("{\n");
    b.Appendf("  \"path\": \"%s\",\n", JsonEscape(r.path).c_str());
    b.Appendf("  \"kind\": \"update\",\n");
    b.Appendf("  \"sequence\": %llu,\n", (unsigned long long)info.sequence);
    b.Appendf("  \"refs\": %zu,\n", info.refs);
    b.Appendf("  \"new_nodes\": %zu,\n", info.new_nodes);
    b.Appendf("  \"removed_nodes\": %zu,\n", info.removed_nodes);
    b.Appendf("  \"removed_triples\": %zu,\n", info.removed_triples);
    b.Appendf("  \"added_triples\": %zu,\n", info.added_triples);
    b.Appendf("  \"file_bytes\": %llu\n",
              (unsigned long long)info.file_bytes);
    b.Appendf("}\n");
    return b.Take();
  }
  const auto& info = r.snapshot;
  b.Appendf("{\n");
  b.Appendf("  \"path\": \"%s\",\n", JsonEscape(r.path).c_str());
  b.Appendf("  \"version\": %u,\n", info.version);
  b.Appendf("  \"nodes\": %llu,\n", (unsigned long long)info.num_nodes);
  b.Appendf("  \"triples\": %llu,\n", (unsigned long long)info.num_triples);
  b.Appendf("  \"terms\": %llu,\n", (unsigned long long)info.num_terms);
  if (r.has_fingerprint) {
    b.Appendf("  \"fingerprint\": \"%016llx\",\n",
              (unsigned long long)r.fingerprint);
  }
  b.Appendf("  \"file_bytes\": %llu,\n", (unsigned long long)info.file_size);
  SectionsToJson(info.sections, store::SectionName, &b);
  b.Appendf("}\n");
  return b.Take();
}

std::string InfoToText(const InfoResponse& r) {
  JsonBuf b;
  if (r.kind == "delta") {
    const auto& info = r.delta;
    b.Appendf("rdfalign delta %s\n", r.path.c_str());
    b.Appendf("  format version : %u\n", info.version);
    b.Appendf("  base           : %llu nodes, %llu triples, %llu terms\n",
              (unsigned long long)info.base_nodes,
              (unsigned long long)info.base_triples,
              (unsigned long long)info.base_terms);
    b.Appendf("  base fingerprint: %016llx\n",
              (unsigned long long)info.base_fingerprint);
    b.Appendf(
        "  next           : %llu nodes, %llu triples, %llu terms "
        "(%llu new)\n",
        (unsigned long long)info.next_nodes,
        (unsigned long long)info.next_triples,
        (unsigned long long)info.next_terms,
        (unsigned long long)info.num_new_terms);
    b.Appendf("  file size      : %llu bytes\n",
              (unsigned long long)info.file_size);
    SectionsToText(info.sections, store::DeltaSectionName, 16, &b);
    return b.Take();
  }
  if (r.kind == "archive") {
    const auto& info = r.archive;
    b.Appendf("rdfalign archive %s\n", r.path.c_str());
    b.Appendf("  format version : %u\n", info.version);
    b.Appendf("  versions       : %llu\n",
              (unsigned long long)info.num_versions);
    b.Appendf("  file size      : %llu bytes\n",
              (unsigned long long)info.file_size);
    SectionsToText(info.sections, store::ArchiveSectionName, 13, &b);
    return b.Take();
  }
  if (r.kind == "update") {
    const auto& info = r.update;
    b.Appendf("rdfalign update fragment %s\n", r.path.c_str());
    b.Appendf("  sequence       : %llu\n",
              (unsigned long long)info.sequence);
    b.Appendf("  node refs      : %zu (%zu new)\n", info.refs,
              info.new_nodes);
    b.Appendf("  removed        : %zu triples, %zu nodes\n",
              info.removed_triples, info.removed_nodes);
    b.Appendf("  added          : %zu triples\n", info.added_triples);
    b.Appendf("  file size      : %llu bytes\n",
              (unsigned long long)info.file_bytes);
    return b.Take();
  }
  const auto& info = r.snapshot;
  b.Appendf("rdfalign snapshot %s\n", r.path.c_str());
  b.Appendf("  format version : %u\n", info.version);
  b.Appendf("  nodes          : %llu\n", (unsigned long long)info.num_nodes);
  b.Appendf("  triples        : %llu\n",
            (unsigned long long)info.num_triples);
  b.Appendf("  dictionary     : %llu terms\n",
            (unsigned long long)info.num_terms);
  b.Appendf("  file size      : %llu bytes\n",
            (unsigned long long)info.file_size);
  SectionsToText(info.sections, store::SectionName, 12, &b);
  return b.Take();
}

// ---------------------------------------------------------------- align

bool ParseAlignRequest(const Args& args, AlignRequest* req,
                       ParseError* error) {
  if (args.positional().size() != 2) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown(
          {"method", "threads", "mmap", "json", "no-verify-checksums"},
          &message)) {
    return UsageError(error, message);
  }
  req->path_a = args.positional()[0];
  req->path_b = args.positional()[1];
  auto method = ParseMethod(args.GetString("method", "hybrid"));
  if (!method.ok()) {
    return PlainError(error,
                      "rdfalign align: " + method.status().ToString());
  }
  req->method = *method;
  if (!ParseCommonFlags(args, "align", &req->common, &message)) {
    return PlainError(error, message);
  }
  return true;
}

Status RunAlign(const AlignRequest& req, AlignResponse* resp) {
  const AlignerOptions options = MakeAlignerOptions(req.method, req.common);
  const size_t workers = ResolveThreads(req.common.threads);
  resp->method = req.method;
  resp->threads = workers;
  resp->path_a = req.path_a;
  resp->path_b = req.path_b;

  // One shared dictionary puts both versions in a single label space; the
  // acquired graphs (possibly cache-resident, each with a private
  // dictionary) are rebound into it zero-copy.
  auto dict = std::make_shared<Dictionary>();
  WallTimer load_a_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph a, req.source->Acquire(req.path_a, req.common, false));
  CountAcquire(a, &resp->cache_hits, &resp->cache_misses);
  TripleGraph ga = RebindGraph(a.loaded, dict);
  resp->load_a_ms = load_a_timer.ElapsedMillis();
  resp->kind_a = a.loaded->kind;
  resp->nodes_a = ga.NumNodes();
  resp->triples_a = ga.NumEdges();

  WallTimer load_b_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph bg, req.source->Acquire(req.path_b, req.common, false));
  CountAcquire(bg, &resp->cache_hits, &resp->cache_misses);
  TripleGraph gb = RebindGraph(bg.loaded, dict);
  resp->load_b_ms = load_b_timer.ElapsedMillis();
  resp->kind_b = bg.loaded->kind;
  resp->nodes_b = gb.NumNodes();
  resp->triples_b = gb.NumEdges();

  Aligner aligner(options);
  RDFALIGN_ASSIGN_OR_RETURN(AlignmentOutcome o, aligner.Align(ga, gb));
  resp->seconds = o.seconds;
  resp->phases = o.phases;
  resp->edge_stats = o.edge_stats;
  resp->node_stats = o.node_stats;
  resp->refinement = o.refinement;
  return Status::OK();
}

std::string AlignToJson(const AlignResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"method\": \"%s\",\n",
            std::string(AlignMethodToString(r.method)).c_str());
  b.Appendf("  \"threads\": %zu,\n", r.threads);
  b.Appendf(
      "  \"a\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu, \"load_ms\": %.2f},\n",
      JsonEscape(r.path_a).c_str(), r.kind_a.c_str(), r.nodes_a, r.triples_a,
      r.load_a_ms);
  b.Appendf(
      "  \"b\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu, \"load_ms\": %.2f},\n",
      JsonEscape(r.path_b).c_str(), r.kind_b.c_str(), r.nodes_b, r.triples_b,
      r.load_b_ms);
  b.Appendf("  \"align_seconds\": %.4f,\n", r.seconds);
  b.Appendf(
      "  \"phases\": {\"merge_ms\": %.2f, \"refine_ms\": %.2f, "
      "\"enrich_ms\": %.2f, \"overlap_index_ms\": %.2f, "
      "\"match_ms\": %.2f, \"stats_ms\": %.2f},\n",
      r.phases.merge_ms, r.phases.refine_ms, r.phases.enrich_ms,
      r.phases.overlap_index_ms, r.phases.match_ms, r.phases.stats_ms);
  b.Appendf("  \"aligned_edge_ratio\": %.6f,\n", r.edge_stats.Ratio());
  b.Appendf("  \"aligned_edges\": %zu,\n", r.edge_stats.aligned_edges);
  b.Appendf("  \"total_edges\": %zu,\n", r.edge_stats.total_edges);
  b.Appendf("  \"aligned_classes\": %zu,\n", r.node_stats.aligned_classes);
  b.Appendf("  \"unaligned_source_nodes\": %zu,\n",
            r.node_stats.unaligned_source_nodes);
  b.Appendf("  \"unaligned_target_nodes\": %zu,\n",
            r.node_stats.unaligned_target_nodes);
  b.Appendf("  \"refinement_iterations\": %zu,\n", r.refinement.iterations);
  b.Appendf("  \"final_classes\": %zu\n", r.refinement.final_classes);
  b.Appendf("}\n");
  return b.Take();
}

std::string AlignToText(const AlignResponse& r) {
  JsonBuf b;
  b.Appendf("alignment report (%s)\n",
            std::string(AlignMethodToString(r.method)).c_str());
  b.Appendf("  a: %s [%s] %zu nodes, %zu triples, loaded in %.1f ms\n",
            r.path_a.c_str(), r.kind_a.c_str(), r.nodes_a, r.triples_a,
            r.load_a_ms);
  b.Appendf("  b: %s [%s] %zu nodes, %zu triples, loaded in %.1f ms\n",
            r.path_b.c_str(), r.kind_b.c_str(), r.nodes_b, r.triples_b,
            r.load_b_ms);
  b.Appendf("  threads            : %zu\n", r.threads);
  b.Appendf("  align time         : %.3f s\n", r.seconds);
  b.Appendf(
      "  phases (ms)        : merge %.1f, refine %.1f, enrich %.1f,"
      " index %.1f, match %.1f, stats %.1f\n",
      r.phases.merge_ms, r.phases.refine_ms, r.phases.enrich_ms,
      r.phases.overlap_index_ms, r.phases.match_ms, r.phases.stats_ms);
  b.Appendf("  aligned edge ratio : %.4f (%zu / %zu)\n",
            r.edge_stats.Ratio(), r.edge_stats.aligned_edges,
            r.edge_stats.total_edges);
  b.Appendf("  aligned classes    : %zu\n", r.node_stats.aligned_classes);
  b.Appendf("  aligned nodes      : %zu source, %zu target\n",
            r.node_stats.aligned_source_nodes,
            r.node_stats.aligned_target_nodes);
  b.Appendf("  unaligned nodes    : %zu source, %zu target\n",
            r.node_stats.unaligned_source_nodes,
            r.node_stats.unaligned_target_nodes);
  if (r.refinement.iterations > 0) {
    b.Appendf("  refinement         : %zu iterations, %zu classes\n",
              r.refinement.iterations, r.refinement.final_classes);
  }
  return b.Take();
}

// ----------------------------------------------------------------- diff

bool ParseDiffRequest(const Args& args, DiffRequest* req, ParseError* error) {
  if (args.positional().size() != 3) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"method", "threads", "mmap", "json",
                       "no-verify-checksums"},
                      &message)) {
    return UsageError(error, message);
  }
  req->path_base = args.positional()[0];
  req->path_next = args.positional()[1];
  req->path_out = args.positional()[2];
  auto method = ParseMethod(args.GetString("method", "hybrid"));
  if (!method.ok()) {
    return PlainError(error, "rdfalign diff: " + method.status().ToString());
  }
  req->method = *method;
  if (!ParseCommonFlags(args, "diff", &req->common, &message)) {
    return PlainError(error, message);
  }
  return true;
}

Status RunDiff(const DiffRequest& req, DiffResponse* resp) {
  const AlignerOptions options = MakeAlignerOptions(req.method, req.common);
  const size_t workers = ResolveThreads(req.common.threads);
  resp->method = req.method;
  resp->threads = workers;
  resp->path_base = req.path_base;
  resp->path_next = req.path_next;
  resp->path_out = req.path_out;

  auto dict = std::make_shared<Dictionary>();
  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph base,
      req.source->Acquire(req.path_base, req.common, false));
  CountAcquire(base, &resp->cache_hits, &resp->cache_misses);
  TripleGraph gbase = RebindGraph(base.loaded, dict);
  resp->kind_base = base.loaded->kind;
  resp->nodes_base = gbase.NumNodes();
  resp->triples_base = gbase.NumEdges();

  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph next,
      req.source->Acquire(req.path_next, req.common, false));
  CountAcquire(next, &resp->cache_hits, &resp->cache_misses);
  TripleGraph gnext = RebindGraph(next.loaded, dict);
  resp->kind_next = next.loaded->kind;
  resp->nodes_next = gnext.NumNodes();
  resp->triples_next = gnext.NumEdges();

  WallTimer align_timer;
  RDFALIGN_ASSIGN_OR_RETURN(CombinedGraph cg,
                            CombinedGraph::Build(gbase, gnext, workers));
  Aligner aligner(options);
  AlignmentOutcome outcome = aligner.AlignCombined(cg);
  const VersionNodeMap map = NodeMapFromPartition(cg, outcome.partition);
  resp->align_ms = align_timer.ElapsedMillis();

  WallTimer write_timer;
  RDFALIGN_RETURN_IF_ERROR(
      store::WriteDelta(gbase, gnext, map, req.path_out, &resp->stats));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string DiffToJson(const DiffResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"method\": \"%s\",\n",
            std::string(AlignMethodToString(r.method)).c_str());
  b.Appendf("  \"threads\": %zu,\n", r.threads);
  b.Appendf(
      "  \"base\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu},\n",
      JsonEscape(r.path_base).c_str(), r.kind_base.c_str(), r.nodes_base,
      r.triples_base);
  b.Appendf(
      "  \"next\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu},\n",
      JsonEscape(r.path_next).c_str(), r.kind_next.c_str(), r.nodes_next,
      r.triples_next);
  b.Appendf("  \"delta\": \"%s\",\n", JsonEscape(r.path_out).c_str());
  b.Appendf("  \"kept_triples\": %llu,\n",
            (unsigned long long)r.stats.kept_triples);
  b.Appendf("  \"removed_triples\": %llu,\n",
            (unsigned long long)r.stats.removed_triples);
  b.Appendf("  \"added_triples\": %llu,\n",
            (unsigned long long)r.stats.added_triples);
  b.Appendf("  \"new_terms\": %llu,\n",
            (unsigned long long)r.stats.new_terms);
  b.Appendf("  \"mapped_nodes\": %llu,\n",
            (unsigned long long)r.stats.mapped_nodes);
  b.Appendf("  \"kept_runs\": %llu,\n",
            (unsigned long long)r.stats.kept_runs);
  b.Appendf("  \"delta_bytes\": %llu,\n",
            (unsigned long long)r.stats.file_bytes);
  b.Appendf("  \"align_ms\": %.2f,\n", r.align_ms);
  b.Appendf("  \"write_ms\": %.2f\n", r.write_ms);
  b.Appendf("}\n");
  return b.Take();
}

std::string DiffToText(const DiffResponse& r) {
  JsonBuf b;
  b.Appendf("wrote delta %s (%llu bytes)\n", r.path_out.c_str(),
            (unsigned long long)r.stats.file_bytes);
  b.Appendf("  base            : %s [%s] %zu nodes, %zu triples\n",
            r.path_base.c_str(), r.kind_base.c_str(), r.nodes_base,
            r.triples_base);
  b.Appendf("  next            : %s [%s] %zu nodes, %zu triples\n",
            r.path_next.c_str(), r.kind_next.c_str(), r.nodes_next,
            r.triples_next);
  b.Appendf(
      "  change          : ~%llu kept (+%llu -%llu), "
      "%llu new terms\n",
      (unsigned long long)r.stats.kept_triples,
      (unsigned long long)r.stats.added_triples,
      (unsigned long long)r.stats.removed_triples,
      (unsigned long long)r.stats.new_terms);
  b.Appendf("  mapped nodes    : %llu / %zu (%llu kept runs)\n",
            (unsigned long long)r.stats.mapped_nodes, r.nodes_next,
            (unsigned long long)r.stats.kept_runs);
  b.Appendf("  align %.1f ms, write %.1f ms\n", r.align_ms, r.write_ms);
  return b.Take();
}

// ---------------------------------------------------------------- patch

bool ParsePatchRequest(const Args& args, PatchRequest* req,
                       ParseError* error) {
  if (args.positional().size() != 3) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"threads", "mmap", "json", "no-verify-checksums"},
                      &message)) {
    return UsageError(error, message);
  }
  req->path_base = args.positional()[0];
  req->path_delta = args.positional()[1];
  req->path_out = args.positional()[2];
  if (!ParseCommonFlags(args, "patch", &req->common, &message)) {
    return PlainError(error, message);
  }
  return true;
}

Status RunPatch(const PatchRequest& req, PatchResponse* resp) {
  const size_t workers = ResolveThreads(req.common.threads);
  resp->threads = workers;
  resp->path_base = req.path_base;
  resp->path_delta = req.path_delta;
  resp->path_out = req.path_out;

  auto dict = std::make_shared<Dictionary>();
  WallTimer load_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph base,
      req.source->Acquire(req.path_base, req.common, false));
  CountAcquire(base, &resp->cache_hits, &resp->cache_misses);
  TripleGraph gbase = RebindGraph(base.loaded, dict);
  resp->load_ms = load_timer.ElapsedMillis();
  resp->kind_base = base.loaded->kind;
  resp->nodes_base = gbase.NumNodes();
  resp->triples_base = gbase.NumEdges();

  WallTimer apply_timer;
  store::DeltaApplyOptions apply_options;
  apply_options.threads = workers;
  apply_options.verify_checksums = req.common.verify_checksums;
  RDFALIGN_ASSIGN_OR_RETURN(
      TripleGraph next, store::ApplyDelta(gbase, req.path_delta, dict,
                                          apply_options, &resp->stats));
  resp->apply_ms = apply_timer.ElapsedMillis();
  resp->nodes = next.NumNodes();
  resp->triples = next.NumEdges();

  WallTimer write_timer;
  RDFALIGN_RETURN_IF_ERROR(store::WriteSnapshot(next, req.path_out));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string PatchToJson(const PatchResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"threads\": %zu,\n", r.threads);
  b.Appendf(
      "  \"base\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu},\n",
      JsonEscape(r.path_base).c_str(), r.kind_base.c_str(), r.nodes_base,
      r.triples_base);
  b.Appendf("  \"delta\": \"%s\",\n", JsonEscape(r.path_delta).c_str());
  b.Appendf("  \"out\": \"%s\",\n", JsonEscape(r.path_out).c_str());
  b.Appendf("  \"nodes\": %zu,\n", r.nodes);
  b.Appendf("  \"triples\": %zu,\n", r.triples);
  b.Appendf("  \"kept_triples\": %llu,\n",
            (unsigned long long)r.stats.kept_triples);
  b.Appendf("  \"removed_triples\": %llu,\n",
            (unsigned long long)r.stats.removed_triples);
  b.Appendf("  \"added_triples\": %llu,\n",
            (unsigned long long)r.stats.added_triples);
  b.Appendf("  \"load_ms\": %.2f,\n", r.load_ms);
  b.Appendf("  \"apply_ms\": %.2f,\n", r.apply_ms);
  b.Appendf("  \"write_ms\": %.2f\n", r.write_ms);
  b.Appendf("}\n");
  return b.Take();
}

std::string PatchToText(const PatchResponse& r) {
  JsonBuf b;
  b.Appendf(
      "patched %s + %s -> %s: %zu nodes, %zu triples "
      "(~%llu kept +%llu -%llu)\n",
      r.path_base.c_str(), r.path_delta.c_str(), r.path_out.c_str(),
      r.nodes, r.triples, (unsigned long long)r.stats.kept_triples,
      (unsigned long long)r.stats.added_triples,
      (unsigned long long)r.stats.removed_triples);
  b.Appendf("  load %.1f ms, apply %.1f ms, write %.1f ms\n", r.load_ms,
            r.apply_ms, r.write_ms);
  return b.Take();
}

// -------------------------------------------------------------- archive

bool ParseArchiveRequest(const Args& args, ArchiveRequest* req,
                         ParseError* error) {
  if (args.positional().size() < 2) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"method", "threads", "mmap", "json",
                       "no-verify-checksums"},
                      &message)) {
    return UsageError(error, message);
  }
  req->path_out = args.positional()[0];
  req->versions.assign(args.positional().begin() + 1,
                       args.positional().end());
  auto method = ParseMethod(args.GetString("method", "hybrid"));
  if (!method.ok()) {
    return PlainError(error,
                      "rdfalign archive: " + method.status().ToString());
  }
  req->method = *method;
  if (!ParseCommonFlags(args, "archive", &req->common, &message)) {
    return PlainError(error, message);
  }
  return true;
}

Status RunArchive(const ArchiveRequest& req, ArchiveResponse* resp) {
  const AlignerOptions options = MakeAlignerOptions(req.method, req.common);
  const size_t workers = ResolveThreads(req.common.threads);
  resp->method = req.method;
  resp->threads = workers;
  resp->path_out = req.path_out;

  // One shared dictionary across the whole chain (the Append invariant).
  auto dict = std::make_shared<Dictionary>();
  VersionArchive archive(options);
  WallTimer append_timer;
  for (const std::string& path : req.versions) {
    RDFALIGN_ASSIGN_OR_RETURN(AcquiredGraph g,
                              req.source->Acquire(path, req.common, false));
    CountAcquire(g, &resp->cache_hits, &resp->cache_misses);
    TripleGraph graph = RebindGraph(g.loaded, dict);
    RDFALIGN_RETURN_IF_ERROR(archive.Append(graph).status());
  }
  resp->append_ms = append_timer.ElapsedMillis();

  WallTimer save_timer;
  RDFALIGN_RETURN_IF_ERROR(
      store::SaveArchive(archive, req.path_out, &resp->save_stats));
  resp->save_ms = save_timer.ElapsedMillis();
  resp->stats = archive.Stats();
  return Status::OK();
}

std::string ArchiveToJson(const ArchiveResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"archive\": \"%s\",\n", JsonEscape(r.path_out).c_str());
  b.Appendf("  \"method\": \"%s\",\n",
            std::string(AlignMethodToString(r.method)).c_str());
  b.Appendf("  \"threads\": %zu,\n", r.threads);
  b.Appendf("  \"versions\": %zu,\n", r.stats.versions);
  b.Appendf("  \"entities\": %zu,\n", r.stats.entities);
  b.Appendf("  \"distinct_triples\": %zu,\n", r.stats.distinct_triples);
  b.Appendf("  \"interval_records\": %zu,\n", r.stats.interval_records);
  b.Appendf("  \"triple_version_pairs\": %zu,\n",
            r.stats.triple_version_pairs);
  b.Appendf("  \"compression_ratio\": %.4f,\n", r.stats.CompressionRatio());
  b.Appendf("  \"file_bytes\": %llu,\n",
            (unsigned long long)r.save_stats.file_bytes);
  b.Appendf("  \"base_bytes\": %llu,\n",
            (unsigned long long)r.save_stats.base_bytes);
  b.Appendf("  \"delta_bytes\": %llu,\n",
            (unsigned long long)r.save_stats.delta_bytes);
  b.Appendf("  \"append_ms\": %.2f,\n", r.append_ms);
  b.Appendf("  \"save_ms\": %.2f\n", r.save_ms);
  b.Appendf("}\n");
  return b.Take();
}

std::string ArchiveToText(const ArchiveResponse& r) {
  JsonBuf b;
  b.Appendf("archived %zu versions -> %s (%llu bytes)\n", r.stats.versions,
            r.path_out.c_str(),
            (unsigned long long)r.save_stats.file_bytes);
  b.Appendf("  entities            : %zu\n", r.stats.entities);
  b.Appendf("  interval records    : %zu (distinct triples %zu)\n",
            r.stats.interval_records, r.stats.distinct_triples);
  b.Appendf("  compression ratio   : %.2fx (%zu triple-version pairs)\n",
            r.stats.CompressionRatio(), r.stats.triple_version_pairs);
  b.Appendf("  base %llu bytes + deltas %llu bytes\n",
            (unsigned long long)r.save_stats.base_bytes,
            (unsigned long long)r.save_stats.delta_bytes);
  b.Appendf("  append %.1f ms, save %.1f ms\n", r.append_ms, r.save_ms);
  return b.Take();
}

// ------------------------------------------------------------------ gen

bool ParseGenRequest(const Args& args, GenRequest* req, ParseError* error) {
  if (args.positional().size() != 1) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"scale", "versions", "seed", "json"}, &message)) {
    return UsageError(error, message);
  }
  req->prefix = args.positional()[0];
  const std::optional<long long> versions =
      args.GetInt("versions", 2, &message);
  if (!versions) return PlainError(error, message);
  if (*versions < 1 || *versions > 1000) {
    return PlainError(error,
                      "rdfalign gen: --versions must be in [1, 1000]");
  }
  req->versions = *versions;
  const std::optional<double> scale = args.GetDouble("scale", 1.0, &message);
  if (!scale) return PlainError(error, message);
  req->scale = *scale;
  if (!(req->scale > 0.0) || req->scale > 1e6) {
    return PlainError(error, "rdfalign gen: --scale must be in (0, 1e6]");
  }
  const std::optional<long long> seed = args.GetInt("seed", 5, &message);
  if (!seed) return PlainError(error, message);
  if (*seed < 0) {
    return PlainError(error, "rdfalign gen: --seed must be >= 0");
  }
  req->seed = *seed;
  req->common.json = args.Has("json");
  return true;
}

Status RunGen(const GenRequest& req, GenResponse* resp) {
  resp->prefix = req.prefix;
  gen::CategoryOptions options = gen::CategoryOptions::FromScale(
      req.scale, static_cast<size_t>(req.versions),
      static_cast<uint64_t>(req.seed));
  gen::CategoryChain chain = gen::CategoryChain::Generate(options);
  for (size_t v = 0; v < chain.NumVersions(); ++v) {
    const std::string path = req.prefix + std::to_string(v + 1) + ".nt";
    RDFALIGN_RETURN_IF_ERROR(WriteNTriplesFile(chain.Version(v), path));
    resp->files.push_back(GenFileInfo{path, chain.Version(v).NumNodes(),
                                      chain.Version(v).NumEdges()});
  }
  return Status::OK();
}

std::string GenToJson(const GenResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"prefix\": \"%s\",\n", JsonEscape(r.prefix).c_str());
  b.Appendf("  \"versions\": %zu,\n", r.files.size());
  b.Appendf("  \"files\": [\n");
  for (size_t i = 0; i < r.files.size(); ++i) {
    const GenFileInfo& f = r.files[i];
    b.Appendf("    {\"path\": \"%s\", \"nodes\": %zu, \"triples\": %zu}%s\n",
              JsonEscape(f.path).c_str(), f.nodes, f.triples,
              i + 1 < r.files.size() ? "," : "");
  }
  b.Appendf("  ]\n}\n");
  return b.Take();
}

std::string GenToText(const GenResponse& r) {
  JsonBuf b;
  for (const GenFileInfo& f : r.files) {
    b.Appendf("wrote %s: %zu nodes, %zu triples\n", f.path.c_str(), f.nodes,
              f.triples);
  }
  return b.Take();
}

// ---------------------------------------------------------------- cache

bool ParseCacheRequest(const Args& args, CacheRequest* req,
                       ParseError* error) {
  if (args.positional().size() != 1) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"json"}, &message)) {
    return UsageError(error, message);
  }
  req->action = args.positional()[0];
  if (req->action != "stats" && req->action != "clear") {
    return PlainError(error, "rdfalign cache: unknown action '" +
                                 req->action +
                                 "' (expected stats or clear)");
  }
  req->common.json = args.Has("json");
  return true;
}

Status RunCache(const CacheRequest& req, CacheResponse* resp) {
  resp->action = req.action;
  SnapshotCache* cache = req.source ? req.source->cache() : nullptr;
  if (cache == nullptr) {
    return Status::InvalidArgument(
        "no resident snapshot cache (the cache verb needs rdfalignd)");
  }
  if (req.action == "clear") {
    resp->dropped_entries = cache->stats().entries;
    cache->Clear();
  } else {
    resp->entries = cache->entries();
  }
  resp->stats = cache->stats();
  return Status::OK();
}

std::string CacheToJson(const CacheResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf("  \"action\": \"%s\",\n", JsonEscape(r.action).c_str());
  if (r.action == "clear") {
    b.Appendf("  \"dropped_entries\": %llu,\n",
              (unsigned long long)r.dropped_entries);
  }
  b.Appendf("  \"capacity_bytes\": %llu,\n",
            (unsigned long long)r.stats.capacity_bytes);
  b.Appendf("  \"resident_bytes\": %llu,\n",
            (unsigned long long)r.stats.resident_bytes);
  b.Appendf("  \"entries\": %llu,\n", (unsigned long long)r.stats.entries);
  b.Appendf("  \"hits\": %llu,\n", (unsigned long long)r.stats.hits);
  b.Appendf("  \"misses\": %llu,\n", (unsigned long long)r.stats.misses);
  b.Appendf("  \"evictions\": %llu,\n",
            (unsigned long long)r.stats.evictions);
  b.Appendf("  \"duplicate_loads\": %llu%s\n",
            (unsigned long long)r.stats.duplicate_loads,
            r.action == "stats" ? "," : "");
  if (r.action == "stats") {
    b.Appendf("  \"cached\": [\n");
    for (size_t i = 0; i < r.entries.size(); ++i) {
      const SnapshotCacheEntryInfo& e = r.entries[i];
      b.Appendf(
          "    {\"fingerprint\": \"%016llx\", \"bytes\": %llu, "
          "\"refs\": %llu, \"nodes\": %llu, \"triples\": %llu, "
          "\"path\": \"%s\"}%s\n",
          (unsigned long long)e.fingerprint,
          (unsigned long long)e.resident_bytes,
          (unsigned long long)e.external_refs, (unsigned long long)e.nodes,
          (unsigned long long)e.triples, JsonEscape(e.path).c_str(),
          i + 1 < r.entries.size() ? "," : "");
    }
    b.Appendf("  ]\n");
  }
  b.Appendf("}\n");
  return b.Take();
}

std::string CacheToText(const CacheResponse& r) {
  JsonBuf b;
  if (r.action == "clear") {
    b.Appendf("cleared snapshot cache: dropped %llu entries\n",
              (unsigned long long)r.dropped_entries);
    return b.Take();
  }
  b.Appendf("snapshot cache: %llu entries, %llu / %llu bytes\n",
            (unsigned long long)r.stats.entries,
            (unsigned long long)r.stats.resident_bytes,
            (unsigned long long)r.stats.capacity_bytes);
  b.Appendf("  hits %llu, misses %llu, evictions %llu, duplicate loads %llu\n",
            (unsigned long long)r.stats.hits,
            (unsigned long long)r.stats.misses,
            (unsigned long long)r.stats.evictions,
            (unsigned long long)r.stats.duplicate_loads);
  for (const SnapshotCacheEntryInfo& e : r.entries) {
    b.Appendf("  %016llx  %llu bytes  refs=%llu  %llu nodes, %llu triples  %s\n",
              (unsigned long long)e.fingerprint,
              (unsigned long long)e.resident_bytes,
              (unsigned long long)e.external_refs,
              (unsigned long long)e.nodes, (unsigned long long)e.triples,
              e.path.c_str());
  }
  return b.Take();
}

// -------------------------------------------------------------- updates

bool ParseUpdatesRequest(const Args& args, UpdatesRequest* req,
                         ParseError* error) {
  if (args.positional().size() != 3) return UsageError(error);
  std::string message;
  if (!args.OnlyKnown({"seq", "threads", "mmap", "json",
                       "no-verify-checksums"},
                      &message)) {
    return UsageError(error, message);
  }
  req->path_base = args.positional()[0];
  req->path_next = args.positional()[1];
  req->path_out = args.positional()[2];
  const std::optional<long long> seq = args.GetInt("seq", 1, &message);
  if (!seq) return PlainError(error, message);
  if (*seq < 0) {
    return PlainError(error, "rdfalign updates: --seq must be >= 0");
  }
  req->sequence = *seq;
  if (!ParseCommonFlags(args, "updates", &req->common, &message)) {
    return PlainError(error, message);
  }
  return true;
}

Status RunUpdates(const UpdatesRequest& req, UpdatesResponse* resp) {
  resp->path_base = req.path_base;
  resp->path_next = req.path_next;
  resp->path_out = req.path_out;

  // No shared-dictionary rebind here: BuildUpdateBatch matches nodes by
  // (kind, lexical form) strings, so each graph's private dictionary is
  // exactly what it needs.
  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph base,
      req.source->Acquire(req.path_base, req.common, false));
  CountAcquire(base, &resp->cache_hits, &resp->cache_misses);
  resp->kind_base = base.loaded->kind;
  resp->nodes_base = base.loaded->graph.NumNodes();
  resp->triples_base = base.loaded->graph.NumEdges();

  RDFALIGN_ASSIGN_OR_RETURN(
      AcquiredGraph next,
      req.source->Acquire(req.path_next, req.common, false));
  CountAcquire(next, &resp->cache_hits, &resp->cache_misses);
  resp->kind_next = next.loaded->kind;
  resp->nodes_next = next.loaded->graph.NumNodes();
  resp->triples_next = next.loaded->graph.NumEdges();

  WallTimer build_timer;
  RDFALIGN_ASSIGN_OR_RETURN(
      store::UpdateBatch batch,
      store::BuildUpdateBatch(base.loaded->graph, next.loaded->graph,
                              static_cast<uint64_t>(req.sequence)));
  resp->build_ms = build_timer.ElapsedMillis();
  resp->refs = batch.nodes.size();
  resp->new_nodes = batch.num_new;
  resp->removed_nodes = batch.removed_nodes.size();
  resp->removed_triples = batch.removed.size();
  resp->added_triples = batch.added.size();
  resp->sequence = batch.sequence;

  WallTimer write_timer;
  RDFALIGN_ASSIGN_OR_RETURN(std::string bytes,
                            store::EncodeUpdateBatch(batch));
  resp->file_bytes = bytes.size();
  RDFALIGN_RETURN_IF_ERROR(store::AtomicWriteFile(
      req.path_out, bytes.data(), bytes.size(), "update fragment"));
  resp->write_ms = write_timer.ElapsedMillis();
  return Status::OK();
}

std::string UpdatesToJson(const UpdatesResponse& r) {
  JsonBuf b;
  b.Appendf("{\n");
  b.Appendf(
      "  \"base\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu},\n",
      JsonEscape(r.path_base).c_str(), r.kind_base.c_str(), r.nodes_base,
      r.triples_base);
  b.Appendf(
      "  \"next\": {\"path\": \"%s\", \"kind\": \"%s\", "
      "\"nodes\": %zu, \"triples\": %zu},\n",
      JsonEscape(r.path_next).c_str(), r.kind_next.c_str(), r.nodes_next,
      r.triples_next);
  b.Appendf("  \"fragment\": \"%s\",\n", JsonEscape(r.path_out).c_str());
  b.Appendf("  \"sequence\": %llu,\n", (unsigned long long)r.sequence);
  b.Appendf("  \"refs\": %llu,\n", (unsigned long long)r.refs);
  b.Appendf("  \"new_nodes\": %llu,\n", (unsigned long long)r.new_nodes);
  b.Appendf("  \"removed_nodes\": %llu,\n",
            (unsigned long long)r.removed_nodes);
  b.Appendf("  \"removed_triples\": %llu,\n",
            (unsigned long long)r.removed_triples);
  b.Appendf("  \"added_triples\": %llu,\n",
            (unsigned long long)r.added_triples);
  b.Appendf("  \"fragment_bytes\": %llu,\n",
            (unsigned long long)r.file_bytes);
  b.Appendf("  \"build_ms\": %.2f,\n", r.build_ms);
  b.Appendf("  \"write_ms\": %.2f\n", r.write_ms);
  b.Appendf("}\n");
  return b.Take();
}

std::string UpdatesToText(const UpdatesResponse& r) {
  JsonBuf b;
  b.Appendf("wrote update fragment %s (%llu bytes, seq %llu)\n",
            r.path_out.c_str(), (unsigned long long)r.file_bytes,
            (unsigned long long)r.sequence);
  b.Appendf("  base            : %s [%s] %zu nodes, %zu triples\n",
            r.path_base.c_str(), r.kind_base.c_str(), r.nodes_base,
            r.triples_base);
  b.Appendf("  next            : %s [%s] %zu nodes, %zu triples\n",
            r.path_next.c_str(), r.kind_next.c_str(), r.nodes_next,
            r.triples_next);
  b.Appendf("  change          : +%llu -%llu triples, +%llu -%llu nodes"
            " (%llu refs)\n",
            (unsigned long long)r.added_triples,
            (unsigned long long)r.removed_triples,
            (unsigned long long)r.new_nodes,
            (unsigned long long)r.removed_nodes,
            (unsigned long long)r.refs);
  b.Appendf("  build %.1f ms, write %.1f ms\n", r.build_ms, r.write_ms);
  return b.Take();
}

// ------------------------------------------------------------- dispatch

const char* UsageText() {
  return
      "usage: rdfalign <command> [args]\n"
      "\n"
      "commands:\n"
      "  build <input> <output.snap> [--format=auto|ntriples|turtle]\n"
      "       [--threads=N]\n"
      "      parse an RDF text file and write a binary snapshot\n"
      "  info <file> [--json]\n"
      "      print header, sections, and statistics of a snapshot,\n"
      "      delta, archive, or update-fragment file (sniffed by\n"
      "      magic); --json also reports the content fingerprint\n"
      "  align <a> <b> [--method=M] [--threads=N] [--mmap] [--json]\n"
      "      align two graphs (snapshot or RDF text each) and report\n"
      "      methods: trivial deblank hybrid hybrid-contextual overlap\n"
      "      (default hybrid; --threads=0 uses all hardware threads)\n"
      "  diff <base> <next> <out.delta> [--method=M] [--threads=N]\n"
      "       [--mmap] [--json]\n"
      "      align two versions and write the incremental binary delta\n"
      "  patch <base> <delta> <out.snap> [--threads=N] [--mmap] [--json]\n"
      "      reconstruct the next version from base + delta and write it\n"
      "      as a snapshot (exit 2 when the delta does not fit the base)\n"
      "  archive <out.archive> <v1> <v2> ... [--method=M] [--threads=N]\n"
      "       [--mmap] [--json]\n"
      "      append versions into an interval archive and persist it as\n"
      "      a base snapshot plus a delta chain\n"
      "  gen <out-prefix> [--scale=S] [--versions=K] [--seed=N]\n"
      "      generate a synthetic category-graph version chain as\n"
      "      <out-prefix>1.nt, <out-prefix>2.nt, ...\n"
      "  cache <stats|clear> [--json]\n"
      "      inspect or drop the resident snapshot cache (rdfalignd)\n"
      "  updates <base> <next> <out.upd> [--seq=N] [--threads=N]\n"
      "       [--mmap] [--json]\n"
      "      write the label-addressed update fragment turning base into\n"
      "      next, for replay against a streaming session (docs/stream.md)\n"
      "  client <host:port|port> <command> [args]\n"
      "      run any command above on a running rdfalignd instead of\n"
      "      in-process (same arguments, same output, same exit code)\n"
      "  stream <host:port|port> <source> <target> --updates=u1[,u2,...]\n"
      "       [--method=trivial|deblank] [--threads=N] [--check=final]\n"
      "       [--json]\n"
      "      open a streaming alignment session on a running rdfalignd,\n"
      "      push each update fragment (printing the alignment delta),\n"
      "      optionally check batch equivalence against a final snapshot\n"
      "  stats [--json]  (via `rdfalign client <endpoint> stats`)\n"
      "      per-verb request/error counters and latency percentiles of a\n"
      "      running rdfalignd\n"
      "\n"
      "every command also accepts --no-verify-checksums (skip section\n"
      "checksum verification on loads; structural validation still runs)\n";
}

namespace {

/// Renders the chosen presentation and finishes `result`.
template <typename Response>
void Finish(VerbResult* result, const Response& resp, bool json,
            std::string (*to_json)(const Response&),
            std::string (*to_text)(const Response&)) {
  result->output = json ? to_json(resp) : to_text(resp);
}

}  // namespace

VerbResult ExecuteVerb(const std::vector<std::string>& tokens,
                       GraphSource* source, bool force_json) {
  VerbResult result;
  if (tokens.empty()) {
    result.exit_code = 2;
    result.usage_error = true;
    return result;
  }
  const std::string& verb = tokens[0];
  result.verb = verb;
  const Args args(std::vector<std::string>(tokens.begin() + 1, tokens.end()));
  ParseError parse_error;

  auto parse_failed = [&result, &parse_error]() {
    result.exit_code = 2;
    result.usage_error = parse_error.usage;
    result.error = parse_error.message;
    return result;
  };
  auto run_failed = [&result](const char* name, const Status& st,
                              int exit_code) {
    result.exit_code = exit_code;
    result.error = std::string("rdfalign ") + name + ": " + st.ToString();
    return result;
  };

  if (verb == "build") {
    BuildRequest req;
    if (!ParseBuildRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    BuildResponse resp;
    Status st = RunBuild(req, &resp);
    if (!st.ok()) return run_failed("build", st, 1);
    Finish(&result, resp, req.common.json, BuildToJson, BuildToText);
    return result;
  }
  if (verb == "info") {
    InfoRequest req;
    if (!ParseInfoRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) {
      req.common.json = true;
      req.with_fingerprint = true;
    }
    req.source = source;
    InfoResponse resp;
    Status st = RunInfo(req, &resp);
    result.cache_hits = resp.cache_hits;
    result.cache_misses = resp.cache_misses;
    if (!st.ok()) return run_failed("info", st, 1);
    Finish(&result, resp, req.common.json, InfoToJson, InfoToText);
    return result;
  }
  if (verb == "align") {
    AlignRequest req;
    if (!ParseAlignRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    req.source = source;
    AlignResponse resp;
    Status st = RunAlign(req, &resp);
    result.cache_hits = resp.cache_hits;
    result.cache_misses = resp.cache_misses;
    if (!st.ok()) return run_failed("align", st, 1);
    Finish(&result, resp, req.common.json, AlignToJson, AlignToText);
    return result;
  }
  if (verb == "diff") {
    DiffRequest req;
    if (!ParseDiffRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    req.source = source;
    DiffResponse resp;
    Status st = RunDiff(req, &resp);
    result.cache_hits = resp.cache_hits;
    result.cache_misses = resp.cache_misses;
    if (!st.ok()) return run_failed("diff", st, 1);
    Finish(&result, resp, req.common.json, DiffToJson, DiffToText);
    return result;
  }
  if (verb == "patch") {
    PatchRequest req;
    if (!ParsePatchRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    req.source = source;
    PatchResponse resp;
    Status st = RunPatch(req, &resp);
    result.cache_hits = resp.cache_hits;
    result.cache_misses = resp.cache_misses;
    if (!st.ok()) {
      // A delta that does not belong to this base (or is no delta at all)
      // is a usage error, distinct from I/O failures and corrupt files.
      return run_failed("patch", st, st.IsInvalidArgument() ? 2 : 1);
    }
    Finish(&result, resp, req.common.json, PatchToJson, PatchToText);
    return result;
  }
  if (verb == "archive") {
    ArchiveRequest req;
    if (!ParseArchiveRequest(args, &req, &parse_error)) {
      return parse_failed();
    }
    if (force_json) req.common.json = true;
    req.source = source;
    ArchiveResponse resp;
    Status st = RunArchive(req, &resp);
    result.cache_hits = resp.cache_hits;
    result.cache_misses = resp.cache_misses;
    if (!st.ok()) return run_failed("archive", st, 1);
    Finish(&result, resp, req.common.json, ArchiveToJson, ArchiveToText);
    return result;
  }
  if (verb == "gen") {
    GenRequest req;
    if (!ParseGenRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    GenResponse resp;
    Status st = RunGen(req, &resp);
    if (!st.ok()) {
      // Versions written before the failure are still reported (the
      // historical CLI printed them as it went).
      if (!req.common.json) result.output = GenToText(resp);
      return run_failed("gen", st, 1);
    }
    Finish(&result, resp, req.common.json, GenToJson, GenToText);
    return result;
  }
  if (verb == "cache") {
    CacheRequest req;
    if (!ParseCacheRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    req.source = source;
    CacheResponse resp;
    Status st = RunCache(req, &resp);
    if (!st.ok()) return run_failed("cache", st, 1);
    Finish(&result, resp, req.common.json, CacheToJson, CacheToText);
    return result;
  }
  if (verb == "updates") {
    UpdatesRequest req;
    if (!ParseUpdatesRequest(args, &req, &parse_error)) return parse_failed();
    if (force_json) req.common.json = true;
    req.source = source;
    UpdatesResponse resp;
    Status st = RunUpdates(req, &resp);
    result.cache_hits = resp.cache_hits;
    result.cache_misses = resp.cache_misses;
    if (!st.ok()) return run_failed("updates", st, 1);
    Finish(&result, resp, req.common.json, UpdatesToJson, UpdatesToText);
    return result;
  }
  if (verb == "stats" || verb == "stream") {
    // Both exist only where there is a live daemon holding the state —
    // request metrics for `stats`, a per-connection streaming session for
    // `stream` — so the in-process dispatcher can only point elsewhere.
    result.exit_code = 1;
    result.error = "rdfalign " + verb + ": only available on a running " +
                   "rdfalignd (use rdfalign " +
                   (verb == "stats" ? "client <endpoint> stats"
                                    : "stream <endpoint> ...") +
                   ")";
    return result;
  }
  result.exit_code = 2;
  result.usage_error = true;
  result.error = "rdfalign: unknown command '" + verb + "'";
  return result;
}

}  // namespace rdfalign::service
