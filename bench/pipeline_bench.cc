// Phase-timed bench of the alignment pipeline.
//
// At each fig16-style scale point a two-version category chain is generated,
// both versions are stored as binary snapshots and reloaded (the zero-parse
// production path), and then every phase of the pipeline is timed:
//
//   merge     : CombinedGraph::Build (CSR concatenation)
//   refine    : the hybrid refinement fixpoint
//   partops   : label-keyed constructors, FromColors, Equivalent,
//               IsFinerOrEqual, Classes
//   overlap   : characterizing-set build + Algorithm 1 (CSR postings)
//   stats     : edge alignment + node alignment + delta
//
// A threads sweep ({1,2,3,4,8}) re-runs the shared-pool kernels at every
// point, requiring each count to reproduce the 1-thread outputs bit for
// bit. The bench exits nonzero — without writing JSON — on any mismatch,
// so the pipeline_bench_smoke ctest target and the CI perf gate double as
// a determinism gate. Agreement of each phase with the pre-rewrite oracles
// is pinned by tests/pipeline_equivalence_test.cc. Emits
// BENCH_pipeline.json; the checked-in copy at the repo root is the
// reference run.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/alignment.h"
#include "core/delta.h"
#include "core/hybrid.h"
#include "core/overlap_align.h"
#include "gen/category_gen.h"
#include "store/snapshot.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

struct PointResult {
  double scale_point = 0;
  size_t nodes = 0;
  size_t edges = 0;
  double load_ms = 0;     // snapshot load of both versions
  double merge_ms = 0;
  double refine_ms = 0;   // hybrid refinement fixpoint
  double partops_ms = 0;
  double overlap_ms = 0;
  double stats_ms = 0;
  // One entry per swept thread count: best wall time of the parallel kernel
  // bundle (merge + class sides + overlap match + stats joins + delta).
  std::vector<std::pair<size_t, double>> sweep;
  bool sweep_equal = true;

  double NonRefineTotal() const {
    return merge_ms + partops_ms + overlap_ms + stats_ms;
  }
};

/// Best-of-`runs` wall time of `fn` (which must return true).
template <typename Fn>
bool BestOf(size_t runs, double* best_ms, Fn&& fn) {
  *best_ms = 0;
  for (size_t r = 0; r < runs; ++r) {
    WallTimer t;
    if (!fn()) return false;
    double ms = t.ElapsedMillis();
    if (r == 0 || ms < *best_ms) *best_ms = ms;
  }
  return true;
}

bool SpansEqual(std::span<const uint64_t> a, std::span<const uint64_t> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

bool RunPoint(double scale_point, uint64_t seed, size_t runs,
              const std::string& tmp_prefix, PointResult* out) {
  PointResult r;
  r.scale_point = scale_point;

  // ---- parse/load: generate, snapshot, reload through the store ----------
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, /*versions=*/2, seed));
  const std::string snap1 = tmp_prefix + "_1.snap";
  const std::string snap2 = tmp_prefix + "_2.snap";
  if (!store::WriteSnapshot(chain.Version(0), snap1).ok() ||
      !store::WriteSnapshot(chain.Version(1), snap2).ok()) {
    std::fprintf(stderr, "cannot write snapshots under %s\n",
                 tmp_prefix.c_str());
    return false;
  }
  TripleGraph g1, g2;
  {
    WallTimer t;
    auto dict = std::make_shared<Dictionary>();
    auto l1 = store::LoadSnapshot(snap1, dict);
    auto l2 = store::LoadSnapshot(snap2, dict);
    std::filesystem::remove(snap1);
    std::filesystem::remove(snap2);
    if (!l1.ok() || !l2.ok()) {
      std::fprintf(stderr, "snapshot reload failed\n");
      return false;
    }
    g1 = std::move(l1).value();
    g2 = std::move(l2).value();
    r.load_ms = t.ElapsedMillis();
  }
  r.nodes = g1.NumNodes() + g2.NumNodes();
  r.edges = g1.NumEdges() + g2.NumEdges();

  // ---- merge ---------------------------------------------------------------
  CombinedGraph cg;
  if (!BestOf(runs, &r.merge_ms, [&] {
        auto res = CombinedGraph::Build(g1, g2);
        if (!res.ok()) return false;
        cg = std::move(res).value();
        return true;
      })) {
    return false;
  }

  // ---- refine --------------------------------------------------------------
  Partition hybrid;
  {
    WallTimer t;
    hybrid = HybridPartition(cg);
    r.refine_ms = t.ElapsedMillis();
  }

  // ---- partition ops -------------------------------------------------------
  BestOf(runs, &r.partops_ms, [&] {
    Partition label = LabelPartition(cg.graph());
    (void)TrivialPartition(cg.graph());
    (void)Partition::FromColors(hybrid.colors());
    (void)hybrid.Classes();
    (void)Partition::Equivalent(hybrid, hybrid);
    (void)Partition::IsFinerOrEqual(hybrid, label);
    return true;
  });

  // ---- overlap index + match ----------------------------------------------
  const TripleGraph& g = cg.graph();
  WeightedPartition xi = MakeZeroWeighted(hybrid);
  std::vector<NodeId> a_nodes, b_nodes;
  {
    std::vector<ClassSides> sides = ComputeClassSides(cg, hybrid);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (g.IsLiteral(n)) continue;
      if (sides[hybrid.ColorOf(n)] == ClassSides::kBoth) continue;
      (cg.InSource(n) ? a_nodes : b_nodes).push_back(n);
    }
  }
  auto sigma = [&](size_t x, size_t y) {
    return SigmaNonLiteral(g, xi, a_nodes[x], b_nodes[y]);
  };
  const double theta = 0.65;
  BestOf(runs, &r.overlap_ms, [&] {
    // The exact production streaming build (overlap_align.cc uses the same
    // AppendOutColorSet).
    CharacterizingSets a_char;
    CharacterizingSets b_char;
    a_char.Reserve(a_nodes.size(), a_nodes.size());
    b_char.Reserve(b_nodes.size(), b_nodes.size());
    for (NodeId n : a_nodes) AppendOutColorSet(g, xi, n, a_char);
    for (NodeId n : b_nodes) AppendOutColorSet(g, xi, n, b_char);
    (void)OverlapMatch(a_nodes, b_nodes, a_char, b_char, theta, sigma);
    return true;
  });

  // ---- stats ---------------------------------------------------------------
  BestOf(runs, &r.stats_ms, [&] {
    (void)ComputeEdgeAlignment(cg, hybrid);
    (void)ComputeNodeAlignment(cg, hybrid);
    (void)ComputeDelta(cg, hybrid);
    return true;
  });

  // ---- thread sweep over the shared-pool kernels ---------------------------
  // Each thread count re-runs the parallelized bundle (merge, class sides,
  // overlap match, stats joins, delta). threads=1 takes the serial paths
  // and is the baseline; every other count must reproduce its outputs
  // bit for bit, or sweep_equal clears and main() refuses to emit JSON.
  {
    CombinedGraph cg_base;
    std::vector<ClassSides> sides_base;
    BipartiteMatching h_base;
    OverlapMatchStats s_base;
    EdgeAlignmentStats es_base;
    NodeAlignmentStats ns_base;
    RdfDelta d_base;
    for (size_t t : {1u, 2u, 3u, 4u, 8u}) {
      CombinedGraph cg_t;
      std::vector<ClassSides> sides_t;
      BipartiteMatching h_t;
      OverlapMatchStats s_t;
      EdgeAlignmentStats es_t;
      NodeAlignmentStats ns_t;
      RdfDelta d_t;
      double ms = 0;
      const bool ok = BestOf(runs, &ms, [&] {
        auto res = CombinedGraph::Build(g1, g2, t);
        if (!res.ok()) return false;
        cg_t = std::move(res).value();
        sides_t = ComputeClassSides(cg, hybrid, t);
        CharacterizingSets a_char;
        CharacterizingSets b_char;
        a_char.Reserve(a_nodes.size(), a_nodes.size());
        b_char.Reserve(b_nodes.size(), b_nodes.size());
        for (NodeId n : a_nodes) AppendOutColorSet(g, xi, n, a_char);
        for (NodeId n : b_nodes) AppendOutColorSet(g, xi, n, b_char);
        h_t = OverlapMatch(a_nodes, b_nodes, a_char, b_char, theta, sigma,
                           {}, &s_t, t);
        es_t = ComputeEdgeAlignment(cg, hybrid, t);
        ns_t = ComputeNodeAlignment(cg, hybrid, t);
        d_t = ComputeDelta(cg, hybrid, t);
        return true;
      });
      if (!ok) return false;
      r.sweep.emplace_back(t, ms);
      if (t == 1) {
        cg_base = std::move(cg_t);
        sides_base = std::move(sides_t);
        h_base = std::move(h_t);
        s_base = s_t;
        es_base = es_t;
        ns_base = ns_t;
        d_base = std::move(d_t);
        continue;
      }
      bool same = LabeledGraphsEqual(cg_t.graph(), cg_base.graph()) &&
                  SpansEqual(cg_t.graph().OutOffsets(),
                             cg_base.graph().OutOffsets()) &&
                  SpansEqual(cg_t.graph().InOffsets(),
                             cg_base.graph().InOffsets()) &&
                  sides_t == sides_base &&
                  h_t.edges.size() == h_base.edges.size() &&
                  s_t.candidates_probed == s_base.candidates_probed &&
                  s_t.overlap_checked == s_base.overlap_checked &&
                  s_t.sigma_checked == s_base.sigma_checked &&
                  s_t.matched == s_base.matched &&
                  es_t.total_edges == es_base.total_edges &&
                  es_t.aligned_edges == es_base.aligned_edges &&
                  ns_t.aligned_classes == ns_base.aligned_classes &&
                  ns_t.aligned_source_nodes == ns_base.aligned_source_nodes &&
                  ns_t.aligned_target_nodes == ns_base.aligned_target_nodes &&
                  ns_t.unaligned_source_nodes ==
                      ns_base.unaligned_source_nodes &&
                  ns_t.unaligned_target_nodes ==
                      ns_base.unaligned_target_nodes &&
                  d_t.unchanged == d_base.unchanged &&
                  d_t.added == d_base.added && d_t.deleted == d_base.deleted &&
                  d_t.renamed_uris.size() == d_base.renamed_uris.size();
      for (size_t i = 0; same && i < h_t.edges.size(); ++i) {
        same = h_t.edges[i].a == h_base.edges[i].a &&
               h_t.edges[i].b == h_base.edges[i].b &&
               h_t.edges[i].distance == h_base.edges[i].distance;
      }
      for (size_t i = 0; same && i < d_t.renamed_uris.size(); ++i) {
        same = d_t.renamed_uris[i].source == d_base.renamed_uris[i].source &&
               d_t.renamed_uris[i].target == d_base.renamed_uris[i].target;
      }
      if (!same) {
        std::fprintf(stderr,
                     "FAIL: threads=%zu diverged from the 1-thread kernels "
                     "at scale %g\n",
                     t, scale_point);
        r.sweep_equal = false;
      }
    }
  }

  *out = r;
  return true;
}

bool WriteJson(const std::string& path, const std::vector<PointResult>& points,
               double scale, uint64_t seed, size_t runs) {
  bench::JsonReport json("pipeline_phases", scale, seed, runs,
                         "single-process wall clock; hardware_threads "
                         "records the recording box — on a 1-core box the "
                         "threads_sweep is expected to stay flat");
  json.Array("points", points, [&](const PointResult& r) {
    json.Field("scale_point", "%g", r.scale_point);
    json.Field("nodes", "%zu", r.nodes);
    json.Field("edges", "%zu", r.edges);
    json.Field("load_ms", "%.2f", r.load_ms);
    json.Field("merge_ms", "%.2f", r.merge_ms);
    json.Field("refine_ms", "%.2f", r.refine_ms);
    json.Field("partops_ms", "%.2f", r.partops_ms);
    json.Field("overlap_ms", "%.2f", r.overlap_ms);
    json.Field("stats_ms", "%.2f", r.stats_ms);
    json.Field("nonrefine_ms", "%.2f", r.NonRefineTotal());
    json.Raw("threads_sweep", bench::SweepJson(r.sweep));
    json.Bool("sweep_equal", r.sweep_equal);
  });
  return json.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 3));
  const std::string out = flags.GetString("out", "BENCH_pipeline.json");

  bench::Banner("Alignment pipeline phases",
                "per-phase timings (merge / refine / partition ops / overlap "
                "index / stats) and the shared-pool thread sweep");

  const std::string tmp_prefix =
      (std::filesystem::temp_directory_path() /
       ("rdfalign_pipeline_bench_" + std::to_string(seed)))
          .string();

  // The fig16 ladder: quarter, full, and 4x scale (the 4x point matches the
  // other two BENCH files' largest workload).
  std::vector<PointResult> points;
  for (double point : {0.25 * scale, 1.0 * scale, 4.0 * scale}) {
    PointResult r;
    if (!RunPoint(point, seed, runs, tmp_prefix, &r)) return 1;
    points.push_back(r);
  }

  bool all_equal = true;
  bench::TablePrinter table({"nodes", "edges", "merge(ms)", "refine(ms)",
                             "partops(ms)", "overlap(ms)", "stats(ms)",
                             "t1(ms)", "t8(ms)", "identical"});
  for (const PointResult& r : points) {
    table.Row({bench::FmtInt(r.nodes), bench::FmtInt(r.edges),
               bench::Fmt("%.1f", r.merge_ms), bench::Fmt("%.1f", r.refine_ms),
               bench::Fmt("%.1f", r.partops_ms),
               bench::Fmt("%.1f", r.overlap_ms),
               bench::Fmt("%.1f", r.stats_ms),
               bench::Fmt("%.1f", r.sweep.front().second),
               bench::Fmt("%.1f", r.sweep.back().second),
               r.sweep_equal ? "yes" : "NO"});
    all_equal = all_equal && r.sweep_equal;
  }
  if (!all_equal) {
    // The JSON is the perf record of a correct run; a diverging sweep must
    // not leave one behind.
    std::fprintf(stderr,
                 "FAIL: parallel pipeline diverged from the 1-thread "
                 "kernels; not writing %s\n",
                 out.c_str());
    return 1;
  }
  const bool wrote = WriteJson(out, points, scale, seed, runs);
  if (wrote) std::printf("wrote %s\n", out.c_str());
  return wrote ? 0 : 1;
}
