// Bench of the refinement fixpoint engine: absolute per-workload timings.
//
// Two experiments over combined two-version graphs from the category
// (Fig. 16 scalability) and EFO (Fig. 9) generators:
//
//  1. plain refinement: full bisimulation from the label partition;
//  2. contextual (mediation-aware) refinement in the predicate-aware-hybrid
//     shape.
//
// Agreement with the full-rescan oracle on these generators is pinned by
// GeneratedWorkloadEngineEquivalence in tests/refinement_equivalence_test.cc.
//
// Emits machine-readable numbers to a JSON file so the perf trajectory is
// recorded (BENCH_refinement.json at the repo root holds the reference
// run; the bench_smoke ctest target re-runs this at --scale=0.1).
//
// Default --scale=4 puts both workloads above 100k nodes.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/context.h"
#include "core/partition.h"
#include "core/refinement.h"
#include "gen/category_gen.h"
#include "gen/efo_gen.h"
#include "rdf/merge.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

struct RunResult {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  double refine_ms = 0;
  size_t iterations = 0;
  size_t resignings = 0;
  size_t signature_bytes = 0;
  size_t final_classes = 0;
};

struct ContextualResult {
  std::string name;
  size_t nodes = 0;
  size_t edges = 0;
  size_t predicate_only = 0;
  double refine_ms = 0;
  size_t resignings = 0;
  size_t final_classes = 0;
};

// Full bisimulation from the label partition.
RunResult RunWorkload(const std::string& name, const TripleGraph& g) {
  RunResult r;
  r.name = name;
  r.nodes = g.NumNodes();
  r.edges = g.NumEdges();
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  // Untimed warm-up, so the timed run does not pay the first-touch page
  // faults of the allocator.
  (void)BisimRefineFixpoint(g, LabelPartition(g), all);
  RefinementStats stats;
  WallTimer timer;
  Partition p = BisimRefineFixpoint(g, LabelPartition(g), all, &stats);
  r.refine_ms = timer.ElapsedMillis();
  r.iterations = stats.iterations;
  r.resignings = stats.TotalDirty();
  r.signature_bytes = stats.signature_bytes;
  r.final_classes = p.NumColors();
  return r;
}

// Contextual refinement on the exact inputs PredicateAwareHybridPartition
// refines over.
ContextualResult RunContextual(const std::string& name,
                               const CombinedGraph& cg) {
  const TripleGraph& g = cg.graph();
  ContextualResult r;
  r.name = name;
  r.nodes = g.NumNodes();
  r.edges = g.NumEdges();

  ContextualHybridInputs in = BuildContextualHybridInputs(cg);
  for (uint8_t flag : in.predicate_only) r.predicate_only += flag;

  RefinementStats stats;
  WallTimer timer;
  Partition p = ContextualRefineFixpoint(g, in.blanked, in.x, in.mediation,
                                         in.predicate_only, &stats);
  r.refine_ms = timer.ElapsedMillis();
  r.resignings = stats.TotalDirty();
  r.final_classes = p.NumColors();
  return r;
}

bool WriteJson(const std::string& path, const std::vector<RunResult>& runs,
               const std::vector<ContextualResult>& contextual, double scale,
               uint64_t seed) {
  bench::JsonReport json("refinement_fixpoint", scale, seed, std::nullopt,
                         "single-process wall clock of one serial fixpoint "
                         "after an untimed warm-up");
  json.Array("workloads", runs, [&](const RunResult& r) {
    json.Str("name", r.name);
    json.Field("nodes", "%zu", r.nodes);
    json.Field("edges", "%zu", r.edges);
    json.Field("refine_ms", "%.2f", r.refine_ms);
    json.Field("iterations", "%zu", r.iterations);
    json.Field("resignings", "%zu", r.resignings);
    json.Field("signature_bytes", "%zu", r.signature_bytes);
    json.Field("final_classes", "%zu", r.final_classes);
  });
  json.Array("contextual", contextual, [&](const ContextualResult& r) {
    json.Str("name", r.name);
    json.Field("nodes", "%zu", r.nodes);
    json.Field("edges", "%zu", r.edges);
    json.Field("predicate_only", "%zu", r.predicate_only);
    json.Field("refine_ms", "%.2f", r.refine_ms);
    json.Field("resignings", "%zu", r.resignings);
    json.Field("final_classes", "%zu", r.final_classes);
  });
  return json.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 4.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const std::string out = flags.GetString("out", "BENCH_refinement.json");

  bench::Banner("Refinement fixpoint engine",
                "worklist fixpoint timings and contextual refinement");

  std::vector<RunResult> runs;
  std::vector<ContextualResult> contextual;
  {
    gen::CategoryChain chain = gen::CategoryChain::Generate(
        gen::CategoryOptions::FromScale(scale, /*versions=*/2, seed));
    auto cg = CombinedGraph::Build(chain.Version(0), chain.Version(1)).value();
    runs.push_back(RunWorkload("category", cg.graph()));
    contextual.push_back(RunContextual("category", cg));
  }
  {
    gen::EfoOptions options;
    options.initial_classes =
        static_cast<size_t>(2000 * scale < 8 ? 8 : 2000 * scale);
    options.versions = 2;
    options.seed = seed;
    gen::EfoChain chain = gen::EfoChain::Generate(options);
    auto cg = CombinedGraph::Build(chain.Version(0), chain.Version(1)).value();
    runs.push_back(RunWorkload("efo", cg.graph()));
    contextual.push_back(RunContextual("efo", cg));
  }

  {
    bench::TablePrinter table({"workload", "nodes", "edges", "refine(ms)",
                               "iters", "resigned", "classes"});
    for (const RunResult& r : runs) {
      table.Row({r.name, bench::FmtInt(r.nodes), bench::FmtInt(r.edges),
                 bench::Fmt("%.1f", r.refine_ms), bench::FmtInt(r.iterations),
                 bench::FmtInt(r.resignings), bench::FmtInt(r.final_classes)});
    }
  }
  std::printf("\ncontextual refinement (predicate-aware hybrid shape)\n");
  {
    bench::TablePrinter table({"workload", "nodes", "pred-only",
                               "refine(ms)", "resigned", "classes"});
    for (const ContextualResult& r : contextual) {
      table.Row({r.name, bench::FmtInt(r.nodes),
                 bench::FmtInt(r.predicate_only),
                 bench::Fmt("%.1f", r.refine_ms), bench::FmtInt(r.resignings),
                 bench::FmtInt(r.final_classes)});
    }
  }
  const bool wrote = WriteJson(out, runs, contextual, scale, seed);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());
  return wrote ? 0 : 1;
}
