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
#include <thread>
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
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"refinement_fixpoint\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"seed\": %llu,\n", (unsigned long long)seed);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"provenance\": \"single-process wall clock of one "
               "serial fixpoint after an untimed warm-up\",\n");
  std::fprintf(f, "  \"workloads\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"nodes\": %zu,\n", r.nodes);
    std::fprintf(f, "      \"edges\": %zu,\n", r.edges);
    std::fprintf(f, "      \"refine_ms\": %.2f,\n", r.refine_ms);
    std::fprintf(f, "      \"iterations\": %zu,\n", r.iterations);
    std::fprintf(f, "      \"resignings\": %zu,\n", r.resignings);
    std::fprintf(f, "      \"signature_bytes\": %zu,\n", r.signature_bytes);
    std::fprintf(f, "      \"final_classes\": %zu\n", r.final_classes);
    std::fprintf(f, "    }%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"contextual\": [\n");
  for (size_t i = 0; i < contextual.size(); ++i) {
    const ContextualResult& r = contextual[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"nodes\": %zu,\n", r.nodes);
    std::fprintf(f, "      \"edges\": %zu,\n", r.edges);
    std::fprintf(f, "      \"predicate_only\": %zu,\n", r.predicate_only);
    std::fprintf(f, "      \"refine_ms\": %.2f,\n", r.refine_ms);
    std::fprintf(f, "      \"resignings\": %zu,\n", r.resignings);
    std::fprintf(f, "      \"final_classes\": %zu\n", r.final_classes);
    std::fprintf(f, "    }%s\n", i + 1 < contextual.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
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
