// Bench of the refinement fixpoint engine: absolute per-workload timings.
//
// Three experiments over combined two-version graphs from the category
// (Fig. 16 scalability) and EFO (Fig. 9) generators:
//
//  1. plain refinement: full bisimulation from the label partition;
//  2. a signing-thread sweep (threads = 1, 2, 4, 8) of that fixpoint — its
//     first round signs every node, so it is where the pool bites. Every
//     count must reproduce the 1-thread partition bit for bit, or the bench
//     exits nonzero;
//  3. contextual (mediation-aware) refinement in the predicate-aware-hybrid
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
  double refine_ms = 0;  // the 1-thread fixpoint of the sweep
  size_t iterations = 0;
  size_t resignings = 0;
  size_t signature_bytes = 0;
  size_t final_classes = 0;
};

struct ThreadsResult {
  std::string name;
  size_t threads = 0;
  double first_round_ms = 0;
  double total_ms = 0;
  bool identical = false;  // colors equal the threads=1 run
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

// Full bisimulation at each signing-thread count; the 1-thread run fills
// the workload row. Bit-identical partitions across counts are part of the
// engine contract and re-checked here at full scale.
RunResult RunWorkload(const std::string& name, const TripleGraph& g,
                      std::vector<ThreadsResult>* sweep) {
  RunResult r;
  r.name = name;
  r.nodes = g.NumNodes();
  r.edges = g.NumEdges();
  std::vector<NodeId> all(g.NumNodes());
  for (NodeId i = 0; i < g.NumNodes(); ++i) all[i] = i;
  // Untimed warm-up, so the 1-thread row does not alone pay the first-touch
  // page faults of the allocator.
  (void)BisimRefineFixpoint(g, LabelPartition(g), all);
  Partition baseline;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RefinementOptions options;
    options.threads = threads;
    RefinementStats stats;
    WallTimer timer;
    Partition p = BisimRefineFixpoint(g, LabelPartition(g), all, &stats,
                                      options);
    ThreadsResult t;
    t.name = name;
    t.threads = threads;
    t.total_ms = timer.ElapsedMillis();
    t.first_round_ms = stats.first_round_ms;
    t.identical = threads == 1 || p.colors() == baseline.colors();
    sweep->push_back(t);
    if (threads == 1) {
      r.refine_ms = t.total_ms;
      r.iterations = stats.iterations;
      r.resignings = stats.TotalDirty();
      r.signature_bytes = stats.signature_bytes;
      r.final_classes = p.NumColors();
      baseline = std::move(p);
    }
  }
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
               const std::vector<ThreadsResult>& sweep,
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
  std::fprintf(f, "  \"provenance\": \"single-process wall clock; "
               "hardware_threads records the recording box — on a 1-core "
               "box the threads_sweep is expected to stay flat\",\n");
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
  std::fprintf(f, "  \"threads_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const ThreadsResult& r = sweep[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"threads\": %zu,\n", r.threads);
    std::fprintf(f, "      \"first_round_ms\": %.2f,\n", r.first_round_ms);
    std::fprintf(f, "      \"total_ms\": %.2f,\n", r.total_ms);
    std::fprintf(f, "      \"identical\": %s\n",
                 r.identical ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 < sweep.size() ? "," : "");
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
                "worklist fixpoint timings, signing-thread sweep, and "
                "contextual refinement");

  std::vector<RunResult> runs;
  std::vector<ThreadsResult> sweep;
  std::vector<ContextualResult> contextual;
  {
    gen::CategoryChain chain = gen::CategoryChain::Generate(
        gen::CategoryOptions::FromScale(scale, /*versions=*/2, seed));
    auto cg = CombinedGraph::Build(chain.Version(0), chain.Version(1)).value();
    runs.push_back(RunWorkload("category", cg.graph(), &sweep));
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
    runs.push_back(RunWorkload("efo", cg.graph(), &sweep));
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
  bool all_identical = true;
  std::printf("\nfirst-round signing thread sweep\n");
  {
    bench::TablePrinter table(
        {"workload", "threads", "round1(ms)", "total(ms)", "identical"});
    for (const ThreadsResult& r : sweep) {
      table.Row({r.name, bench::FmtInt(r.threads),
                 bench::Fmt("%.1f", r.first_round_ms),
                 bench::Fmt("%.1f", r.total_ms),
                 r.identical ? "yes" : "NO"});
      all_identical = all_identical && r.identical;
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
  const bool wrote = WriteJson(out, runs, sweep, contextual, scale, seed);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());
  return all_identical && wrote ? 0 : 1;
}
