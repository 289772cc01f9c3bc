// Load-vs-reparse A/B of the snapshot store (the ISSUE 3 acceptance
// bench), plus the delta-chain A/B of the incremental store (ISSUE 5).
//
// Snapshot part (--mode=snapshot or all): at each fig16-style scale point
// a category graph is generated and saved twice — as N-Triples text and
// as a binary snapshot — then ingested back three ways:
//
//   reparse : ParseNTriplesFile (streaming text parse, the pre-store path)
//   load    : LoadSnapshot, buffered read + checksum verification
//   mmap    : LoadSnapshot, mmap + zero-copy CSR adoption, checksums off
//             (structural validation still runs and touches the whole
//             file; mmap saves the copy, not the read — see
//             store/snapshot.h)
//
// Dict part (--mode=dict or all): the graph's front-coded (version-2)
// dictionary sections against the size the raw version-1 layout would
// take, (terms + 1) x 8 offset bytes plus the whole terms (no writer emits
// version 1 any more, so that size is computed, not measured), plus the
// front-coded load time and intern throughput — gated on the load being
// bit-identical to the source graph and on save -> load -> resave
// reproducing the file byte for byte.
//
// Delta part (--mode=delta or all): a --versions-long category chain is
// materialized three ways — reparsing every version, loading one full
// snapshot per version, and loading the base snapshot then patch-replaying
// the delta chain (store/delta.h) — and the replayed graphs must be
// bit-identical (labels, triples, both CSR indexes) to the snapshot
// loads, or the bench exits nonzero. This re-checks the ISSUE 5
// acceptance invariant on every delta_bench_smoke / CI run.
//
// Each method is timed over several runs (best-of, files warm in the page
// cache for every method alike) and the loaded graphs are checked equal to
// the reparsed one. Emits BENCH_store.json; the checked-in copy at the
// repo root is the reference run, and the store_bench_smoke /
// delta_bench_smoke ctest targets re-run this at a tiny scale.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/aligner.h"
#include "core/delta.h"
#include "gen/category_gen.h"
#include "parser/ntriples_parser.h"
#include "parser/ntriples_writer.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "util/timer.h"

using namespace rdfalign;

namespace {

struct PointResult {
  double scale_point = 0;
  size_t nodes = 0;
  size_t edges = 0;
  size_t terms = 0;
  uint64_t nt_bytes = 0;
  uint64_t snap_bytes = 0;
  double reparse_ms = 0;
  double load_ms = 0;
  double mmap_ms = 0;
  bool equal = false;
};

/// Best-of-`runs` wall time of `fn` (returns false on failure).
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

bool RunPoint(double scale_point, uint64_t seed, size_t runs,
              const std::string& tmp_prefix, PointResult* out) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, /*versions=*/1, seed));
  const TripleGraph& g = chain.Version(0);

  const std::string nt_path = tmp_prefix + ".nt";
  const std::string snap_path = tmp_prefix + ".snap";
  if (!WriteNTriplesFile(g, nt_path).ok() ||
      !store::WriteSnapshot(g, snap_path).ok()) {
    std::fprintf(stderr, "cannot write bench inputs under %s\n",
                 tmp_prefix.c_str());
    return false;
  }

  PointResult r;
  r.scale_point = scale_point;
  r.nodes = g.NumNodes();
  r.edges = g.NumEdges();
  r.terms = g.dict().size();
  r.nt_bytes = std::filesystem::file_size(nt_path);
  r.snap_bytes = std::filesystem::file_size(snap_path);

  // Warm the page cache so the first-timed method is not penalized.
  { auto warm = ParseNTriplesFile(nt_path, nullptr); (void)warm; }

  TripleGraph parsed, loaded, mapped;
  bool ok =
      BestOf(runs, &r.reparse_ms,
             [&] {
               auto res = ParseNTriplesFile(nt_path, nullptr);
               if (!res.ok()) return false;
               parsed = std::move(res).value();
               return true;
             }) &&
      BestOf(runs, &r.load_ms,
             [&] {
               auto res = store::LoadSnapshot(snap_path, nullptr);
               if (!res.ok()) return false;
               loaded = std::move(res).value();
               return true;
             }) &&
      BestOf(runs, &r.mmap_ms, [&] {
        store::SnapshotLoadOptions mm;
        mm.use_mmap = true;
        mm.verify_checksums = false;
        auto res = store::LoadSnapshot(snap_path, nullptr, mm);
        if (!res.ok()) return false;
        mapped = std::move(res).value();
        return true;
      });
  if (ok) {
    // The snapshot paths must reproduce the original graph exactly (ids
    // included). The text parser renumbers nodes in first-occurrence
    // order, so the reparse path is held to count equality only.
    r.equal = LabeledGraphsEqual(g, loaded) && LabeledGraphsEqual(g, mapped) &&
              parsed.NumNodes() == g.NumNodes() &&
              parsed.NumEdges() == g.NumEdges();
  }
  std::filesystem::remove(nt_path);
  std::filesystem::remove(snap_path);
  if (!ok) return false;
  *out = r;
  return true;
}

// ------------------------------------------------------------- dict A/B

struct DictPointResult {
  double scale_point = 0;
  size_t nodes = 0;
  size_t edges = 0;
  size_t terms = 0;
  uint64_t fc_file_bytes = 0;   ///< front-coded (version-2) snapshot
  uint64_t raw_dict_bytes = 0;  ///< version-1 term_offsets + term_blob,
                                ///< computed from the terms
  uint64_t fc_dict_bytes = 0;   ///< + term_prefix_lens section
  double fc_load_ms = 0;
  double fc_intern_mtps = 0;  ///< interned terms / s, millions
  bool equal = false;      ///< the load is bit-identical to the source graph
  bool roundtrip = false;  ///< save -> load -> resave byte-identical
};

uint64_t DictSectionBytes(const store::SnapshotInfo& info) {
  uint64_t bytes = 0;
  for (const auto& s : info.sections) {
    if (s.id == store::SectionId::kTermOffsets ||
        s.id == store::SectionId::kTermBlob ||
        s.id == store::SectionId::kTermPrefixLens) {
      bytes += s.size;
    }
  }
  return bytes;
}

bool FilesIdentical(const std::string& a, const std::string& b) {
  std::error_code ec;
  if (std::filesystem::file_size(a, ec) != std::filesystem::file_size(b, ec)) {
    return false;
  }
  std::FILE* fa = std::fopen(a.c_str(), "rb");
  std::FILE* fb = std::fopen(b.c_str(), "rb");
  bool same = fa != nullptr && fb != nullptr;
  while (same) {
    char ba[4096], bb[4096];
    const size_t na = std::fread(ba, 1, sizeof(ba), fa);
    const size_t nb = std::fread(bb, 1, sizeof(bb), fb);
    same = na == nb && std::memcmp(ba, bb, na) == 0;
    if (na < sizeof(ba)) break;
  }
  if (fa != nullptr) std::fclose(fa);
  if (fb != nullptr) std::fclose(fb);
  return same;
}

/// Size of the raw version-1 dictionary sections of a snapshot holding
/// exactly `dict`'s terms: (terms + 1) x u64 offsets plus the whole terms.
uint64_t RawDictBytes(const Dictionary& dict) {
  uint64_t bytes = (dict.size() + 1) * sizeof(uint64_t);
  for (LexId id = 0; id < dict.size(); ++id) bytes += dict.Get(id).size();
  return bytes;
}

/// One front-coded dictionary point: bytes on disk (whole file and
/// dictionary sections alone, against the computed raw size), load time,
/// and intern throughput, gated on the load being bit-identical to the
/// source graph and on save -> load -> resave reproducing its bytes.
bool RunDictPoint(double scale_point, uint64_t seed, size_t runs,
                  const std::string& tmp_prefix, DictPointResult* out) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, /*versions=*/1, seed));
  const TripleGraph& g = chain.Version(0);

  const std::string fc_path = tmp_prefix + "_fc.snap";
  const std::string resave_path = tmp_prefix + "_resave.snap";
  DictPointResult r;
  const bool point_ok = [&]() -> bool {
    if (!store::WriteSnapshot(g, fc_path).ok()) {
      std::fprintf(stderr, "cannot write dict bench inputs under %s\n",
                   tmp_prefix.c_str());
      return false;
    }

    r.scale_point = scale_point;
    r.nodes = g.NumNodes();
    r.edges = g.NumEdges();
    r.terms = g.dict().size();
    r.fc_file_bytes = std::filesystem::file_size(fc_path);
    auto fc_info = store::ReadSnapshotInfo(fc_path);
    if (!fc_info.ok()) return false;
    r.fc_dict_bytes = DictSectionBytes(*fc_info);

    // Warm the page cache.
    { auto warm = store::LoadSnapshot(fc_path, nullptr); (void)warm; }

    TripleGraph fc_loaded;
    uint64_t fc_interned = 0;
    if (!BestOf(runs, &r.fc_load_ms, [&] {
          store::SnapshotLoadStats stats;
          auto res = store::LoadSnapshot(fc_path, nullptr, {}, &stats);
          if (!res.ok()) return false;
          fc_loaded = std::move(res).value();
          fc_interned = stats.terms_interned;
          return true;
        })) {
      std::fprintf(stderr, "dict bench: a load failed\n");
      return false;
    }
    r.fc_intern_mtps =
        r.fc_load_ms > 0
            ? static_cast<double>(fc_interned) / (r.fc_load_ms * 1e3)
            : 0.0;
    // A fresh load holds exactly the snapshot's terms.
    r.raw_dict_bytes = RawDictBytes(fc_loaded.dict());
    r.equal = GraphsBitDiffer(g, fc_loaded) == nullptr;

    // Round-trip gate: resaving a freshly loaded snapshot must reproduce
    // the file byte for byte.
    r.roundtrip = store::WriteSnapshot(fc_loaded, resave_path).ok() &&
                  FilesIdentical(fc_path, resave_path);
    if (!r.equal || !r.roundtrip) {
      std::fprintf(stderr, "FAIL: dict point %g: equal=%d roundtrip=%d\n",
                   scale_point, r.equal, r.roundtrip);
    }
    return true;
  }();
  std::filesystem::remove(fc_path);
  std::filesystem::remove(resave_path);
  if (!point_ok) return false;
  *out = r;
  return true;
}

struct DeltaPointResult {
  double scale_point = 0;
  size_t versions = 0;
  size_t nodes = 0;  ///< of the last version
  size_t edges = 0;
  uint64_t snap_total_bytes = 0;   ///< one full snapshot per version
  uint64_t delta_total_bytes = 0;  ///< base snapshot + delta chain
  double reparse_ms = 0;           ///< parse every version from N-Triples
  double snap_load_ms = 0;         ///< load every version's snapshot
  double replay_ms = 0;            ///< load base + patch-replay the chain
  bool equal = false;
  /// Replay timed per worker count; every count's chain must be
  /// bit-identical to the 1-thread replay.
  std::vector<std::pair<size_t, double>> replay_sweep;
  bool sweep_equal = true;
};

/// Bit-level graph equality (labels, triples, both CSR indexes) — the
/// delta acceptance invariant, shared with the test suite via
/// GraphsBitDiffer (rdf/graph.h).
bool GraphsBitIdentical(const TripleGraph& a, const TripleGraph& b) {
  return GraphsBitDiffer(a, b) == nullptr;
}

bool RunDeltaPoint(double scale_point, uint64_t seed, size_t runs,
                   size_t versions, const std::string& tmp_prefix,
                   DeltaPointResult* out) {
  gen::CategoryChain chain = gen::CategoryChain::Generate(
      gen::CategoryOptions::FromScale(scale_point, versions, seed));
  const size_t v_count = chain.NumVersions();

  DeltaPointResult r;
  r.scale_point = scale_point;
  r.versions = v_count;
  r.nodes = chain.Version(v_count - 1).NumNodes();
  r.edges = chain.Version(v_count - 1).NumEdges();

  // The body runs inside a lambda so every exit — including mid-point
  // failures — reaches the temp-file cleanup below.
  std::vector<std::string> nt_paths, snap_paths, delta_paths;
  const bool point_ok = [&]() -> bool {
  // Inputs: per-version N-Triples + snapshots, and base + delta chain.
  for (size_t v = 0; v < v_count; ++v) {
    nt_paths.push_back(tmp_prefix + "_d" + std::to_string(v) + ".nt");
    snap_paths.push_back(tmp_prefix + "_d" + std::to_string(v) + ".snap");
    if (!WriteNTriplesFile(chain.Version(v), nt_paths[v]).ok() ||
        !store::WriteSnapshot(chain.Version(v), snap_paths[v]).ok()) {
      std::fprintf(stderr, "cannot write delta bench inputs under %s\n",
                   tmp_prefix.c_str());
      return false;
    }
    r.snap_total_bytes += std::filesystem::file_size(snap_paths[v]);
  }
  r.delta_total_bytes = std::filesystem::file_size(snap_paths[0]);
  Aligner aligner;  // hybrid, the `rdfalign diff` default
  for (size_t v = 1; v < v_count; ++v) {
    delta_paths.push_back(tmp_prefix + "_d" + std::to_string(v) + ".delta");
    auto cg = CombinedGraph::Build(chain.Version(v - 1), chain.Version(v));
    if (!cg.ok()) {
      std::fprintf(stderr, "delta bench: merging versions %zu/%zu: %s\n",
                   v - 1, v, cg.status().ToString().c_str());
      return false;
    }
    const VersionNodeMap map =
        NodeMapFromPartition(*cg, aligner.AlignCombined(*cg).partition);
    Status st = store::WriteDelta(chain.Version(v - 1), chain.Version(v),
                                  map, delta_paths[v - 1]);
    if (!st.ok()) {
      std::fprintf(stderr, "delta bench: writing delta %zu: %s\n", v,
                   st.ToString().c_str());
      return false;
    }
    r.delta_total_bytes += std::filesystem::file_size(delta_paths[v - 1]);
  }

  // Warm the page cache.
  { auto warm = ParseNTriplesFile(nt_paths[0], nullptr); (void)warm; }

  std::vector<TripleGraph> snap_loaded, replayed;
  bool ok =
      BestOf(runs, &r.reparse_ms,
             [&] {
               for (const std::string& p : nt_paths) {
                 auto res = ParseNTriplesFile(p, nullptr);
                 if (!res.ok()) return false;
               }
               return true;
             }) &&
      BestOf(runs, &r.snap_load_ms,
             [&] {
               snap_loaded.clear();
               for (const std::string& p : snap_paths) {
                 auto res = store::LoadSnapshot(p, nullptr);
                 if (!res.ok()) return false;
                 snap_loaded.push_back(std::move(res).value());
               }
               return true;
             }) &&
      BestOf(runs, &r.replay_ms, [&] {
        replayed.clear();
        auto dict = std::make_shared<Dictionary>();
        auto base = store::LoadSnapshot(snap_paths[0], dict);
        if (!base.ok()) return false;
        replayed.push_back(std::move(base).value());
        for (const std::string& p : delta_paths) {
          auto next = store::ApplyDelta(replayed.back(), p, dict);
          if (!next.ok()) return false;
          replayed.push_back(std::move(next).value());
        }
        return true;
      });
  if (!ok) {
    std::fprintf(stderr, "delta bench: a load/replay phase failed\n");
    return false;
  }
  // The acceptance gate: every patch-replayed version bit-identical to
  // the direct snapshot load of that version.
  r.equal = snap_loaded.size() == v_count && replayed.size() == v_count;
  for (size_t v = 0; r.equal && v < v_count; ++v) {
    r.equal = GraphsBitIdentical(snap_loaded[v], replayed[v]) &&
              GraphsBitIdentical(chain.Version(v), replayed[v]);
  }

  // Replay thread sweep: the checksum verify and CSR rebuild run on the
  // shared pool, and the replayed chain must not depend on the worker
  // count. (On a 1-core recording box the sweep is expected to stay flat.)
  for (size_t t : {1u, 2u, 4u, 8u}) {
    std::vector<TripleGraph> sweep_replayed;
    double ms = 0;
    ok = BestOf(runs, &ms, [&] {
      sweep_replayed.clear();
      auto dict = std::make_shared<Dictionary>();
      auto base = store::LoadSnapshot(snap_paths[0], dict);
      if (!base.ok()) return false;
      sweep_replayed.push_back(std::move(base).value());
      store::DeltaApplyOptions opts;
      opts.threads = t;
      for (const std::string& p : delta_paths) {
        auto next = store::ApplyDelta(sweep_replayed.back(), p, dict, opts);
        if (!next.ok()) return false;
        sweep_replayed.push_back(std::move(next).value());
      }
      return true;
    });
    if (!ok) {
      std::fprintf(stderr, "delta bench: replay sweep failed at threads=%zu\n",
                   t);
      return false;
    }
    r.replay_sweep.emplace_back(t, ms);
    for (size_t v = 0; v < sweep_replayed.size(); ++v) {
      if (!GraphsBitIdentical(sweep_replayed[v], replayed[v])) {
        std::fprintf(stderr,
                     "FAIL: threads=%zu replay diverged at version %zu\n", t,
                     v);
        r.sweep_equal = false;
      }
    }
  }
  return true;
  }();
  for (const std::string& p : nt_paths) std::filesystem::remove(p);
  for (const std::string& p : snap_paths) std::filesystem::remove(p);
  for (const std::string& p : delta_paths) std::filesystem::remove(p);
  if (!point_ok) return false;
  *out = r;
  return true;
}

bool WriteJson(const std::string& path, const std::vector<PointResult>& points,
               const std::vector<DictPointResult>& dict_points,
               const std::vector<DeltaPointResult>& delta_points,
               double scale, uint64_t seed, size_t runs) {
  bench::JsonReport json(
      "store_load", scale, seed, runs,
      "single-process wall clock; hardware_threads records the recording "
      "box — on a 1-core box the replay_threads_sweep is expected to stay "
      "flat; dict_points raw_dict_bytes is computed as (terms + 1) x 8 + "
      "total term bytes, the version-1 layout no writer emits");
  json.Array("points", points, [&](const PointResult& r) {
    json.Field("scale_point", "%g", r.scale_point);
    json.Field("nodes", "%zu", r.nodes);
    json.Field("edges", "%zu", r.edges);
    json.Field("terms", "%zu", r.terms);
    json.Field("nt_bytes", "%llu", (unsigned long long)r.nt_bytes);
    json.Field("snap_bytes", "%llu", (unsigned long long)r.snap_bytes);
    json.Field("reparse_ms", "%.2f", r.reparse_ms);
    json.Field("load_ms", "%.2f", r.load_ms);
    json.Field("mmap_ms", "%.2f", r.mmap_ms);
    json.Field("speedup_load", "%.2f",
               r.load_ms > 0 ? r.reparse_ms / r.load_ms : 0.0);
    json.Field("speedup_mmap", "%.2f",
               r.mmap_ms > 0 ? r.reparse_ms / r.mmap_ms : 0.0);
    json.Bool("equal", r.equal);
  });
  json.Array("dict_points", dict_points, [&](const DictPointResult& r) {
    json.Field("scale_point", "%g", r.scale_point);
    json.Field("nodes", "%zu", r.nodes);
    json.Field("edges", "%zu", r.edges);
    json.Field("terms", "%zu", r.terms);
    json.Field("fc_file_bytes", "%llu", (unsigned long long)r.fc_file_bytes);
    json.Field("raw_dict_bytes", "%llu",
               (unsigned long long)r.raw_dict_bytes);
    json.Field("fc_dict_bytes", "%llu", (unsigned long long)r.fc_dict_bytes);
    json.Field("dict_ratio", "%.2f",
               r.fc_dict_bytes > 0
                   ? static_cast<double>(r.raw_dict_bytes) /
                         static_cast<double>(r.fc_dict_bytes)
                   : 0.0);
    json.Field("fc_load_ms", "%.2f", r.fc_load_ms);
    json.Field("fc_intern_mtps", "%.2f", r.fc_intern_mtps);
    json.Bool("roundtrip", r.roundtrip);
    json.Bool("equal", r.equal);
  });
  json.Array("delta_points", delta_points, [&](const DeltaPointResult& r) {
    json.Field("scale_point", "%g", r.scale_point);
    json.Field("versions", "%zu", r.versions);
    json.Field("nodes", "%zu", r.nodes);
    json.Field("edges", "%zu", r.edges);
    json.Field("snap_total_bytes", "%llu",
               (unsigned long long)r.snap_total_bytes);
    json.Field("delta_total_bytes", "%llu",
               (unsigned long long)r.delta_total_bytes);
    json.Field("bytes_ratio", "%.2f",
               r.delta_total_bytes > 0
                   ? static_cast<double>(r.snap_total_bytes) /
                         static_cast<double>(r.delta_total_bytes)
                   : 0.0);
    json.Field("reparse_ms", "%.2f", r.reparse_ms);
    json.Field("snap_load_ms", "%.2f", r.snap_load_ms);
    json.Field("replay_ms", "%.2f", r.replay_ms);
    json.Field("speedup_replay_vs_reparse", "%.2f",
               r.replay_ms > 0 ? r.reparse_ms / r.replay_ms : 0.0);
    json.Raw("replay_threads_sweep", bench::SweepJson(r.replay_sweep));
    json.Bool("sweep_equal", r.sweep_equal);
    json.Bool("equal", r.equal);
  });
  return json.Write(path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t seed = flags.GetInt("seed", 5);
  const size_t runs = static_cast<size_t>(flags.GetInt("runs", 3));
  const size_t versions = static_cast<size_t>(flags.GetInt("versions", 4));
  const std::string mode = flags.GetString("mode", "all");
  const std::string out = flags.GetString("out", "BENCH_store.json");
  if (mode != "all" && mode != "snapshot" && mode != "delta" &&
      mode != "dict") {
    std::fprintf(stderr, "--mode must be all, snapshot, delta, or dict\n");
    return 1;
  }
  // Range-checked like every rdfalign numeric flag; a negative value
  // wraps through the unsigned parse and lands above the cap.
  if (versions < 1 || versions > 1000) {
    std::fprintf(stderr, "--versions must be in [1, 1000]\n");
    return 1;
  }

  bench::Banner("Snapshot store load A/B",
                "N-Triples reparse vs buffered snapshot load vs mmap "
                "zero-copy load; delta-chain replay vs per-version "
                "snapshots vs reparse");

  const std::string tmp_prefix =
      (std::filesystem::temp_directory_path() /
       ("rdfalign_store_bench_" + std::to_string(seed)))
          .string();

  // The fig16 ladder: quarter, full, and 4x scale (the 4x point matches
  // BENCH_refinement.json's workload size).
  bool all_equal = true;
  std::vector<PointResult> points;
  std::vector<DictPointResult> dict_points;
  std::vector<DeltaPointResult> delta_points;
  if (mode == "all" || mode == "snapshot") {
    for (double point : {0.25 * scale, 1.0 * scale, 4.0 * scale}) {
      PointResult r;
      if (!RunPoint(point, seed, runs, tmp_prefix, &r)) return 1;
      points.push_back(r);
    }
    bench::TablePrinter table({"nodes", "edges", "nt(KB)", "snap(KB)",
                               "parse(ms)", "load(ms)", "mmap(ms)", "mmap-x",
                               "equal"});
    for (const PointResult& r : points) {
      table.Row({bench::FmtInt(r.nodes), bench::FmtInt(r.edges),
                 bench::FmtInt(r.nt_bytes / 1024),
                 bench::FmtInt(r.snap_bytes / 1024),
                 bench::Fmt("%.1f", r.reparse_ms),
                 bench::Fmt("%.1f", r.load_ms), bench::Fmt("%.1f", r.mmap_ms),
                 bench::Fmt("%.1fx",
                            r.mmap_ms > 0 ? r.reparse_ms / r.mmap_ms : 0.0),
                 r.equal ? "yes" : "NO"});
      all_equal = all_equal && r.equal;
    }
  }
  if (mode == "all" || mode == "dict") {
    for (double point : {0.25 * scale, 1.0 * scale, 4.0 * scale}) {
      DictPointResult r;
      if (!RunDictPoint(point, seed, runs, tmp_prefix, &r)) return 1;
      dict_points.push_back(r);
    }
    std::printf("\nfront-coded vs (computed) raw dictionary:\n");
    bench::TablePrinter table({"terms", "rawdict(KB)", "fcdict(KB)", "dict-x",
                               "fcload(ms)", "fc-Mt/s", "roundtrip",
                               "equal"});
    for (const DictPointResult& r : dict_points) {
      table.Row({bench::FmtInt(r.terms),
                 bench::FmtInt(r.raw_dict_bytes / 1024),
                 bench::FmtInt(r.fc_dict_bytes / 1024),
                 bench::Fmt("%.1fx",
                            r.fc_dict_bytes > 0
                                ? static_cast<double>(r.raw_dict_bytes) /
                                      static_cast<double>(r.fc_dict_bytes)
                                : 0.0),
                 bench::Fmt("%.1f", r.fc_load_ms),
                 bench::Fmt("%.2f", r.fc_intern_mtps),
                 r.roundtrip ? "yes" : "NO", r.equal ? "yes" : "NO"});
      all_equal = all_equal && r.equal && r.roundtrip;
    }
  }
  if (mode == "all" || mode == "delta") {
    for (double point : {0.25 * scale, 1.0 * scale, 4.0 * scale}) {
      DeltaPointResult r;
      if (!RunDeltaPoint(point, seed, runs, versions, tmp_prefix, &r)) {
        return 1;
      }
      delta_points.push_back(r);
    }
    std::printf("\ndelta chains (%zu versions each):\n", versions);
    bench::TablePrinter table({"nodes", "edges", "snaps(KB)", "deltas(KB)",
                               "parse(ms)", "snaps(ms)", "replay(ms)",
                               "bytes-x", "equal"});
    for (const DeltaPointResult& r : delta_points) {
      table.Row(
          {bench::FmtInt(r.nodes), bench::FmtInt(r.edges),
           bench::FmtInt(r.snap_total_bytes / 1024),
           bench::FmtInt(r.delta_total_bytes / 1024),
           bench::Fmt("%.1f", r.reparse_ms),
           bench::Fmt("%.1f", r.snap_load_ms),
           bench::Fmt("%.1f", r.replay_ms),
           bench::Fmt("%.1fx",
                      r.delta_total_bytes > 0
                          ? static_cast<double>(r.snap_total_bytes) /
                                static_cast<double>(r.delta_total_bytes)
                          : 0.0),
           r.equal && r.sweep_equal ? "yes" : "NO"});
      all_equal = all_equal && r.equal && r.sweep_equal;
    }
  }
  const bool wrote =
      WriteJson(out, points, dict_points, delta_points, scale, seed, runs);
  if (wrote) std::printf("\nwrote %s\n", out.c_str());
  return all_equal && wrote ? 0 : 1;
}
