// Outside-in tracing for the end-to-end benchmark.
//
// The program has no spans of its own yet, so the traced pass rebuilds
// each request from the public calls of the layers it passes through, in
// the verb's own order (service/verbs.cc, service/stream_verbs.cc), and
// records a span around every call. Each rebuilt request renders the same
// body the verb would; e2e_bench.cc compares it with the verb's output so
// the rebuild cannot drift from the product path unnoticed.

#ifndef RDFALIGN_E2EBENCH_REBUILD_H_
#define RDFALIGN_E2EBENCH_REBUILD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/aligner.h"
#include "service/graph_source.h"
#include "stream/stream_aligner.h"
#include "util/result.h"

namespace e2ebench {

/// Spans kept in memory for the whole run: name, start, end, parent and
/// the request they belong to. Counters hang off the span that was open
/// when they were recorded.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    int request = -1;
    bool probe = false;  ///< recorded by a layer probe, not the workload path
  };
  struct Counter {
    std::string name;
    double value = 0;
    int span = -1;
  };

  /// Opens a span; one opened while no span is open is the root of a
  /// new request.
  int Begin(const std::string& name);
  void End(int span);
  void Count(const std::string& name, double value);

  /// Marks the spans opened from now on as probe spans.
  void set_probe(bool probe) { probe_ = probe; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Counter>& counters() const { return counters_; }

 private:
  double NowMs() const;

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  int open_ = -1;
  int request_ = -1;
  bool probe_ = false;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name) : t_(t), span_(t->Begin(name)) {}
  ~Scope() { t_->End(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  int span_;
};

/// Replaces the value of every volatile field (timings, the resolved
/// thread count, the random session token) with `_`, so bodies from runs
/// with different timings and --threads compare equal.
std::string Scrub(const std::string& body);

/// Flags of one rebuilt request, as the verb would parse them.
struct RequestFlags {
  size_t threads = 1;
  bool mmap = false;
};

/// align <a> <b> --method=M --json
rdfalign::Result<std::string> TracedAlign(
    Tracer* t, rdfalign::service::GraphSource* source, const std::string& a,
    const std::string& b, rdfalign::AlignMethod method,
    const RequestFlags& flags);

/// diff <base> <next> <out> --json (hybrid)
rdfalign::Result<std::string> TracedDiff(
    Tracer* t, rdfalign::service::GraphSource* source,
    const std::string& base, const std::string& next, const std::string& out,
    const RequestFlags& flags);

/// patch <base> <delta> <out> --json. `fingerprint` receives the
/// GraphFingerprint of the reconstructed graph.
rdfalign::Result<std::string> TracedPatch(
    Tracer* t, rdfalign::service::GraphSource* source,
    const std::string& base, const std::string& delta, const std::string& out,
    const RequestFlags& flags, uint64_t* fingerprint);

/// One streaming session (method deblank), rebuilt request by request.
class TracedStream {
 public:
  TracedStream(Tracer* t, rdfalign::service::GraphSource* source)
      : t_(t), source_(source) {}

  rdfalign::Result<std::string> Open(const std::string& src,
                                     const std::string& tgt,
                                     const RequestFlags& flags);
  rdfalign::Result<std::string> Push(const std::string& fragment);
  rdfalign::Result<std::string> Check(const std::string& final_target);
  std::string Close();

 private:
  Tracer* t_;
  rdfalign::service::GraphSource* source_;
  RequestFlags flags_;
  std::string source_path_;
  std::unique_ptr<rdfalign::stream::StreamAligner> aligner_;
  uint64_t fragments_ = 0;
  uint64_t pairs_added_total_ = 0;
  uint64_t pairs_removed_total_ = 0;
};

}  // namespace e2ebench

#endif  // RDFALIGN_E2EBENCH_REBUILD_H_
