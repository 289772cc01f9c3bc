// e2e_bench: the end-to-end, layer-by-layer benchmark of rdfalign.
//
//   e2e_bench --workload=cli_chain|daemon_hot|stream_push --seed=N
//             --seconds=S --trace=0|1 --work=DIR --daemon=PATH
//             [--scale=F] [--corrupt-reference]
//
// Normally started by run.py, which builds this binary and rdfalignd from
// the sources of the checkout. Every request goes through the product
// entry points: ExecuteVerb with a DirectGraphSource (what tools/rdfalign.cc
// does) or a loopback rdfalignd spawned from PATH. Every response is
// compared with a reference recorded in set-up from a --threads=1 direct
// run. --trace=0 prints the end-to-end metrics; --trace=1 rebuilds the
// requests from public layer calls (rebuild.h) and prints the per-layer
// metrics. The last stdout line is one JSON object; see METRICS.md.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/alignment.h"
#include "core/hybrid.h"
#include "gen/efo_gen.h"
#include "rdf/merge.h"
#include "rebuild.h"
#include "service/client.h"
#include "service/flags.h"
#include "service/json.h"
#include "service/snapshot_cache.h"
#include "service/stream_verbs.h"
#include "service/verbs.h"
#include "store/delta.h"
#include "store/snapshot.h"
#include "store/update_fragment.h"
#include "util/stats.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
namespace svc = rdfalign::service;
using rdfalign::AlignMethod;
using rdfalign::Result;
using rdfalign::Status;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  return 1;
}

/// Peak resident set (VmHWM) of `pid` ("self" for this process), MiB.
double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

/// Resets this process's VmHWM so the peak covers serving only.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// ------------------------------------------------------------------ daemon

/// A loopback rdfalignd child. The destructor stops it and waits for it.
class Daemon {
 public:
  static Result<std::unique_ptr<Daemon>> Start(const std::string& binary) {
    int fds[2];
    if (pipe(fds) != 0) return Status::Internal("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(binary.c_str(), binary.c_str(), "--port=0", "--workers=4",
            "--cache-mb=2048", "--drain-ms=2000", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    auto d = std::unique_ptr<Daemon>(new Daemon(pid, fds[0]));
    // Readiness is the "listening on host:port" line.
    std::string out;
    const auto t0 = Clock::now();
    while (out.find('\n') == std::string::npos && MsSince(t0) < 30000) {
      pollfd p{fds[0], POLLIN, 0};
      if (poll(&p, 1, 1000) <= 0) continue;
      char buf[256];
      const ssize_t n = read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    const size_t at = out.find("listening on ");
    const size_t colon = out.find(':', at == std::string::npos ? 0 : at + 13);
    if (at == std::string::npos || colon == std::string::npos) {
      return Status::Internal("rdfalignd did not start: " + out);
    }
    d->port_ = std::atoi(out.c_str() + colon + 1);
    return d;
  }

  ~Daemon() {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (MsSince(t0) > 10000) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(10000);
    }
    close(out_fd_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  double PeakRss() const { return PeakRssMb(std::to_string(pid_)); }

 private:
  Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

  pid_t pid_;
  int out_fd_;
  int port_ = 0;
};

// ---------------------------------------------------------------- requests

/// One request of a workload's closed loop, with its reference output.
struct Request {
  std::string kind;  ///< align | overlap | hybrid | diff | patch | open | ...
  std::vector<std::string> tokens;
  const std::string* payload = nullptr;  ///< stream push fragment
  std::string ref;                       ///< scrubbed reference body
  std::string patched;                   ///< patch: the snapshot it writes
  uint64_t ref_fingerprint = 0;          ///< patch: GraphFingerprint
};

Request MakeRequest(std::string kind, std::vector<std::string> tokens,
                    const std::string* payload = nullptr) {
  Request r;
  r.kind = std::move(kind);
  r.tokens = std::move(tokens);
  r.payload = payload;
  return r;
}

struct Outcome {
  int exit_code = 1;
  std::string body;
  std::string error;
};

using Runner = std::function<Outcome(const Request&)>;

Outcome FromVerb(const svc::VerbResult& r) {
  return Outcome{r.exit_code, r.output, r.error};
}

/// ExecuteVerb (or, for `stream`, HandleStreamVerb) in this process.
class InProcess {
 public:
  explicit InProcess(svc::GraphSource* source) : source_(source) {}
  Outcome operator()(const Request& r) {
    if (r.tokens[0] == "stream") {
      static const std::string kNone;
      return FromVerb(svc::HandleStreamVerb(
          r.tokens, r.payload ? *r.payload : kNone, &session_, source_,
          nullptr));
    }
    return FromVerb(svc::ExecuteVerb(r.tokens, source_, false));
  }

 private:
  svc::GraphSource* source_;
  std::unique_ptr<svc::StreamSession> session_;
};

Runner Remote(svc::Client* client) {
  return [client](const Request& r) {
    Result<svc::ClientResponse> resp =
        r.payload ? client->CallWithPayload(r.tokens, *r.payload)
                  : client->Call(r.tokens);
    if (!resp.ok()) return Outcome{1, "", resp.status().ToString()};
    return Outcome{resp->exit_code, resp->body, resp->error};
  };
}

/// Empty when `o` is the reference output of `r`, else what differs.
std::string Verify(const Request& r, const Outcome& o) {
  if (o.exit_code != 0) {
    return r.kind + ": exit " + std::to_string(o.exit_code) + ": " + o.error;
  }
  if (Scrub(o.body) != r.ref) return r.kind + ": body differs from reference";
  if (!r.patched.empty()) {
    Result<rdfalign::TripleGraph> g = rdfalign::store::LoadSnapshot(r.patched,
                                                                    nullptr);
    if (!g.ok() || rdfalign::store::GraphFingerprint(*g) != r.ref_fingerprint) {
      return r.kind + ": patched graph fingerprint differs from reference";
    }
  }
  return "";
}

// -------------------------------------------------------------- workloads

enum class Kind { kCliChain, kDaemonHot, kStreamPush };

struct Options {
  std::string workload;
  Kind kind = Kind::kCliChain;
  long long seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work;
  std::string daemon;
  double scale = 1;
  bool corrupt_reference = false;
};

struct VersionInfo {
  std::string path;
  long long nodes = 0;
  long long triples = 0;
  uintmax_t bytes = 0;
};

/// Everything set-up leaves behind for one measured run.
struct Inputs {
  std::string dir;
  std::vector<VersionInfo> versions;
  std::vector<std::string> fragment_paths;
  std::vector<std::string> fragments;  ///< fragment bytes, pushed as read
  std::unique_ptr<Daemon> daemon;
};

RequestFlags WorkloadFlags(Kind kind) {
  return kind == Kind::kCliChain ? RequestFlags{4, true} : RequestFlags{2, false};
}

std::vector<std::string> FlagTokens(const RequestFlags& f) {
  std::vector<std::string> t{"--threads=" + std::to_string(f.threads),
                             "--json"};
  if (f.mmap) t.push_back("--mmap");
  return t;
}

std::vector<std::string> Tokens(std::vector<std::string> head,
                                const RequestFlags& f) {
  for (std::string& s : FlagTokens(f)) head.push_back(std::move(s));
  return head;
}

Status Verb(const std::vector<std::string>& tokens, std::string* body) {
  svc::DirectGraphSource direct;
  svc::VerbResult r = svc::ExecuteVerb(tokens, &direct, false);
  if (r.exit_code != 0) {
    return Status::Internal(tokens[0] + " failed: " + r.error);
  }
  if (body) *body = r.output;
  return Status::OK();
}

/// Builds a snapshot from an N-Triples file with the `build` verb.
Status BuildVersion(const std::string& nt, const std::string& snap,
                    VersionInfo* info) {
  std::string body;
  RDFALIGN_RETURN_IF_ERROR(Verb({"build", nt, snap, "--json"}, &body));
  fs::remove(nt);
  info->path = snap;
  info->nodes = svc::JsonFindInt(body, "nodes", 0);
  info->triples = svc::JsonFindInt(body, "triples", 0);
  info->bytes = fs::file_size(snap);
  return Status::OK();
}

/// Generate inputs, build snapshots (and fragments), start the daemon and
/// warm its cache: the work setup_s times.
Status SetUp(const Options& o, bool with_fragments, Inputs* in) {
  fs::create_directories(in->dir);
  if (o.kind == Kind::kCliChain) {
    // The `gen` verb's DBpedia-category chain (Fig. 16) at scale 4.
    char scale[32];
    std::snprintf(scale, sizeof(scale), "--scale=%g", 4 * o.scale);
    RDFALIGN_RETURN_IF_ERROR(Verb({"gen", in->dir + "/v", scale,
                                   "--versions=3",
                                   "--seed=" + std::to_string(o.seed)},
                                  nullptr));
    for (int v = 1; v <= 3; ++v) {
      VersionInfo info;
      RDFALIGN_RETURN_IF_ERROR(BuildVersion(
          in->dir + "/v" + std::to_string(v) + ".nt",
          in->dir + "/v" + std::to_string(v) + ".snap", &info));
      in->versions.push_back(info);
    }
  } else {
    // An EFO-style ontology chain: blanks, literal edits, the prefix
    // migration at version 7.
    rdfalign::gen::EfoOptions options;
    options.initial_classes =
        std::max<size_t>(50, static_cast<size_t>(8000 * o.scale));
    options.versions = 8;
    options.seed = static_cast<uint64_t>(o.seed);
    const rdfalign::gen::EfoChain chain =
        rdfalign::gen::EfoChain::Generate(options);
    for (size_t v = 0; v < chain.NumVersions(); ++v) {
      const rdfalign::TripleGraph& g = chain.Version(v);
      VersionInfo info;
      info.path = in->dir + "/v" + std::to_string(v + 1) + ".snap";
      RDFALIGN_RETURN_IF_ERROR(rdfalign::store::WriteSnapshot(g, info.path));
      info.nodes = static_cast<long long>(g.NumNodes());
      info.triples = static_cast<long long>(g.NumEdges());
      info.bytes = fs::file_size(info.path);
      in->versions.push_back(info);
    }
  }
  if (with_fragments) {
    for (size_t i = 0; i + 1 < in->versions.size(); ++i) {
      const std::string path = in->dir + "/u" + std::to_string(i + 1) + ".rdfu";
      RDFALIGN_RETURN_IF_ERROR(Verb({"updates", in->versions[i].path,
                                     in->versions[i + 1].path, path,
                                     "--seq=" + std::to_string(i + 1)},
                                    nullptr));
      RDFALIGN_ASSIGN_OR_RETURN(std::string bytes,
                                rdfalign::store::ReadFileBytes(path));
      in->fragment_paths.push_back(path);
      in->fragments.push_back(std::move(bytes));
    }
  }
  if (o.kind != Kind::kCliChain) {
    RDFALIGN_ASSIGN_OR_RETURN(in->daemon, Daemon::Start(o.daemon));
    RDFALIGN_ASSIGN_OR_RETURN(svc::Client c,
                              svc::Client::Connect("127.0.0.1",
                                                   in->daemon->port()));
    // `info --json` fingerprints through the cache, loading each version.
    for (const VersionInfo& v : in->versions) {
      if (o.kind == Kind::kStreamPush && &v != &in->versions.front() &&
          &v != &in->versions.back()) {
        continue;
      }
      RDFALIGN_ASSIGN_OR_RETURN(svc::ClientResponse r,
                                c.Call({"info", v.path, "--json"}));
      if (!r.ok) return Status::Internal("warm-up failed: " + r.error);
    }
  }
  return Status::OK();
}

/// The workload's request sequence with --threads=1 direct references.
Result<std::vector<Request>> References(const Options& o, Inputs* in) {
  const RequestFlags flags = WorkloadFlags(o.kind);
  const RequestFlags ref_flags{1, flags.mmap};
  std::vector<Request> reqs;
  const auto& v = in->versions;
  if (o.kind == Kind::kCliChain) {
    for (size_t i = 0; i + 1 < v.size(); ++i) {
      const std::string delta = in->dir + "/d" + std::to_string(i + 1) + ".delta";
      const std::string out = in->dir + "/p" + std::to_string(i + 1) + ".snap";
      reqs.push_back(MakeRequest(
          "align", {"align", v[i].path, v[i + 1].path, "--method=hybrid"}));
      reqs.push_back(
          MakeRequest("diff", {"diff", v[i].path, v[i + 1].path, delta}));
      reqs.push_back(MakeRequest("patch", {"patch", v[i].path, delta, out}));
      reqs.back().patched = out;
    }
  } else if (o.kind == Kind::kDaemonHot) {
    for (size_t i = 0; i + 1 < v.size(); ++i) {
      for (const char* m : {"overlap", "hybrid"}) {
        reqs.push_back(MakeRequest(m, {"align", v[i].path, v[i + 1].path,
                                       std::string("--method=") + m}));
      }
    }
  } else {
    reqs.push_back(MakeRequest("open", {"stream", "open", v.front().path,
                                        v.front().path, "--method=deblank"}));
    for (const std::string& f : in->fragments) {
      reqs.push_back(MakeRequest("push", {"stream", "push", "--json"}, &f));
    }
    reqs.push_back(
        MakeRequest("check", {"stream", "check", v.back().path, "--json"}));
    reqs.push_back(MakeRequest("close", {"stream", "close", "--json"}));
  }

  svc::DirectGraphSource direct;
  InProcess ref_runner(&direct);
  for (Request& r : reqs) {
    std::vector<std::string> ref_tokens = r.tokens;
    if (r.kind != "push" && r.kind != "check" && r.kind != "close") {
      for (std::string& s : FlagTokens(ref_flags)) ref_tokens.push_back(s);
      for (std::string& s : FlagTokens(flags)) r.tokens.push_back(s);
    }
    Request ref_req = r;
    ref_req.tokens = ref_tokens;
    const Outcome out = ref_runner(ref_req);
    if (out.exit_code != 0) {
      return Status::Internal("reference " + r.kind + " failed: " + out.error);
    }
    r.ref = Scrub(out.body);
    if (!r.patched.empty()) {
      // The patched version must be the next version, up to dictionary
      // order: an independent check of the reference itself.
      const size_t i = (&r - reqs.data()) / 3;
      uint64_t fps[2];
      const std::string paths[2] = {r.patched, v[i + 1].path};
      for (int k = 0; k < 2; ++k) {
        RDFALIGN_ASSIGN_OR_RETURN(rdfalign::TripleGraph g,
                                  rdfalign::store::LoadSnapshot(paths[k],
                                                                nullptr));
        fps[k] = rdfalign::store::GraphFingerprint(g);
      }
      if (fps[0] != fps[1]) {
        return Status::Internal("reference patch does not reproduce " +
                                v[i + 1].path);
      }
      r.ref_fingerprint = fps[0];
    }
    if (r.kind == "check" &&
        !svc::JsonFindBool(out.body, "equivalent", false)) {
      return Status::Internal("reference stream check is not equivalent");
    }
  }
  if (o.corrupt_reference) reqs.front().ref += "corrupted";
  return reqs;
}

// ------------------------------------------------------------ closed loop

struct Sample {
  std::string kind;
  double ms = 0;
  bool ok = false;
};

struct LoopResult {
  std::vector<Sample> samples;
  double throughput_rps = 0;
  std::vector<std::string> errors;
  double updates = 0;    ///< stream: applied adds + removes
  double push_ms = 0;    ///< stream: wall time of the pushes
};

/// One client walking `reqs` cyclically from `start` until `deadline`.
void ClientLoop(const std::vector<Request>& reqs, size_t start,
                Clock::time_point deadline, Runner run, LoopResult* out) {
  double busy_ms = 0;
  size_t n = 0;
  for (size_t j = start;; j = (j + 1) % reqs.size()) {
    const Request& r = reqs[j];
    // A stream session is opened, fed and closed as one unit.
    const bool in_session =
        r.kind == "push" || r.kind == "check" || r.kind == "close";
    if (n > 0 && !in_session && Clock::now() >= deadline) break;
    const auto t0 = Clock::now();
    const Outcome o = run(r);
    const double ms = MsSince(t0);
    busy_ms += ms;
    ++n;
    const std::string err = Verify(r, o);
    out->samples.push_back({r.kind, ms, err.empty()});
    if (!err.empty()) out->errors.push_back(err);
    if (r.kind == "push") {
      out->push_ms += ms;
      out->updates += svc::JsonFindInt(o.body, "applied_adds", 0) +
                      svc::JsonFindInt(o.body, "applied_removes", 0);
    }
  }
  out->throughput_rps = busy_ms > 0 ? 1000.0 * n / busy_ms : 0;
}

void PrintTable(const char* title,
                const std::vector<std::pair<std::string, std::string>>& rows) {
  std::printf("%s\n", title);
  for (const auto& [k, v] : rows) std::printf("  %-34s %s\n", k.c_str(), v.c_str());
}

std::string Fmt(double v, const char* unit = "") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f%s", v, unit);
  return buf;
}

struct RunReport {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;
};

void EmitResult(const RunReport& r) {
  std::string m;
  for (const auto& [name, value, unit] : r.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", name.c_str(),
                  std::isfinite(value) ? value : 0.0, unit.c_str());
    m += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false", r.attempted, r.failed, m.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Options& o, const Inputs& in) {
  const RequestFlags f = WorkloadFlags(o.kind);
  std::printf("provenance: {\"workload\": \"%s\", \"seed\": %lld, "
              "\"hardware_threads\": %u, \"clients\": %d, "
              "\"request_threads\": %zu, \"mmap\": %s, \"loop\": \"closed\", "
              "\"flush\": \"atomic writer: write, fsync file, rename, fsync "
              "dir\", \"versions\": [",
              o.workload.c_str(), o.seed, std::thread::hardware_concurrency(),
              o.kind == Kind::kDaemonHot ? 2 : 1, f.threads,
              f.mmap ? "true" : "false");
  for (size_t i = 0; i < in.versions.size(); ++i) {
    const VersionInfo& v = in.versions[i];
    std::printf("%s{\"nodes\": %lld, \"triples\": %lld, \"bytes\": %ju}",
                i ? ", " : "", v.nodes, v.triples, v.bytes);
  }
  std::printf("]}\n");
}

// -------------------------------------------------------- untraced (e2e)

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

int RunUntraced(const Options& o) {
  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    in = Inputs{};  // stops the previous repetition's daemon
    in.dir = o.work + "/rep" + std::to_string(rep);
    const auto t0 = Clock::now();
    Status st = SetUp(o, o.kind == Kind::kStreamPush, &in);
    setup_s.push_back(MsSince(t0) / 1000);
    if (!st.ok()) return Fail("set-up failed: " + st.ToString());
    if (rep + 1 < kSetupReps) {
      in.daemon.reset();
      fs::remove_all(in.dir);
    }
  }
  Result<std::vector<Request>> reqs = References(o, &in);
  if (!reqs.ok()) return Fail(reqs.status().ToString());
  PrintProvenance(o, in);

  const int clients = o.kind == Kind::kDaemonHot ? 2 : 1;
  std::vector<svc::Client> conns;
  for (int c = 0; c < clients && in.daemon; ++c) {
    Result<svc::Client> conn = svc::Client::Connect("127.0.0.1",
                                                    in.daemon->port());
    if (!conn.ok()) return Fail(conn.status().ToString());
    conns.push_back(std::move(*conn));
  }
  svc::DirectGraphSource direct;
  ResetPeakRss();
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<long>(o.seconds * 1000));
  std::vector<LoopResult> loops(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    Runner run;
    if (in.daemon) {
      run = Remote(&conns[c]);
    } else {
      run = [ip = std::make_shared<InProcess>(&direct)](const Request& r) {
        return (*ip)(r);
      };
    }
    const size_t start = c * reqs->size() / clients;
    threads.emplace_back(ClientLoop, std::cref(*reqs), start, deadline, run,
                         &loops[c]);
  }
  for (std::thread& t : threads) t.join();
  const double rss = in.daemon ? in.daemon->PeakRss() : PeakRssMb("self");

  RunReport res;
  std::vector<double> all;
  std::map<std::string, std::vector<double>> by_kind;
  double throughput = 0, updates = 0, push_ms = 0;
  for (const LoopResult& l : loops) {
    for (const Sample& s : l.samples) {
      all.push_back(s.ms);
      by_kind[s.kind].push_back(s.ms);
      ++res.attempted;
      if (!s.ok) ++res.failed;
    }
    for (size_t e = 0; e < l.errors.size() && e < 5; ++e) {
      std::printf("FAILED %s\n", l.errors[e].c_str());
    }
    throughput += l.throughput_rps;
    updates += l.updates;
    push_ms += l.push_ms;
  }
  const size_t n = all.size();
  // The highest whole percentile that leaves at least ten samples above it.
  const double tail_pct =
      n > 10 ? std::floor(100.0 * (n - 10) / n) : 100.0;
  const double tail = rdfalign::Percentile(all, tail_pct / 100);
  res.correct = res.failed == 0;

  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [kind, ms] : by_kind) {
    rows.push_back({kind + "_p50_ms", Fmt(Median(ms)) + " (" +
                                          std::to_string(ms.size()) + " requests)"});
  }
  rows.push_back({"latency_tail", "p" + std::to_string(int(tail_pct)) + " of " +
                                      std::to_string(n) + " samples = " +
                                      Fmt(tail, " ms")});
  rows.push_back({"failed_frac", Fmt(double(res.failed) / std::max<size_t>(1, n))});
  if (push_ms > 0) rows.push_back({"updates_per_s", Fmt(1000 * updates / push_ms)});
  rows.push_back({"setup_s (per repetition)", [&] {
                    std::string s;
                    for (double x : setup_s) s += Fmt(x) + " ";
                    return s;
                  }()});
  PrintTable(("workload " + o.workload + " (untraced)").c_str(), rows);

  res.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"latency_p50_ms", Median(all), "ms"},
      {"latency_tail_ms", tail, "ms"},
      {"throughput_rps", throughput, "req/s"},
      {"ok_frac", double(n - res.failed) / std::max<size_t>(1, n), "ratio"},
      {"peak_rss_mb", rss, "MiB"},
  };
  conns.clear();
  in.daemon.reset();
  EmitResult(res);
  return 0;
}

// ----------------------------------------------------------- traced pass

/// Per-span-name samples from a tracer: path spans when the workload's
/// own requests made any, probe spans otherwise.
struct LayerView {
  const Tracer& t;
  bool FromPath(const std::string& name) const {
    for (const Tracer::Span& s : t.spans()) {
      if (s.name == name && !s.probe) return true;
    }
    return false;
  }
  std::vector<double> Durations(const std::string& name) const {
    const bool path = FromPath(name);
    std::vector<double> out;
    for (const Tracer::Span& s : t.spans()) {
      if (s.name == name && s.probe != path) out.push_back(s.end_ms - s.start_ms);
    }
    return out;
  }
  std::vector<double> Counts(const std::string& name) const {
    std::vector<double> path, probe;
    for (const Tracer::Counter& c : t.counters()) {
      if (c.name != name) continue;
      (t.spans()[c.span].probe ? probe : path).push_back(c.value);
    }
    return path.empty() ? probe : path;
  }
  double MedianMs(const std::string& name) const { return Median(Durations(name)); }
  double MedianCount(const std::string& name) const { return Median(Counts(name)); }
  double Mean(const std::string& name) const {
    std::vector<double> v = Counts(name);
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / v.size();
  }
};

/// Self time of every request root (the unattributed remainder) and the
/// share of its wall time its layer spans cover, per verb.
struct Coverage {
  std::map<std::string, std::vector<double>> wall, unattributed, covered;
};

/// Wall time of the request whose root span is `root`, without the
/// benchmark's own bench.* checks: they are not part of the verb.
double RequestWall(const Tracer& t, size_t root) {
  const Tracer::Span& r = t.spans()[root];
  double ms = r.end_ms - r.start_ms;
  for (size_t i = root + 1; i < t.spans().size() && t.spans()[i].parent >= 0;
       ++i) {
    const Tracer::Span& s = t.spans()[i];
    if (s.parent == static_cast<int>(root) && s.name.rfind("bench.", 0) == 0) {
      ms -= s.end_ms - s.start_ms;
    }
  }
  return ms;
}

Coverage ComputeCoverage(const Tracer& t, bool probe) {
  Coverage c;
  std::vector<double> child_ms(t.spans().size(), 0);
  for (const Tracer::Span& s : t.spans()) {
    if (s.parent >= 0 && s.name.rfind("bench.", 0) != 0) {
      child_ms[s.parent] += s.end_ms - s.start_ms;
    }
  }
  for (size_t i = 0; i < t.spans().size(); ++i) {
    const Tracer::Span& s = t.spans()[i];
    if (s.parent >= 0 || s.probe != probe) continue;
    const double wall = RequestWall(t, i);
    c.wall[s.name].push_back(wall);
    c.unattributed[s.name].push_back(wall - child_ms[i]);
    c.covered[s.name].push_back(wall > 0 ? child_ms[i] / wall : 1);
  }
  return c;
}

/// How far a rebuilt request's median wall time may stray from its verb's
/// before the rebuild counts as no longer following the verb: either one
/// slower than the other by more than this share, and by more than a floor
/// for requests of a few milliseconds.
constexpr double kDriftBound = 0.25;
constexpr double kDriftFloorMs = 2;

bool Drifted(double rebuilt_ms, double verb_ms) {
  if (std::abs(rebuilt_ms - verb_ms) <= kDriftFloorMs) return false;
  return rebuilt_ms > (1 + kDriftBound) * verb_ms ||
         verb_ms > (1 + kDriftBound) * rebuilt_ms;
}

/// Times `fn` at threads 1, 2 and 4 (median of `reps`), returns t1/t4.
double Speedup(const char* name, int reps, const std::function<void(size_t)>& fn) {
  double med[3];
  const size_t threads[3] = {1, 2, 4};
  for (int k = 0; k < 3; ++k) {
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      fn(threads[k]);
      ms.push_back(MsSince(t0));
    }
    med[k] = Median(ms);
  }
  std::printf("  pool sweep %-12s t1 %8.3f ms  t2 %8.3f ms  t4 %8.3f ms\n", name,
              med[0], med[1], med[2]);
  return med[2] > 0 ? med[0] / med[2] : 0;
}

int RunTraced(const Options& o) {
  Inputs in;
  in.dir = o.work + "/rep0";
  Status st = SetUp(o, true, &in);
  Result<std::vector<Request>> reqs =
      st.ok() ? References(o, &in) : Result<std::vector<Request>>(st);
  if (!reqs.ok()) return Fail(reqs.status().ToString());
  PrintProvenance(o, in);
  const RequestFlags flags = WorkloadFlags(o.kind);
  const auto& v = in.versions;

  // The path's own source: direct loads for the CLI, a warmed in-process
  // SnapshotCache (the daemon's class) for the daemon workloads.
  svc::DirectGraphSource direct;
  svc::SnapshotCache cache;
  svc::GraphSource* source = &direct;
  if (o.kind != Kind::kCliChain) {
    source = &cache;
    for (const VersionInfo& ver : v) {
      svc::CommonOptions common;
      common.threads = flags.threads;
      if (!cache.Acquire(ver.path, common, false).ok()) {
        return Fail("cannot warm the in-process cache");
      }
    }
  }

  Tracer t;
  std::vector<std::string> errors;
  size_t attempted = 0;
  auto check = [&](const std::string& what, const Result<std::string>& body,
                   const std::string& ref) {
    ++attempted;
    if (!body.ok()) {
      errors.push_back(what + ": " + body.status().ToString());
    } else if (Scrub(*body) != ref) {
      errors.push_back(what + ": rebuilt body differs from the verb's");
    }
  };

  // Alternate untraced (the product entry point) and traced (the rebuild)
  // cycles over the workload's own requests; wall times per request kind.
  std::map<std::string, std::vector<double>> untraced_ms, traced_ms;
  InProcess untraced(source);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(static_cast<long>(o.seconds * 1000));
  for (int cycle = 0; cycle < 2 || Clock::now() < deadline; ++cycle) {
    for (const Request& r : *reqs) {
      const auto t0 = Clock::now();
      const Outcome out = untraced(r);
      untraced_ms[r.kind].push_back(MsSince(t0));
      ++attempted;
      const std::string err = Verify(r, out);
      if (!err.empty()) errors.push_back("untraced " + err);
    }
    TracedStream stream(&t, source);
    for (const Request& r : *reqs) {
      const std::vector<std::string>& tk = r.tokens;
      Result<std::string> body = Status::Internal("unknown request");
      uint64_t fp = 0;
      const size_t root = t.spans().size();
      if (r.kind == "align" || r.kind == "hybrid") {
        body = TracedAlign(&t, source, tk[1], tk[2], AlignMethod::kHybrid, flags);
      } else if (r.kind == "overlap") {
        body = TracedAlign(&t, source, tk[1], tk[2], AlignMethod::kOverlap, flags);
      } else if (r.kind == "diff") {
        body = TracedDiff(&t, source, tk[1], tk[2], tk[3], flags);
      } else if (r.kind == "patch") {
        body = TracedPatch(&t, source, tk[1], tk[2], tk[3], flags, &fp);
        if (body.ok() && fp != r.ref_fingerprint) {
          errors.push_back("traced patch: fingerprint differs");
        }
      } else if (r.kind == "open") {
        body = stream.Open(tk[2], tk[3], flags);
      } else if (r.kind == "push") {
        body = stream.Push(*r.payload);
      } else if (r.kind == "check") {
        body = stream.Check(tk[2]);
      } else if (r.kind == "close") {
        body = stream.Close();
      }
      if (t.spans().size() > root) traced_ms[r.kind].push_back(RequestWall(t, root));
      check("traced " + r.kind, body, r.ref);
    }
  }

  // The rebuild copies each verb's call sequence. If the verb's own path
  // changes, the rendered body can stay the same while its time moves:
  // a gap between the two medians fails the run.
  std::vector<double> all_untraced;
  std::printf("rebuild vs verb (median wall time per request kind)\n");
  for (const auto& [kind, ms] : untraced_ms) {
    all_untraced.insert(all_untraced.end(), ms.begin(), ms.end());
    const double verb = Median(ms), rebuilt = Median(traced_ms[kind]);
    std::printf("  %-8s verb %9.3f ms  rebuild %9.3f ms  ratio %.3f\n",
                kind.c_str(), verb, rebuilt, verb > 0 ? rebuilt / verb : 0);
    if (Drifted(rebuilt, verb)) {
      errors.push_back("rebuild of " + kind + " takes " + Fmt(rebuilt, " ms") +
                       " against the verb's " + Fmt(verb, " ms") +
                       ": it no longer follows the verb");
    }
  }

  // Cache behaviour and wire cost, from the real daemon.
  double hit_ratio = 0, evictions = 0;
  std::vector<double> noop_ms;
  {
    std::unique_ptr<Daemon> own;
    if (!in.daemon) {
      Result<std::unique_ptr<Daemon>> d = Daemon::Start(o.daemon);
      if (!d.ok()) return Fail(d.status().ToString());
      own = std::move(*d);
    }
    Daemon& d = in.daemon ? *in.daemon : *own;
    Result<svc::Client> c = svc::Client::Connect("127.0.0.1", d.port());
    if (!c.ok()) return Fail(c.status().ToString());
    auto stats = [&]() { return c->Call({"cache", "stats", "--json"}); };
    Result<svc::ClientResponse> before = stats();
    if (in.daemon) {
      Runner run = Remote(&*c);
      for (const Request& r : *reqs) {
        ++attempted;
        const std::string err = Verify(r, run(r));
        if (!err.empty()) errors.push_back("daemon " + err);
      }
    }
    Result<svc::ClientResponse> after = stats();
    if (!before.ok() || !after.ok()) return Fail("cache stats failed");
    auto delta = [&](const char* key) {
      return double(svc::JsonFindInt(after->body, key, 0) -
                    svc::JsonFindInt(before->body, key, 0));
    };
    const double acquires = delta("hits") + delta("misses");
    if (in.daemon) {
      hit_ratio = acquires > 0 ? delta("hits") / acquires : 0;
      evictions = delta("evictions");
    }
    for (int i = 0; i < 50; ++i) {
      const auto t0 = Clock::now();
      if (!stats().ok()) return Fail("cache stats failed");
      noop_ms.push_back(MsSince(t0));
    }
  }
  if (!in.daemon) {
    // The CLI path has no cache: every acquire is a load.
    hit_ratio = LayerView{t}.Mean("service.cache_hit");
  }

  // Probes: every layer call the workload's own path does not make, on the
  // workload's first version pair, each checked against its verb.
  t.set_probe(true);
  {
    const std::string delta = in.dir + "/probe.delta";
    const std::string out = in.dir + "/probe.snap";
    svc::DirectGraphSource probe_source;
    InProcess verb(&probe_source);
    auto probe = [&](const std::string& what, std::vector<std::string> tokens,
                     const Result<std::string>& body,
                     const std::string* payload = nullptr) {
      const Request r = MakeRequest(what, std::move(tokens), payload);
      const Outcome out = verb(r);
      check("probe " + what, body, Scrub(out.body));
      if (out.exit_code != 0) errors.push_back("probe verb " + what + ": " + out.error);
    };
    probe("overlap", Tokens({"align", v[0].path, v[1].path, "--method=overlap"}, flags),
          TracedAlign(&t, &probe_source, v[0].path, v[1].path,
                      AlignMethod::kOverlap, flags));
    probe("align", Tokens({"align", v[0].path, v[1].path}, flags),
          TracedAlign(&t, &probe_source, v[0].path, v[1].path,
                      AlignMethod::kHybrid, flags));
    probe("diff", Tokens({"diff", v[0].path, v[1].path, delta}, flags),
          TracedDiff(&t, &probe_source, v[0].path, v[1].path, delta, flags));
    uint64_t fp = 0;
    probe("patch", Tokens({"patch", v[0].path, delta, out}, flags),
          TracedPatch(&t, &probe_source, v[0].path, delta, out, flags, &fp));
    TracedStream stream(&t, &probe_source);
    probe("open", Tokens({"stream", "open", v[0].path, v[0].path}, flags),
          stream.Open(v[0].path, v[0].path, flags));
    probe("push", {"stream", "push", "--json"}, stream.Push(in.fragments[0]),
          &in.fragments[0]);
    probe("check", {"stream", "check", v[1].path, "--json"}, stream.Check(v[1].path));
    probe("close", {"stream", "close", "--json"}, stream.Close());
  }
  t.set_probe(false);

  // Thread sweep over the pool-parallel kernels, on the first pair.
  std::printf("pool sweep on versions 1-2, hardware_threads %u\n",
              std::thread::hardware_concurrency());
  double merge_speedup = 0, refine_speedup = 0, stats_speedup = 0,
         apply_speedup = 0;
  {
    svc::CommonOptions common;
    auto dict = std::make_shared<rdfalign::Dictionary>();
    auto la = svc::LoadGraphFile(v[0].path, common, false);
    auto lb = svc::LoadGraphFile(v[1].path, common, false);
    if (!la.ok() || !lb.ok()) return Fail("cannot load the sweep inputs");
    const rdfalign::TripleGraph ga = svc::RebindGraph(*la, dict);
    const rdfalign::TripleGraph gb = svc::RebindGraph(*lb, dict);
    auto cg = rdfalign::CombinedGraph::Build(ga, gb, 1);
    if (!cg.ok()) return Fail(cg.status().ToString());
    rdfalign::RefinementOptions ropt;
    const rdfalign::Partition p = rdfalign::HybridPartition(*cg, nullptr, ropt);
    const std::string delta = in.dir + "/probe.delta";
    const int reps = 3;
    merge_speedup = Speedup("merge", reps, [&](size_t th) {
      (void)rdfalign::CombinedGraph::Build(ga, gb, th);
    });
    refine_speedup = Speedup("refine", reps, [&](size_t th) {
      rdfalign::RefinementOptions r;
      r.threads = th;
      (void)rdfalign::HybridPartition(*cg, nullptr, r);
    });
    stats_speedup = Speedup("stats", reps, [&](size_t th) {
      (void)rdfalign::ComputeEdgeAlignment(*cg, p, th);
      (void)rdfalign::ComputeNodeAlignment(*cg, p, th);
    });
    apply_speedup = Speedup("apply_delta", reps, [&](size_t th) {
      rdfalign::store::DeltaApplyOptions a;
      a.threads = th;
      auto d = std::make_shared<rdfalign::Dictionary>();
      (void)rdfalign::store::ApplyDelta(ga, delta, d, a);
    });
  }

  // Report.
  const LayerView lv{t};
  const Coverage path = ComputeCoverage(t, false);
  const Coverage probes = ComputeCoverage(t, true);
  std::vector<double> traced_roots, unattributed, coverage_min;
  std::printf("layer coverage per verb (median over requests)\n");
  for (const auto* cov : {&path, &probes}) {
    for (const auto& [verb, wall] : cov->wall) {
      const double cover = Median(cov->covered.at(verb));
      std::printf("  %-6s %-18s wall %9.3f ms  covered %6.2f%%  "
                  "trace.unattributed_ms %8.3f  (%zu requests)\n",
                  cov == &path ? "path" : "probe", verb.c_str(), Median(wall),
                  100 * cover, Median(cov->unattributed.at(verb)), wall.size());
      if (cov == &path) {
        traced_roots.insert(traced_roots.end(), wall.begin(), wall.end());
        const auto& u = cov->unattributed.at(verb);
        unattributed.insert(unattributed.end(), u.begin(), u.end());
        coverage_min.push_back(cover);
      }
    }
  }
  std::printf("layer self time (median per call; * = probe, not on the path)\n");
  std::map<std::string, size_t> calls;
  for (const Tracer::Span& s : t.spans()) {
    if (s.parent >= 0) ++calls[s.name];
  }
  for (const auto& [name, n] : calls) {
    if (name.rfind("bench.", 0) == 0) continue;
    std::printf("  %-28s %9.3f ms %s\n", name.c_str(), lv.MedianMs(name),
                lv.FromPath(name) ? "" : "*");
  }
  for (size_t e = 0; e < errors.size() && e < 5; ++e) {
    std::printf("FAILED %s\n", errors[e].c_str());
  }

  std::vector<double> load_rate;
  {
    const std::vector<double> ms = lv.Durations("store.load_snapshot");
    const std::vector<double> bytes = lv.Counts("store.load_bytes");
    for (size_t i = 0; i < ms.size() && i < bytes.size(); ++i) {
      load_rate.push_back(bytes[i] / 1e6 / (ms[i] / 1000));
    }
  }
  RunReport res;
  res.attempted = attempted;
  res.failed = errors.size();
  res.correct = errors.empty();
  res.metrics = {
      {"store.load_snapshot_ms", lv.MedianMs("store.load_snapshot"), "ms"},
      {"store.load_mb_per_s", Median(load_rate), "MB/s"},
      {"store.write_delta_ms", lv.MedianMs("store.write_delta"), "ms"},
      {"store.delta_bytes", lv.MedianCount("store.delta_bytes"), "bytes"},
      {"store.apply_delta_ms", lv.MedianMs("store.apply_delta"), "ms"},
      {"store.write_snapshot_ms", lv.MedianMs("store.write_snapshot"), "ms"},
      {"store.decode_fragment_ms", lv.MedianMs("store.decode_fragment"), "ms"},
      {"store.fragment_bytes", lv.MedianCount("store.fragment_bytes"), "bytes"},
      {"service.loaded_graph_bytes_ms",
       lv.MedianMs("service.loaded_graph_bytes"), "ms"},
      {"service.rebind_ms", lv.MedianMs("service.rebind"), "ms"},
      {"service.rebind_terms", lv.MedianCount("service.rebind_terms"), "count"},
      {"service.cache_hit_ratio", hit_ratio, "ratio"},
      {"service.cache_evictions", evictions, "count"},
      {"service.render_ms", lv.MedianMs("service.render"), "ms"},
      {"service.response_bytes", lv.MedianCount("service.response_bytes"),
       "bytes"},
      {"service.noop_roundtrip_ms", Median(noop_ms), "ms"},
      {"rdf.merge_ms", lv.MedianMs("rdf.merge"), "ms"},
      {"core.refine_ms", lv.MedianMs("core.refine"), "ms"},
      {"core.refine_rounds", lv.MedianCount("core.refine_rounds"), "count"},
      {"core.final_classes", lv.MedianCount("core.final_classes"), "count"},
      {"core.overlap_ms", lv.MedianMs("core.overlap"), "ms"},
      {"core.edge_stats_ms", lv.MedianMs("core.edge_stats"), "ms"},
      {"core.node_stats_ms", lv.MedianMs("core.node_stats"), "ms"},
      {"stream.open_ms", lv.MedianMs("stream.open"), "ms"},
      {"stream.apply_ms", lv.MedianMs("stream.apply"), "ms"},
      {"stream.dirty_total", lv.MedianCount("stream.dirty_total"), "count"},
      {"stream.refined_frac", lv.Mean("stream.refined"), "ratio"},
      {"stream.check_ms", lv.MedianMs("stream.check"), "ms"},
      {"pool.merge_speedup_t4", merge_speedup, "ratio"},
      {"pool.refine_speedup_t4", refine_speedup, "ratio"},
      {"pool.stats_speedup_t4", stats_speedup, "ratio"},
      {"pool.apply_delta_speedup_t4", apply_speedup, "ratio"},
      {"trace.unattributed_ms", Median(unattributed), "ms"},
      {"trace.coverage_frac",
       coverage_min.empty()
           ? 0
           : *std::min_element(coverage_min.begin(), coverage_min.end()),
       "ratio"},
      {"trace.overhead_frac", Median(traced_roots) / Median(all_untraced),
       "ratio"},
  };
  in.daemon.reset();
  EmitResult(res);
  return 0;
}

bool ParseOptions(int argc, char** argv, Options* o) {
  const svc::Args args(argc, argv, 1);
  std::string error;
  o->workload = args.GetString("workload", "");
  if (o->workload == "cli_chain") {
    o->kind = Kind::kCliChain;
  } else if (o->workload == "daemon_hot") {
    o->kind = Kind::kDaemonHot;
  } else if (o->workload == "stream_push") {
    o->kind = Kind::kStreamPush;
  } else {
    std::fprintf(stderr, "e2e_bench: unknown --workload=%s\n",
                 o->workload.c_str());
    return false;
  }
  o->seed = args.GetInt("seed", 1, &error).value_or(1);
  o->seconds = args.GetDouble("seconds", 10);
  o->trace = args.GetInt("trace", 0, &error).value_or(0) != 0;
  o->work = args.GetString("work", "");
  o->daemon = args.GetString("daemon", "");
  o->scale = args.GetDouble("scale", 1);
  o->corrupt_reference = args.Has("corrupt-reference");
  if (!error.empty() || o->work.empty() || o->daemon.empty() ||
      o->scale <= 0) {
    std::fprintf(stderr, "e2e_bench: bad arguments %s\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Options o;
  if (!e2ebench::ParseOptions(argc, argv, &o)) return 2;
  signal(SIGPIPE, SIG_IGN);
  return o.trace ? e2ebench::RunTraced(o) : e2ebench::RunUntraced(o);
}
