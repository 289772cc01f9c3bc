// Shared harness for the benches: fixed-width table printing in the shape
// of the paper's tables/series, a tiny flag parser (--scale=, --seed=,
// --theta=) so every experiment can be re-run at other sizes, and the one
// JSON writer of the checked-in BENCH files.

#ifndef RDFALIGN_BENCH_HARNESS_H_
#define RDFALIGN_BENCH_HARNESS_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/json.h"

namespace rdfalign::bench {

/// Parses `--name=value` style flags.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  double GetDouble(const std::string& name, double fallback) const {
    std::string value;
    return Find(name, &value) ? std::atof(value.c_str()) : fallback;
  }

  uint64_t GetInt(const std::string& name, uint64_t fallback) const {
    std::string value;
    return Find(name, &value)
               ? static_cast<uint64_t>(std::atoll(value.c_str()))
               : fallback;
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    std::string value;
    return Find(name, &value) ? value : fallback;
  }

 private:
  bool Find(const std::string& name, std::string* value) const {
    std::string prefix = "--" + name + "=";
    for (const std::string& a : args_) {
      if (a.rfind(prefix, 0) == 0) {
        *value = a.substr(prefix.size());
        return true;
      }
    }
    return false;
  }

  std::vector<std::string> args_;
};

/// Prints the experiment banner.
inline void Banner(const char* figure, const char* description) {
  std::printf("\n=== %s ===\n%s\n\n", figure, description);
}

/// Fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> columns, int width = 12)
      : columns_(std::move(columns)), width_(width) {
    for (const auto& c : columns_) {
      std::printf("%*s", width_, c.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < columns_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) const {
    for (const auto& c : cells) {
      std::printf("%*s", width_, c.c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::string> columns_;
  int width_;
};

/// Prints a version-by-version matrix (the Fig. 10/11 heat-map data) with
/// row = target version, column = source version.
inline void PrintMatrix(const char* title,
                        const std::vector<std::vector<double>>& m,
                        const char* cell_format = "%8.3f") {
  std::printf("%s\n", title);
  const size_t n = m.size();
  std::printf("tgt\\src ");
  for (size_t j = 0; j < n; ++j) std::printf("%8zu", j + 1);
  std::printf("\n");
  for (size_t i = 0; i < n; ++i) {
    std::printf("%7zu ", i + 1);
    for (size_t j = 0; j < n; ++j) {
      std::printf(cell_format, m[j][i]);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

inline std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

inline std::string FmtInt(uint64_t v) { return std::to_string(v); }

/// The JSON writer of the kernel benches (store, pipeline, refinement).
/// The constructor writes the header every BENCH file carries; a bench
/// then lists its fields in order, each value printf-formatted by the
/// caller so every key keeps the precision it is recorded with. Members
/// nest with two-space indentation and the commas are placed here. Write()
/// is the only place a bench opens a file for writing.
class JsonReport {
 public:
  /// `runs` is left out of the header when the bench times a single run.
  JsonReport(const char* bench, double scale, uint64_t seed,
             std::optional<size_t> runs, const char* provenance) {
    Open("{");
    Str("bench", bench);
    Field("scale", "%g", scale);
    Field("seed", "%llu", static_cast<unsigned long long>(seed));
    if (runs) Field("runs", "%zu", *runs);
    Field("hardware_threads", "%u", std::thread::hardware_concurrency());
    Str("provenance", provenance);
  }

  /// `"key": <value>`, the value printf-formatted (numbers).
  __attribute__((format(printf, 3, 4))) void Field(const char* key,
                                                   const char* format, ...) {
    char value[400];  // holds any fixed-point rendering of a double
    va_list ap;
    va_start(ap, format);
    std::vsnprintf(value, sizeof(value), format, ap);
    va_end(ap);
    Raw(key, value);
  }

  void Str(const char* key, const std::string& value) {
    Raw(key, "\"" + service::JsonEscape(value) + "\"");
  }

  void Bool(const char* key, bool value) {
    Raw(key, value ? "true" : "false");
  }

  /// `"key": <json>`, the value already rendered.
  void Raw(const char* key, const std::string& json) {
    Next();
    json_.Appendf("\"%s\": %s", key, json.c_str());
  }

  /// `"key": [...]` with one object per item; `fields(item)` lists the
  /// members of that item's object.
  template <typename T, typename Fields>
  void Array(const char* key, const std::vector<T>& items, Fields fields) {
    Next();
    json_.Appendf("\"%s\": ", key);
    Open("[");
    for (const T& item : items) {
      Next();
      Open("{");
      fields(item);
      Close("}");
    }
    Close("]");
  }

  /// Closes the root object and writes the report to `path`; false (with
  /// the reason on stderr) when the file cannot be opened or written.
  bool Write(const std::string& path) {
    Close("}");
    json_.Append("\n");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    const std::string& text = json_.str();
    const bool written = std::fwrite(text.data(), 1, text.size(), f) ==
                         text.size();
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    return true;
  }

 private:
  void Open(const char* bracket) {
    json_.Append(bracket);
    empty_.push_back(true);
  }

  void Close(const char* bracket) {
    empty_.pop_back();
    json_.Append("\n" + std::string(2 * empty_.size(), ' ') + bracket);
  }

  /// Separates the next member from the previous one of its container.
  void Next() {
    json_.Append(empty_.back() ? "\n" : ",\n");
    empty_.back() = false;
    json_.Append(std::string(2 * empty_.size(), ' '));
  }

  service::JsonBuf json_;
  std::vector<bool> empty_;  ///< per open container: no member written yet
};

/// A thread sweep as the inline array `[{"threads": 1, "ms": 9.87}, ...]`.
inline std::string SweepJson(
    const std::vector<std::pair<size_t, double>>& sweep) {
  service::JsonBuf b;
  b.Append("[");
  for (size_t i = 0; i < sweep.size(); ++i) {
    b.Appendf("%s{\"threads\": %zu, \"ms\": %.2f}", i > 0 ? ", " : "",
              sweep[i].first, sweep[i].second);
  }
  b.Append("]");
  return b.Take();
}

}  // namespace rdfalign::bench

#endif  // RDFALIGN_BENCH_HARNESS_H_
