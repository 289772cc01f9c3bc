// Shared flag parsing of the verb layer: one Args tokenizer and one
// ParseCommonFlags for the options every verb understands, used verbatim
// by the `rdfalign` CLI, the `rdfalignd` daemon's request decoder, and the
// in-process tests — so the three front ends cannot drift. Error messages
// are produced here as strings (the CLI prints them to stderr, the daemon
// returns them in the response envelope) and are pinned byte-for-byte by
// tests/verbs_test.cc: changing one changes the CLI's exit-2 output that
// the cli-smoke CI job exercises.

#ifndef RDFALIGN_SERVICE_FLAGS_H_
#define RDFALIGN_SERVICE_FLAGS_H_

#include <cstddef>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rdfalign::service {

/// `--name=value` / `--name` flags mixed with positional arguments.
/// (Moved out of tools/rdfalign.cc so every front end tokenizes alike.)
class Args {
 public:
  /// Parses `argv[start..argc)`.
  Args(int argc, char** argv, int start);

  /// Parses an already tokenized argument vector (the daemon's request
  /// decoder and the tests).
  explicit Args(const std::vector<std::string>& tokens);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  // Signed so that callers see "--versions=-1" as -1 and can reject it
  // with a range error, instead of a wrapped ~2^64 surprise. Malformed
  // values ("--threads=1o", "--seed=abc") are reported into `error` and
  // become nullopt rather than silently parsing as a prefix or zero.
  std::optional<long long> GetInt(const std::string& name, long long fallback,
                                  std::string* error) const;

  double GetDouble(const std::string& name, double fallback) const;

  /// Flags this command does not understand -> usage error (message into
  /// `error`, caller prints usage and exits 2).
  bool OnlyKnown(std::initializer_list<const char*> known,
                 std::string* error) const;

 private:
  void Tokenize(const std::vector<std::string>& tokens);

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

/// The options shared by every verb, consolidated out of the former
/// per-subcommand flag plumbing. `json` selects which renderer the
/// dispatcher uses; the Run* implementations themselves never read it,
/// so a response can always be re-rendered either way.
struct CommonOptions {
  size_t threads = 1;           ///< 0 = all hardware threads
  bool use_mmap = false;        ///< map snapshots instead of buffering
  bool verify_checksums = true; ///< --no-verify-checksums clears this
  bool json = false;
};

/// Parses --threads / --mmap / --json / --no-verify-checksums into `out`.
/// `cmd` names the verb in error messages ("rdfalign align: ...").
/// Returns false with the exact legacy message in `error`.
bool ParseCommonFlags(const Args& args, const char* cmd, CommonOptions* out,
                      std::string* error);

/// The common flag names, for OnlyKnown lists:
/// {"threads", "mmap", "json", "no-verify-checksums"}.
extern const char* const kCommonFlagNames[4];

}  // namespace rdfalign::service

#endif  // RDFALIGN_SERVICE_FLAGS_H_
