// Minimal command-line argument parsing for the epmctl tool and any
// downstream binaries: subcommand + `--flag value` / `--switch` pairs, with
// typed accessors and unknown-flag detection.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace epm {

/// A malformed or out-of-range flag. Everything CliArgs rejects throws this,
/// so a command-line tool can report it as a usage error rather than as a
/// runtime failure.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class CliArgs {
 public:
  /// Parses `argv[1]` as the subcommand (empty if argv[1] starts with "--")
  /// and the rest as `--key value` pairs; a `--key` followed by another
  /// `--flag` or by nothing is a boolean switch. Throws UsageError on
  /// malformed input (non-flag positional after the subcommand).
  CliArgs(int argc, const char* const argv[]);

  const std::string& command() const { return command_; }
  bool has(const std::string& flag) const;

  /// Typed accessors with defaults; throw UsageError when the present value
  /// does not parse (for a double: as a finite number).
  std::string get(const std::string& flag, const std::string& fallback) const;
  double get(const std::string& flag, double fallback) const;
  std::int64_t get(const std::string& flag, std::int64_t fallback) const;
  bool get_switch(const std::string& flag) const;

  /// Worker count from `--threads N` (1..kMaxThreads when present); defaults
  /// to the EPM_THREADS environment override, else hardware_concurrency.
  std::size_t threads() const;

  /// Flags that were provided but never read — for "unknown flag" errors.
  std::vector<std::string> unused() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  // switches map to ""
  mutable std::set<std::string> used_;
};

}  // namespace epm
