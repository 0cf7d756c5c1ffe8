// Perf-record emitter shared by the bench binaries.
//
// Each converted bench appends one JSON object per measured section to
// BENCH_parallel.json (one object per line), so a run of the bench suite
// leaves a machine-readable trajectory of throughput (items/sec), wall time,
// and the thread count it was achieved at. Every record is also stamped
// with the provenance needed to compare runs across machines and commits:
// the git commit the binary was run from and the CPU model it ran on.
// Override the destination with the EPM_BENCH_REPORT environment variable;
// set it to "-" to suppress.
#pragma once

#include <cstdlib>
#include <fstream>
#include <string>

namespace epm::bench {

struct BenchRecord {
  std::string name;        ///< e.g. "telemetry_bulk_ingest"
  std::size_t threads = 1; ///< worker threads the section ran with
  double wall_s = 0.0;     ///< measured wall-clock seconds
  double items = 0.0;      ///< work units completed (events, samples, points)
};

inline std::string bench_report_path(
    const char* default_path = "BENCH_parallel.json") {
  if (const char* env = std::getenv("EPM_BENCH_REPORT")) return env;
  return default_path;
}

namespace detail {

/// Minimal JSON string sanitizer for provenance fields (quotes and
/// backslashes dropped; control characters mapped to spaces).
inline std::string json_safe(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') continue;
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

inline std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return {};
}

/// The commit HEAD points at, read straight from the .git directory (no
/// subprocess): EPM_GIT_COMMIT overrides, then .git/HEAD is searched a few
/// levels up from the working directory (benches usually run from build/).
inline std::string resolve_git_commit() {
  if (const char* env = std::getenv("EPM_GIT_COMMIT")) return env;
  for (const char* prefix : {"", "../", "../../", "../../../"}) {
    const std::string git_dir = std::string(prefix) + ".git/";
    std::string head = read_first_line(git_dir + "HEAD");
    if (head.empty()) continue;
    if (head.rfind("ref: ", 0) == 0) {
      const std::string ref = read_first_line(git_dir + head.substr(5));
      if (!ref.empty()) head = ref;
    }
    return head.substr(0, 12);
  }
  return "unknown";
}

/// CPU model from /proc/cpuinfo ("model name" line), "unknown" elsewhere.
inline std::string resolve_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (in && std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    auto start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}

inline const std::string& git_commit() {
  static const std::string commit = json_safe(resolve_git_commit());
  return commit;
}

inline const std::string& cpu_model() {
  static const std::string model = json_safe(resolve_cpu_model());
  return model;
}

}  // namespace detail

/// Opens a scenario experiment's outcome-record file for appending:
/// EPM_BENCH_REPORT if set, else `default_path`. The stream is not open
/// (callers skip writing) when the report is suppressed with "-" or the
/// file is unwritable.
inline std::ofstream open_scenario_report(const char* default_path) {
  const std::string path = bench_report_path(default_path);
  if (path == "-") return {};
  return std::ofstream(path, std::ios::app);
}

/// Ends a scenario record with the provenance stamp and closes the object.
inline void end_record_with_provenance(std::ofstream& file) {
  file << ",\"git_commit\":\"" << detail::git_commit() << "\",\"cpu_model\":\""
       << detail::cpu_model() << "\"}\n";
}

/// Appends `record` to the report file; silently a no-op when the file is
/// unwritable (benches must never fail on report plumbing).
inline void append_bench_record(const BenchRecord& record) {
  const std::string path = bench_report_path();
  if (path == "-") return;
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  const double rate = record.wall_s > 0.0 ? record.items / record.wall_s : 0.0;
  out << "{\"name\":\"" << record.name << "\",\"threads\":" << record.threads
      << ",\"wall_s\":" << record.wall_s << ",\"items\":" << record.items
      << ",\"items_per_s\":" << rate << ",\"git_commit\":\""
      << detail::git_commit() << "\",\"cpu_model\":\"" << detail::cpu_model()
      << "\"}\n";
}

}  // namespace epm::bench
