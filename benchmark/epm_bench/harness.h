// Shared pieces of epm_bench: outcome digests, spans, timing summaries, a
// small JSON reader for the frozen expected outcomes, and the interface
// every reference workload implements.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace epmbench {

/// Seconds on the monotonic clock.
double now_s();

/// The benchmark seed that reproduces every scenario's canonical seed (the
/// one behind the checked-in records and goldens).
inline constexpr std::uint64_t kCanonicalSeed = 42;

/// Scenario seed for benchmark seed `seed`: `canonical` at seed 42, shifted
/// by the same offset otherwise (wrapping), so every seed maps to exactly
/// one input set.
inline std::uint64_t scenario_seed(std::uint64_t canonical, std::uint64_t seed) {
  return canonical + (seed - kCanonicalSeed);
}

/// FNV-1a over every outcome field. Doubles hash by bit pattern, so a
/// one-ulp drift changes the digest.
class Digest {
 public:
  template <typename T>
  Digest& add(T value) {
    if constexpr (std::is_floating_point_v<T>) {
      const double d = static_cast<double>(value);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      mix(bits);
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                    "Digest::add takes numbers, enums and strings");
      mix(static_cast<std::uint64_t>(value));
    }
    return *this;
  }
  Digest& add(std::string_view text);
  Digest& add(const std::string& text) { return add(std::string_view(text)); }

  std::uint64_t value() const { return hash_; }

 private:
  void mix(std::uint64_t word);
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string hex_digest(std::uint64_t digest);

/// In-memory span recorder for the traced pass. Spans nest by call order;
/// the innermost open span is the parent of the next one.
class Tracer {
 public:
  Tracer();

  std::size_t begin(const char* name);
  void end(std::size_t id);

  /// Durations in milliseconds of every closed span named `name`, in order.
  std::vector<double> durations_ms(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON (complete "X" events, one
  /// process named `label`). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, const std::string& label) const;

 private:
  struct Span {
    const char* name = nullptr;  ///< string literal, lives forever
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t parent = -1;
  };
  std::int64_t since_origin_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; records nothing when the tracer is null (the untraced pass).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

/// Median and quartiles (linear interpolation between order statistics).
struct Summary {
  double median = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);
/// q-quantile, q in [0, 1], of a sample; throws std::logic_error when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set (VmHWM) of this process in MB; 0 when unavailable.
double peak_rss_mb();

/// Minimal JSON document model: enough to read expected_seed42.json.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  /// Member `key` of an object, or null when absent / not an object.
  const Json* find(std::string_view key) const;
};
/// Throws std::runtime_error on malformed input.
Json parse_json(std::string_view text);

/// Inputs every workload is built from.
struct Params {
  std::uint64_t seed = kCanonicalSeed;
  /// Worker threads, min(4, nproc), set explicitly on every layer.
  std::size_t threads = 1;
  /// Shrunken inputs for the quick self-test.
  bool smoke = false;
};

/// One rep's outcome: its digest, the outcome's own checks, and the
/// headline fields frozen beside the digest for humans.
struct RepResult {
  std::uint64_t digest = 0;
  bool checks_ok = false;
  std::vector<std::pair<std::string, double>> headline;
};

/// Per-layer numbers of the traced pass, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Cross-checks of the traced pass (ablation runs that must reproduce an
/// outcome), counted into its attempted / failed totals.
struct CheckTally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// A reference scenario run as a closed-loop batch job.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the rep inputs from the params; called once per process.
  virtual void setup() = 0;
  /// Simulated seconds one rep covers (sum of the simulated horizons).
  virtual double sim_seconds() const = 0;
  /// One rep. With a tracer, spans wrap each layer call; the digest must
  /// not change.
  virtual RepResult run(Tracer* tracer) = 0;
  /// Traced pass only, after the traced reps: ablations and counters.
  /// `rep_s` is this process's median untraced rep wall time and
  /// `reference` the digest a run reproducing the rep must match.
  virtual void probe(Tracer& tracer, double rep_s, std::uint64_t reference,
                     LayerMetrics& layer, CheckTally& checks) = 0;
};

std::unique_ptr<Workload> make_fig4_week(const Params& params);
std::unique_ptr<Workload> make_storm_10m(const Params& params);
std::unique_ptr<Workload> make_fleet_4dc(const Params& params);
std::unique_ptr<Workload> make_controlplane_drills(const Params& params);
std::unique_ptr<Workload> make_firehose(const Params& params);

}  // namespace epmbench
