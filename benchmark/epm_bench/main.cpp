// epm_bench: the repo benchmark. Runs the five ROADMAP reference scenarios
// through their public entry points and reports, per workload, simulated
// seconds per wall second, set-up time, peak RSS and the failed-rep
// fraction (untraced pass), or per-layer spans, counters and ablations
// (--trace). Every rep's outcome digest is checked against
// expected_seed42.json at seed 42, and against the first rep elsewhere.
//
//   epm_bench [--workload NAME]... [--seed N] [--seconds S] [--out FILE]
//             [--trace] [--smoke] [--expected FILE]
//
// Each workload runs in its own child process so peak RSS is per workload.
// Exit codes: 0 ok, 2 usage, 3 output check failed, 4 runtime error.
#include <sched.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

#ifndef BENCH_EXPECTED_FILE
#define BENCH_EXPECTED_FILE "expected_seed42.json"
#endif

extern char** environ;

namespace epmbench {
namespace {

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Workload> (*make)(const Params&);
  /// Timed reps when no --seconds budget is given; fixed across commits.
  std::size_t reps;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fig4_week", make_fig4_week, 30},
    {"storm_10m", make_storm_10m, 5},
    {"fleet_4dc", make_fleet_4dc, 20},
    {"controlplane_drills", make_controlplane_drills, 1000},
    {"firehose", make_firehose, 8},
};

/// Per-layer metrics of the traced pass and the workloads that measure
/// them; every workload prints every one, 0 where it does not exercise
/// the layer.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* owners;  ///< space-separated workload names, "*" = all
};

constexpr LayerSpec kLayerMetrics[] = {
    {"macro.facility_step_us_p50", "us", "fig4_week"},
    {"macro.facility_step_us_p99", "us", "fig4_week"},
    {"macro.uncoordinated_step_us_p50", "us", "fig4_week"},
    {"macro.uncoordinated_step_us_p99", "us", "fig4_week"},
    {"macro.manager_step_us_p50", "us", "fig4_week"},
    {"macro.manager_step_us_p99", "us", "fig4_week"},
    {"macro.decisions", "count", "fig4_week"},
    {"workload.messenger_trace_ms", "ms", "fig4_week"},
    {"workload.fleet_counters_synth_ms", "ms", "firehose"},
    {"workload.collect_due_ms_p50", "ms", "storm_10m"},
    {"workload.serve_batch_ms_p50", "ms", "storm_10m"},
    {"workload.expire_timeouts_ms_p50", "ms", "storm_10m"},
    {"workload.disconnect_all_ms", "ms", "storm_10m"},
    {"workload.sweep_speedup_vs_1t", "x", "storm_10m"},
    {"faults.storm_epoch_ms_p50", "ms", "storm_10m"},
    {"faults.storm_epoch_ms_max", "ms", "storm_10m"},
    {"faults.storm_speedup_vs_1t", "x", "storm_10m"},
    {"faults.attempts", "count", "storm_10m"},
    {"sim.fed_epoch_ms_p50", "ms", "fleet_4dc"},
    {"sim.fed_epoch_ms_max", "ms", "fleet_4dc"},
    {"sim.events", "count", "fleet_4dc"},
    {"sim.windows", "count", "fleet_4dc"},
    {"sim.messages_sent", "count", "fleet_4dc"},
    {"sim.fed_speedup_vs_single", "x", "fleet_4dc controlplane_drills"},
    {"sim.fed_serial_overhead", "x", "fleet_4dc controlplane_drills"},
    {"faults.leader_kill_ms_p50", "ms", "controlplane_drills"},
    {"faults.split_brain_ms_p50", "ms", "controlplane_drills"},
    {"faults.restore_drill_ms_p50", "ms", "controlplane_drills"},
    {"macro.control_messages", "count", "controlplane_drills"},
    {"sensing.fencing_rejections", "count", "controlplane_drills"},
    {"sim.snapshot_bytes", "bytes", "controlplane_drills"},
    {"telemetry.bulk_append_ms_p50", "ms", "firehose"},
    {"telemetry.flush_ms", "ms", "firehose"},
    {"telemetry.range_open_ms_p50", "ms", "firehose"},
    {"telemetry.daily_trend_ms", "ms", "firehose"},
    {"telemetry.hourly_pattern_ms", "ms", "firehose"},
    {"telemetry.anomalies_ms", "ms", "firehose"},
    {"telemetry.ingest_speedup_vs_1t", "x", "firehose"},
    {"telemetry.store_mb", "MB", "firehose"},
    {"telemetry.compression_ratio", "x", "firehose"},
    {"trace_overhead_frac", "frac", "*"},
};

constexpr std::size_t kMinTimedReps = 3;  ///< floor under a --seconds budget
/// setup_s samples: one before a timed rep whenever kSetupGapS has passed
/// since the last, up to the maximum, then topped up to the minimum.
/// Spreading them over the run matters: on a shared 4-vCPU VM the cost of
/// starting a process jumps by ~40% between windows of a few seconds, so
/// samples bunched into one window made the run's median bimodal.
constexpr std::size_t kMinSetupSamples = 5;
constexpr std::size_t kMaxSetupSamples = 21;
constexpr double kSetupGapS = 0.5;
constexpr double kTracePairsS = 1.0;  ///< untraced+traced pairs cover ~this

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = kCanonicalSeed;
  double seconds = 0.0;  ///< 0 = fixed rep counts
  std::string out;
  std::string expected = BENCH_EXPECTED_FILE;
  bool trace = false;
  bool smoke = false;
  bool child = false;  ///< internal: run one workload in this process
  bool setup_probe = false;  ///< internal: build its inputs, print the time, exit
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string known_workloads() {
  std::string out;
  for (const WorkloadSpec& spec : kWorkloads) {
    out += out.empty() ? "" : ", ";
    out += spec.name;
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw UsageError(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      const std::string name = value(i);
      if (find_workload(name) == nullptr) {
        throw UsageError("unknown workload '" + name + "' (known: " +
                         known_workloads() + ")");
      }
      opt.workloads.push_back(name);
    } else if (arg == "--seed") {
      const std::string text = value(i);
      errno = 0;
      char* end = nullptr;
      const unsigned long long seed = std::strtoull(text.c_str(), &end, 10);
      const bool digits = std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
      if (text.empty() || !digits || errno == ERANGE || *end != '\0') {
        throw UsageError("--seed must be a non-negative integer, got '" + text + "'");
      }
      opt.seed = seed;
    } else if (arg == "--seconds") {
      const std::string text = value(i);
      char* end = nullptr;
      opt.seconds = std::strtod(text.c_str(), &end);
      if (text.empty() || *end != '\0' || !std::isfinite(opt.seconds) ||
          opt.seconds <= 0.0 || opt.seconds > 3600.0) {
        throw UsageError("--seconds must be a number in (0, 3600], got '" + text + "'");
      }
    } else if (arg == "--out") {
      opt.out = value(i);
    } else if (arg == "--expected") {
      opt.expected = value(i);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--child") {
      opt.child = true;
    } else if (arg == "--setup-probe") {
      opt.setup_probe = true;
    } else {
      throw UsageError("unknown argument '" + arg + "' (see --help)");
    }
  }
  if (opt.workloads.empty()) {
    for (const WorkloadSpec& spec : kWorkloads) opt.workloads.push_back(spec.name);
  }
  if ((opt.child || opt.setup_probe) && opt.workloads.size() != 1) {
    throw UsageError("--child and --setup-probe run exactly one workload");
  }
  return opt;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Worker threads for every layer: min(4, nproc). The reference fleet has
/// 4 DCs, so more threads would have no shard to run.
std::size_t bench_threads() { return std::min<std::size_t>(nproc(), 4); }

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string trace_dir(const Options& opt) {
  if (opt.out.empty()) return "out";
  const auto slash = opt.out.rfind('/');
  return slash == std::string::npos ? "." : opt.out.substr(0, slash);
}

/// One printed metric: a timing carries its quartiles and sample count.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool timing = false;
  double p25 = 0.0;
  double p75 = 0.0;
  std::size_t n = 0;
  /// False for per-layer metrics the workload does not measure: they are
  /// 0 in the JSON and left out of the text lines.
  bool measured = true;
};

std::uint64_t expected_digest(const Options& opt, const std::string& workload) {
  std::ifstream file(opt.expected);
  if (!file) throw std::runtime_error("cannot read " + opt.expected);
  std::stringstream text;
  text << file.rdbuf();
  const Json doc = parse_json(text.str());
  const Json* mode = doc.find(opt.smoke ? "smoke" : "full");
  const Json* entry = mode != nullptr ? mode->find(workload) : nullptr;
  const Json* digest = entry != nullptr ? entry->find("digest") : nullptr;
  if (digest == nullptr || digest->kind != Json::Kind::kString) {
    throw std::runtime_error(opt.expected + " has no digest for " + workload);
  }
  return std::strtoull(digest->text.c_str(), nullptr, 16);
}

bool owns(const LayerSpec& spec, const std::string& workload) {
  std::istringstream owners(spec.owners);
  std::string token;
  while (owners >> token) {
    if (token == "*" || token == workload) return true;
  }
  return false;
}

/// Runs `args` as a child of this executable and captures its stdout.
/// Returns its exit code (4 when it did not exit normally).
int spawn_self(const std::vector<std::string>& args, std::string& output) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error(std::string("posix_spawn failed: ") + std::strerror(rc));
  }
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      output.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 4;
}

/// Child command line running workload `name` under this invocation's
/// settings.
std::vector<std::string> child_args(const Options& opt, const std::string& name) {
  std::vector<std::string> args = {"epm_bench", "--child", "--workload", name,
                                   "--seed", std::to_string(opt.seed),
                                   "--expected", opt.expected};
  if (opt.seconds > 0.0) {
    args.push_back("--seconds");
    args.push_back(json_number(opt.seconds));
  }
  if (!opt.out.empty()) {
    args.push_back("--out");
    args.push_back(opt.out);
  }
  if (opt.trace) args.push_back("--trace");
  if (opt.smoke) args.push_back("--smoke");
  return args;
}

Params make_params(const Options& opt) {
  Params params;
  params.seed = opt.seed;
  params.threads = bench_threads();
  params.smoke = opt.smoke;
  return params;
}

/// --setup-probe: builds the workload's inputs, then prints the monotonic
/// clock, which is system-wide, so the spawning process can subtract its
/// own reading from before the spawn.
int run_setup_probe(const Options& opt) {
  const std::unique_ptr<Workload> workload =
      find_workload(opt.workloads.front())->make(make_params(opt));
  workload->setup();
  std::printf("%.9f\n", now_s());
  return 0;
}

/// One setup_s sample: a fresh process of this executable, timed from just
/// before its spawn until its inputs are built — what a user waits for
/// before the first rep (process start, static set-up, thread pools, input
/// synthesis). A whole process gives the metric a floor of about a
/// millisecond, so real work moved into set-up shows but a config struct
/// that grew a field does not.
double setup_sample(const Options& opt) {
  std::vector<std::string> args = {"epm_bench", "--setup-probe", "--workload",
                                   opt.workloads.front(), "--seed",
                                   std::to_string(opt.seed)};
  if (opt.smoke) args.push_back("--smoke");
  std::string output;
  const double t0 = now_s();
  const int rc = spawn_self(args, output);
  if (rc != 0) {
    throw std::runtime_error("set-up probe exited with " + std::to_string(rc));
  }
  return std::strtod(output.c_str(), nullptr) - t0;
}

/// Runs one workload in this process and prints its text lines and, as the
/// last line, its JSON result. Returns the exit code.
int run_child(const Options& opt) {
  const std::string& name = opt.workloads.front();
  const WorkloadSpec& spec = *find_workload(name);
  const std::unique_ptr<Workload> workload = spec.make(make_params(opt));

  workload->setup();
  double t0 = now_s();
  const RepResult warm = workload->run(nullptr);
  const double warm_s = now_s() - t0;
  // Peak RSS of set-up plus one rep, as a single run of the scenario sees
  // it; later reps only add allocator fragmentation that varies run to run.
  const double rss_mb = peak_rss_mb();
  const std::uint64_t reference =
      opt.seed == kCanonicalSeed ? expected_digest(opt, name) : warm.digest;
  const auto passes = [&](const RepResult& rep) {
    return rep.checks_ok && rep.digest == reference;
  };

  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  if (!opt.trace) {
    std::vector<double> walls;
    std::vector<double> setups;
    double timed_s = 0.0;  // reps only: the set-up samples are not budgeted
    double last_setup = -kSetupGapS;
    const std::size_t fixed_reps = opt.smoke ? 2 : spec.reps;
    while (opt.seconds > 0.0
               ? walls.size() < kMinTimedReps || timed_s < opt.seconds
               : walls.size() < fixed_reps) {
      if (setups.size() < kMaxSetupSamples && now_s() - last_setup >= kSetupGapS) {
        last_setup = now_s();
        setups.push_back(setup_sample(opt));
      }
      t0 = now_s();
      const RepResult rep = workload->run(nullptr);
      walls.push_back(now_s() - t0);
      timed_s += walls.back();
      if (!passes(rep)) ++failed;
    }
    while (setups.size() < kMinSetupSamples) setups.push_back(setup_sample(opt));
    attempted = walls.size();
    const double sim_s = workload->sim_seconds();
    const Summary wall = summarize(walls);
    const Summary setup = summarize(setups);
    metrics.push_back({"sim_s_per_wall_s", sim_s / wall.median, "s/s", true,
                       sim_s / wall.p75, sim_s / wall.p25, wall.n});
    metrics.push_back({"setup_s", setup.median, "s", true, setup.p25, setup.p75,
                       setup.n});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB", false, 0, 0, 1});
    metrics.push_back({"failed_rep_frac",
                       static_cast<double>(failed) / static_cast<double>(attempted),
                       "frac", false, 0, 0, attempted});
  } else {
    Tracer tracer;
    const std::size_t pairs =
        opt.smoke ? 1
                  : std::clamp<std::size_t>(
                        static_cast<std::size_t>(std::ceil(kTracePairsS / warm_s)), 1, 30);
    std::vector<double> untraced;
    std::vector<double> traced;
    for (std::size_t i = 0; i < pairs; ++i) {
      t0 = now_s();
      const RepResult plain = workload->run(nullptr);
      untraced.push_back(now_s() - t0);
      t0 = now_s();
      RepResult spanned;
      {
        Scope scope(&tracer, "rep");
        spanned = workload->run(&tracer);
      }
      traced.push_back(now_s() - t0);
      failed += (passes(plain) ? 0 : 1) + (passes(spanned) ? 0 : 1);
    }
    LayerMetrics layer;
    CheckTally checks;
    const double untraced_s = quantile(untraced, 0.5);
    workload->probe(tracer, untraced_s, reference, layer, checks);
    layer["trace_overhead_frac"] = quantile(traced, 0.5) / untraced_s - 1.0;
    attempted = 2 * pairs + checks.attempted;
    failed += checks.failed;

    for (const LayerSpec& layer_spec : kLayerMetrics) {
      const auto it = layer.find(layer_spec.name);
      const bool measured = it != layer.end();
      if (owns(layer_spec, name) != measured) {
        throw std::logic_error(name + (measured ? " measured foreign "
                                                : " did not measure ") +
                               layer_spec.name);
      }
      metrics.push_back({layer_spec.name, measured ? it->second : 0.0,
                         layer_spec.unit, false, 0, 0, 1, measured});
      if (measured) layer.erase(it);
    }
    if (!layer.empty()) {
      throw std::logic_error(name + " measured unlisted " + layer.begin()->first);
    }

    const std::string dir = trace_dir(opt);
    ::mkdir(dir.c_str(), 0755);
    const std::string path = dir + "/trace_" + name + ".json";
    if (!tracer.write_chrome_json(path, "epm_bench " + name)) {
      throw std::runtime_error("cannot write " + path);
    }
  }

  for (const Metric& m : metrics) {
    if (!m.measured) continue;
    std::printf("%s %s %.6g %s", name.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.timing) std::printf(" p25=%.6g p75=%.6g n=%zu", m.p25, m.p75, m.n);
    std::printf("\n");
  }

  std::string json = "{\"workload\":" + json_string(name) +
                     ",\"correct\":" + (failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"digest\":" + json_string(hex_digest(warm.digest)) +
                     ",\"reference\":" + json_string(hex_digest(reference)) +
                     ",\"headline\":{";
  for (std::size_t i = 0; i < warm.headline.size(); ++i) {
    if (i > 0) json += ",";
    json += json_string(warm.headline[i].first) + ":" +
            json_number(warm.headline[i].second);
  }
  json += "},\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) json += ",";
    json += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit);
    if (m.timing) {
      json += ",\"p25\":" + json_number(m.p25) + ",\"p75\":" + json_number(m.p75);
    }
    json += ",\"n\":" + std::to_string(m.n) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 3;
}

int run_parent(const Options& opt) {
  // Fail on an unwritable --out before spending minutes measuring.
  if (!opt.out.empty()) {
    std::ofstream probe(opt.out);
    if (!probe) throw UsageError("cannot write --out " + opt.out);
  }
  std::string results;
  int exit_code = 0;
  for (const std::string& name : opt.workloads) {
    std::fflush(stdout);
    std::string output;
    const int rc = spawn_self(child_args(opt, name), output);
    // Every line but the last is for humans; the last is the JSON result.
    while (!output.empty() && output.back() == '\n') output.pop_back();
    const auto split = output.rfind('\n');
    const std::string last = split == std::string::npos ? output : output.substr(split + 1);
    if (split != std::string::npos) std::printf("%s\n", output.substr(0, split).c_str());
    if ((rc != 0 && rc != 3) || last.empty() || last.front() != '{') {
      std::fprintf(stderr, "epm_bench: workload %s failed (exit %d)\n",
                   name.c_str(), rc);
      return 4;
    }
    if (rc == 3) exit_code = 3;
    if (!results.empty()) results += ",";
    results += json_string(name) + ":" + last;
  }

  const std::string json =
      "{\"schema\":1,\"seed\":" + std::to_string(opt.seed) +
      ",\"trace\":" + (opt.trace ? "true" : "false") +
      ",\"smoke\":" + (opt.smoke ? "true" : "false") +
      ",\"seconds\":" + (opt.seconds > 0.0 ? json_number(opt.seconds) : "null") +
      ",\"threads\":" + std::to_string(bench_threads()) +
      ",\"nproc\":" + std::to_string(nproc()) +
      ",\"cpu\":" + json_string(cpu_model()) + ",\"workloads\":{" + results + "}}";
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << json << "\n";
    if (!out) throw std::runtime_error("cannot write " + opt.out);
  }
  std::printf("%s\n", json.c_str());
  return exit_code;
}

void print_usage() {
  std::printf(
      "usage: epm_bench [--workload NAME]... [--seed N] [--seconds S] [--out FILE]\n"
      "                 [--trace] [--smoke] [--expected FILE]\n"
      "  --workload   one of: %s (repeatable; default all)\n"
      "  --seed       non-negative integer, default 42 (the frozen outcomes)\n"
      "  --seconds    measure each workload for S seconds instead of its fixed\n"
      "               rep count (at least %zu timed reps)\n"
      "  --out        also write the JSON result here; traces go beside it\n"
      "  --trace      traced pass: spans, ablations and per-layer metrics\n"
      "  --smoke      shrunken inputs for the self-test\n"
      "  --expected   frozen digests (default %s)\n"
      "exit codes: 0 ok, 2 usage, 3 output check failed, 4 runtime error\n",
      known_workloads().c_str(), kMinTimedReps, BENCH_EXPECTED_FILE);
}

}  // namespace
}  // namespace epmbench

int main(int argc, char** argv) {
  using namespace epmbench;
  // Thread counts are set explicitly everywhere; make sure nothing can
  // pick them (or a report file) up from the environment instead.
  ::unsetenv("EPM_THREADS");
  ::unsetenv("EPM_BENCH_REPORT");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      print_usage();
      return 0;
    }
  }
  try {
    const Options opt = parse_args(argc, argv);
    if (opt.setup_probe) return run_setup_probe(opt);
    return opt.child ? run_child(opt) : run_parent(opt);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "epm_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epm_bench: runtime error: %s\n", e.what());
    return 4;
  }
}
