// EXP-AA (paper §5.3): the telemetry firehose on the columnar store.
//
//   "consider a 10,000 server cloud computing environment, if there are 100
//    software performance counters of interests, and each of them are
//    sampled every 15 seconds, we will expect 2.4 million data points per
//    minutes... preprocessing and indexing the data into multiple scales
//    can speed up the query significantly. At the same time, raw data out
//    of these bands can be considered as noise and be eliminated, thus
//    reducing storage requirements."
//
// Emits BENCH_telemetry.json (one record per section, see telemetry_bench.h)
// and exits non-zero when any gate fails: >= 100M points/minute shard-
// parallel ingest, >= 8x sealed-block compression on the reference counter
// mix, the same sealed bytes and anomaly events from a 1-runner and a
// shard-parallel flush, bit-identical answers vs the per-sample legacy
// reference store at 1/2/8 threads before and after flush, and full recall
// of injected spikes by the in-stream detector. The flushed store's bytes
// are reported. The Release CI lane runs `--smoke` (reduced mix, loose
// throughput floor) on every push.
#include <cstdio>

#include "core/cli_args.h"
#include "telemetry_bench.h"

int main(int argc, char** argv) {
  epm::CliArgs args(argc, argv);
  epm::bench::TelemetryBenchConfig config;
  config.threads = args.threads();
  config.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<std::int64_t>(42)));
  if (args.get_switch("smoke")) epm::bench::apply_smoke_preset(config);

  std::printf("==== EXP-AA: sec. 5.3 telemetry firehose (seed %llu%s) ====\n",
              static_cast<unsigned long long>(config.seed),
              args.get_switch("smoke") ? ", smoke" : "");
  std::printf("  paper arithmetic: 10,000 servers x 100 counters @ 15 s = "
              "2.4M points/minute; single-node gate is %.0fM/minute\n",
              config.min_points_per_min / 1e6);
  const auto outcome = epm::bench::run_telemetry_bench(config);
  return outcome.gate_ok ? 0 : 1;
}
