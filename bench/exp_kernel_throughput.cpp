// EXP-V: DES-kernel throughput — calendar queue vs binary heap, plus the
// federated fleet A/B (see federation_bench.h).
//
// Emits BENCH_kernel.json (one record per section, see kernel_bench.h) and
// exits non-zero when the calendar backend fails the relative >= 3x hold-
// model gate or the federation fails its >= 1.8x shard-parallelism gate,
// so the Release CI lane enforces the kernel's perf claims on every build
// without depending on absolute machine speed.
#include <cstdio>

#include "core/cli_args.h"
#include "federation_bench.h"
#include "kernel_bench.h"

int main(int argc, char** argv) {
  epm::CliArgs args(argc, argv);
  epm::bench::KernelBenchConfig config;
  config.threads = args.threads();
  config.seed = static_cast<std::uint64_t>(
      args.get("seed", static_cast<std::int64_t>(42)));
  epm::bench::FederationBenchConfig fed_config;
  fed_config.seed = config.seed;
  // --smoke adds a 40k-client fleet under a loose absolute wall ceiling to
  // the kernel bench's smoke preset.
  if (args.get_switch("smoke")) {
    epm::bench::apply_smoke_preset(config);
    fed_config.clients_per_dc = 10'000;
    fed_config.reps = 1;
    fed_config.min_federation_speedup = 0.0;  // small worlds are barrier-bound
    fed_config.max_federated_wall_s = 10.0;
  }

  std::printf("==== EXP-V: DES kernel throughput (seed %llu%s) ====\n",
              static_cast<unsigned long long>(config.seed),
              args.get_switch("smoke") ? ", smoke" : "");
  const auto outcome = epm::bench::run_kernel_bench(config);
  const auto fed_outcome = epm::bench::run_federation_bench(fed_config);
  return outcome.gate_ok && fed_outcome.gate_ok ? 0 : 1;
}
