// The PR 5 heap-based client-population engine, kept as the A/B baseline.
//
// This is the pre-sweep implementation of the closed-loop client model: a
// global (due, id) min-heap plus a deadline heap, token-invalidated stale
// entries, and one SplitMix64 object per client drawn from inside branchy
// per-event code. It is retained — like sim::HeapSimulator — so the kernel
// bench can run an in-run A/B (new epoch engine vs this path) and so the
// equivalence suite can assert that the vectorized engine reproduces this
// engine's attempt stream and ledger bit-for-bit. Do not add features here;
// it exists to stay byte-comparable with what PR 5 shipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "core/rng.h"
#include "workload/client_population.h"

namespace epm::workload {

/// Heap-based reference engine with the same public contract as
/// ClientPopulation (see client_population.h for the drive protocol).
class LegacyClientPopulation {
 public:
  /// Completions are delivered one at a time (the PR 5 driver schedules one
  /// kernel event per completion).
  static constexpr bool kBatchServe = false;

  explicit LegacyClientPopulation(ClientPopulationConfig config);

  const std::vector<std::uint32_t>& collect_due(double t0, double dt);
  /// Reference answer_due: on_admitted / on_rejected per position, in order.
  void answer_due(std::span<const std::uint8_t> admitted, double now_s);
  void on_rejected(std::uint32_t id, double now_s);
  void on_admitted(std::uint32_t id, double now_s);
  void on_served(std::uint32_t id, double now_s);
  void expire_timeouts(double now_s);
  void disconnect_all(double now_s);
  void disconnect_fraction(double fraction, double now_s);

  const ClientLedger& ledger() const { return ledger_; }
  const ClientPopulationConfig& config() const { return config_; }

  std::size_t waiting_count() const { return waiting_count_; }
  std::size_t backoff_count() const { return backoff_count_; }
  std::size_t lost_count() const { return lost_count_; }
  std::size_t in_flight() const { return waiting_count_ + backoff_count_; }

  bool conservation_ok() const;
  std::string conservation_report() const;

 private:
  enum class State : std::uint8_t {
    kThinking,
    kWaiting,
    kBackoff,
    kCooldown,
    kLost,
  };

  struct HeapEntry {
    double due_s;
    std::uint32_t id;
    std::uint64_t token;
    bool operator>(const HeapEntry& other) const {
      if (due_s != other.due_s) return due_s > other.due_s;
      return id > other.id;
    }
  };
  using MinHeap =
      std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

  void schedule(std::uint32_t id, State state, double due_s);
  void fail_attempt(std::uint32_t id, double now_s);
  double backoff_delay_s(std::uint32_t id);
  double jitter(std::uint32_t id);
  void enter_state(std::uint32_t id, State state);
  void disconnect_client(std::uint32_t id, double now_s);

  ClientPopulationConfig config_;

  std::vector<State> state_;
  std::vector<std::uint32_t> attempt_;
  std::vector<std::uint64_t> token_;
  std::vector<double> due_s_;
  std::vector<SplitMix64> rng_;

  MinHeap due_heap_;
  MinHeap deadline_heap_;
  std::vector<std::uint32_t> batch_;
  bool batch_answered_ = true;
  ClientLedger ledger_;
  SplitMix64 disconnect_rng_{0};
  std::uint64_t next_token_ = 1;
  std::size_t waiting_count_ = 0;
  std::size_t backoff_count_ = 0;
  std::size_t lost_count_ = 0;
};

}  // namespace epm::workload
