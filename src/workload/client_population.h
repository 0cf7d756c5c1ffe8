// Closed-loop client population: load that fights back.
//
// Every other workload in this library is open-loop — Poisson or trace
// arrivals that vanish when dropped. Real users do not vanish (paper §3:
// Messenger login storms, the Animoto flash crowd): a failed request is
// re-offered as a retry, a dropped session comes back as a reconnect, and
// the re-offered load is exactly what melts an elastic facility after an
// outage clears. This model closes the loop: each logical client issues a
// request, waits on a per-request timeout, retries under a configurable
// backoff policy (immediate / fixed / exponential, with deterministic
// SplitMix64 jitter and a capped attempt budget), and abandons when the
// budget runs out. A fault-injected outage (faults::kUtilityOutage or a
// server-crash clear) converts, via disconnect_all / disconnect_fraction,
// into a surge of session re-establishment load whose exponential-spread
// arrival matches the Fig. 3 login-spike shape.
//
// The engine is the vectorized epoch sweep introduced for the 10M-client
// regime: client state lives in flat SoA arrays (state / attempt / due /
// SplitMix64 draw count, 14 bytes a client) in 64 fixed client-range
// shards, and every per-client phase of an epoch (due scan, answer, serve,
// deadlines, outage drop) is a sweep over shard-local slices, on a
// core::ThreadPool when one is configured. The due scan and the deadline
// sweep, the two walks over every client, test 16 clients per branch
// (core/block_mask.h) and visit only the ones that pass. Tallies merge in
// shard order; the due batch is one partition of the shards' lists into 64
// due ranges, each sorted by (due, id), and its answers go back through the
// shard lists; so results are bit-identical at any thread count. The
// per-event heap engine it replaced is preserved as LegacyClientPopulation
// (client_population_legacy.h) for the in-run A/B bench; the equivalence
// suite asserts both engines produce bit-identical attempt streams and
// ledgers.
//
// Everything is per-client and seeded, so a population replayed against the
// same service responses reproduces the same attempt stream bit-for-bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/rng.h"

namespace epm {
class ThreadPool;
}

namespace epm::workload {

enum class RetryBackoff {
  kImmediate,    ///< retry on the next opportunity (no deliberate delay)
  kFixed,        ///< constant base_delay_s between attempts
  kExponential,  ///< base_delay_s * multiplier^(attempt-1), capped
};

/// Short stable token ("immediate" / "fixed" / "exponential").
std::string to_string(RetryBackoff backoff);
RetryBackoff retry_backoff_from_string(const std::string& token);

struct RetryPolicyConfig {
  RetryBackoff backoff = RetryBackoff::kExponential;
  double base_delay_s = 2.0;
  double multiplier = 2.0;
  double max_delay_s = 60.0;
  /// Multiplicative jitter: delays scale by uniform [1 - j, 1 + j).
  double jitter_frac = 0.5;
  /// Attempts per intent (first try + retries); exhausted => abandon.
  std::size_t max_attempts = 8;
  /// Abandoned clients come back as a fresh intent after this long;
  /// 0 = abandoned clients never return.
  double abandon_cooldown_s = 0.0;
};

struct ClientPopulationConfig {
  std::size_t clients = 20000;
  /// Mean exponential think time between completed interactions.
  double think_time_s = 40.0;
  /// Client-side deadline per attempt; a response slower than this is
  /// worthless to the client (it has already scheduled a retry).
  double request_timeout_s = 4.0;
  /// Mean exponential delay of post-disconnect reconnect attempts. The
  /// aggregate reconnect rate therefore decays exponentially — the Fig. 3
  /// flash-crowd login-spike shape.
  double reconnect_spread_s = 60.0;
  /// Mean of the exponential initial think phase. Clients launch mid-think;
  /// with start_spread_s == think_time_s the superposed arrival process is
  /// stationary from t = 0 (exponential residuals stay exponential). A
  /// uniform start window would instead synchronize second requests into a
  /// mid-warmup surge ~2x the steady rate.
  double start_spread_s = 40.0;
  RetryPolicyConfig retry;
  std::uint64_t seed = 7;
  /// Worker threads for the sharded epoch sweeps: 1 (default) sweeps
  /// serially, 0 resolves EPM_THREADS / hardware_concurrency, N >= 2 runs
  /// the fixed shard partition on an internal ThreadPool of min(N, kShards)
  /// runners. Results are bit-identical at every value.
  std::size_t threads = 1;
};

/// Lifetime counters. Attempts and intents are conserved (see
/// conservation_ok); the identities are asserted by the property suite and
/// by the retry-storm runner's invariant monitor every epoch.
struct ClientLedger {
  std::uint64_t intents = 0;        ///< fresh request intents (first attempts)
  std::uint64_t attempts = 0;       ///< requests issued (first + retries)
  std::uint64_t retries = 0;        ///< attempts beyond an intent's first
  std::uint64_t served = 0;         ///< fresh successes (intent completed)
  std::uint64_t stale_served = 0;   ///< server completions after the client gave up
  std::uint64_t rejected = 0;       ///< fast failures (admission / queue / breaker)
  std::uint64_t timed_out = 0;      ///< attempts that hit the client deadline
  std::uint64_t dropped = 0;        ///< in-flight attempts severed by a disconnect
  std::uint64_t abandoned = 0;      ///< intents dropped after max_attempts
  std::uint64_t retry_cancelled = 0;///< pending retries severed by a disconnect
  std::uint64_t disconnected_intents = 0;  ///< open intents severed by a disconnect
  std::uint64_t disconnects = 0;    ///< client-sessions dropped by outages

  bool operator==(const ClientLedger&) const = default;
};

/// Throws std::invalid_argument on an unusable configuration (shared by the
/// sweep engine and the legacy heap engine).
void validate_client_population_config(const ClientPopulationConfig& config);

/// Human-readable account of the first violated conservation identity over
/// a ledger plus the instantaneous waiting/backoff occupancy; "" when all
/// four identities hold. Shared by both engines.
std::string client_conservation_report(const ClientLedger& ledger,
                                       std::size_t waiting,
                                       std::size_t backoff);

/// A deterministic population of logical clients driven at epoch
/// granularity by a service loop:
///
///   1. collect_due(t, dt)      -> attempt batch for this epoch
///   2. answer_due (or per id)  -> admission verdict per attempt
///   3. (service drains queue)  -> on_served_batch per completion cohort
///   4. expire_timeouts(t + dt) -> client deadlines fire, retries scheduled
///
/// Every call that takes a time throws std::invalid_argument, before any
/// client changes, unless the time is finite.
class ClientPopulation {
 public:
  /// Completion cohorts can be delivered as one batch per epoch
  /// (on_served_batch), letting the driver schedule a single kernel event
  /// per cohort instead of one per completion.
  static constexpr bool kBatchServe = true;

  /// Fixed client-range shard partition for the parallel sweeps. Constant —
  /// never derived from the thread count — so per-shard work, and therefore
  /// every merged result, is identical at 1, 2, or 64 threads.
  static constexpr std::size_t kShards = 64;
  /// The attempt counter is one byte: max_attempts above this is refused.
  static constexpr std::size_t kMaxAttempts = 255;

  explicit ClientPopulation(ClientPopulationConfig config);
  ~ClientPopulation();
  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  /// Clients whose next action falls in [t0, t0 + dt), in deterministic
  /// (due time, id) order. Each returned id has issued one attempt at t0;
  /// the caller must answer every id (answer_due, or per id).
  const std::vector<std::uint32_t>& collect_due(double t0, double dt);

  /// on_admitted (admitted[i] != 0) or on_rejected for every batch position
  /// i, as one sweep. Throws std::invalid_argument before any client changes
  /// unless there is one verdict per position and the batch is unanswered.
  void answer_due(std::span<const std::uint8_t> admitted, double now_s);

  /// Fast failure (admission control / full queue / open breaker / dark
  /// service): the client backs off per policy or abandons.
  void on_rejected(std::uint32_t id, double now_s);
  /// The request entered the service queue; the client now waits until
  /// now_s + request_timeout_s.
  void on_admitted(std::uint32_t id, double now_s);
  /// Service completions of ids[0..count), in order, applied as one
  /// shard-local sweep. A completion is fresh (intent completed, client
  /// thinks again) if the client is still waiting, stale work otherwise.
  /// Every id is checked before any client changes. `ids` may alias the
  /// last collect_due batch, and one id may appear more than once (the
  /// earlier entry is served first).
  void on_served_batch(const std::uint32_t* ids, std::size_t count,
                       double now_s);

  /// Fires client deadlines: waiting clients whose timeout passed fail the
  /// attempt and back off per policy. Call once per epoch, after draining.
  void expire_timeouts(double now_s);

  /// Outage onset: every connected client's session drops. In-flight
  /// attempts are severed, pending retries cancelled, and every client
  /// schedules a session re-establishment attempt now_s + Exp(spread) out.
  void disconnect_all(double now_s);
  /// Same, for a deterministic (seeded) subset of clients.
  void disconnect_fraction(double fraction, double now_s);

  const ClientLedger& ledger() const { return ledger_; }
  const ClientPopulationConfig& config() const { return config_; }

  std::size_t waiting_count() const { return waiting_count_; }
  std::size_t backoff_count() const { return backoff_count_; }
  /// Clients out of the loop entirely (abandoned with no cooldown).
  std::size_t lost_count() const { return lost_count_; }
  /// Open intents at this instant: waiting on a response or in backoff.
  std::size_t in_flight() const { return waiting_count_ + backoff_count_; }

  /// Retry-budget conservation. All four identities must hold at any epoch
  /// boundary (after expire_timeouts):
  ///   attempts == served + rejected + timed_out + dropped + waiting
  ///   attempts == intents + retries
  ///   rejected + timed_out == retries + backoff + retry_cancelled + abandoned
  ///   intents  == served + abandoned + disconnected_intents + in_flight
  bool conservation_ok() const;
  /// Human-readable account of the first violated identity; "" when ok.
  std::string conservation_report() const;

 private:
  enum class State : std::uint8_t {
    kThinking,  ///< between intents; due_s = next intent time
    kWaiting,   ///< attempt in the service; due_s = client deadline
    kBackoff,   ///< failed attempt; due_s = retry time
    kCooldown,  ///< abandoned; due_s = return time (new intent)
    kLost,      ///< abandoned forever (no cooldown)
  };

  /// (due, id) candidate produced by the collect sweep. `slot` is its
  /// position in the shard lists laid end to end (shard order, id order
  /// within a shard), where answer_due files its verdict.
  struct Candidate {
    double due_s;
    std::uint32_t id;
    std::uint32_t slot;
    bool operator<(const Candidate& o) const {
      return due_s < o.due_s || (due_s == o.due_s && id < o.id);
    }
  };

  /// Fixed due ranges of collect_due's partition and fixed input chunks of
  /// on_served_batch's grouping; like kShards, never derived from the
  /// thread count.
  static constexpr std::size_t kDueRanges = 64;
  static constexpr std::size_t kChunks = 64;

  /// Per-shard counter ledger for one sweep, merged in shard order.
  struct Tally : ClientLedger {
    std::int64_t waiting_delta = 0;
    std::int64_t backoff_delta = 0;
    std::int64_t lost_delta = 0;
  };

  using Offsets = std::array<std::size_t, kShards + 1>;

  /// Runs fn(i) for every i in [0, n) — on the pool when one exists,
  /// serially otherwise. Callers give each i disjoint clients and disjoint
  /// output slots, so the parallel execution is race-free by construction.
  template <typename Fn>
  void for_each_index(std::size_t n, Fn&& fn);
  /// fn(shard, tally) for every shard; tallies apply in shard order.
  template <typename Fn>
  void sweep_shards(Fn&& fn);
  /// fn(c, begin, end) for each of kChunks fixed slices of [0, count).
  template <typename Fn>
  void for_each_chunk(std::size_t count, Fn&& fn);
  /// Stable-groups `ids` by shard into by_shard_ (a parallel counting sort
  /// over kChunks input chunks); group s is [offset[s], offset[s + 1]).
  Offsets group_by_shard(const std::uint32_t* ids, std::size_t count);

  // Client id's stream: after k draws its SplitMix64 counter holds
  // mix(seed + (id + 2)·γ) + k·γ, so a draw advances draws_[id] and mixes.
  double unit_draw(std::uint32_t id);
  double exponential_draw(std::uint32_t id, double mean);
  /// Multiplicative jitter factor in [1 - j, 1 + j). Callers gate the draw
  /// on j > 0 (draw_on_retry_ / draw_on_cooldown_) to match the legacy
  /// stream.
  double jitter_draw(std::uint32_t id, double j);
  // Per-client transitions for the per-id calls and the sweeps, counted in
  // the given tally. fail_attempt follows a timeout or a rejection.
  void fail_attempt(std::uint32_t id, double now_s, Tally& tally);
  void answer(std::uint32_t id, bool admitted, double now_s, Tally& tally);
  void serve(std::uint32_t id, double now_s, Tally& tally);
  void disconnect_client(std::uint32_t id, double now_s, Tally& tally);
  void apply_tally(const Tally& tally);

  ClientPopulationConfig config_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when sweeping serially
  /// bounds_[s] = s * clients / kShards is the first client of shard s.
  std::array<std::size_t, kShards + 1> bounds_{};

  // Client state, structure-of-arrays, 14 bytes a client: every sweep
  // touches one field across many clients, so parallel arrays stream
  // linearly. draws_ counts each client's SplitMix64 draws, from which a
  // draw rebuilds the stream counter (bit-identically to a SplitMix64
  // object — the stream-equivalence regression test pins this).
  std::unique_ptr<State[]> state_;
  std::unique_ptr<std::uint8_t[]> attempt_;
  std::unique_ptr<double[]> due_s_;
  std::unique_ptr<std::uint32_t[]> draws_;

  /// delay_table_[a] = pre-jitter backoff after failing attempt a, for
  /// every attempt the budget allows (exponential delays capped).
  std::vector<double> delay_table_;
  bool draw_on_retry_ = false;     ///< retry backoff consumes a jitter draw
  bool draw_on_cooldown_ = false;  ///< abandon-to-cooldown consumes one

  // Per-epoch scratch, reused across epochs: each shard's due candidates in
  // id order (their slots start at due_offset_[shard]), the candidates
  // partitioned into due ranges and sorted, each batch position's slot, the
  // verdicts by slot, and served ids grouped by shard.
  std::array<std::vector<Candidate>, kShards> shard_due_;
  Offsets due_offset_{};
  std::vector<Candidate> parted_;
  std::vector<Candidate> sorted_;
  std::vector<std::uint32_t> batch_slot_;
  std::vector<std::uint8_t> slot_verdict_;
  std::vector<std::uint32_t> by_shard_;

  std::vector<std::uint32_t> batch_;
  bool batch_answered_ = true;  ///< answer_due already applied to batch_
  ClientLedger ledger_;
  SplitMix64 disconnect_rng_{0};
  std::size_t waiting_count_ = 0;
  std::size_t backoff_count_ = 0;
  std::size_t lost_count_ = 0;
};

}  // namespace epm::workload
