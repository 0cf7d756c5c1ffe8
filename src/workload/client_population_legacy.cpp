#include "workload/client_population_legacy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/require.h"

namespace epm::workload {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Uniform double in [0, 1) from a SplitMix64 stream.
double uniform01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

double exponential(SplitMix64& rng, double mean) {
  return -mean * std::log1p(-uniform01(rng));
}

}  // namespace

LegacyClientPopulation::LegacyClientPopulation(ClientPopulationConfig config)
    : config_(config) {
  validate_client_population_config(config_);

  SplitMix64 seeder(config_.seed);
  disconnect_rng_ = SplitMix64(seeder.next());
  const std::size_t n = config_.clients;
  state_.assign(n, State::kThinking);
  attempt_.assign(n, 0);
  token_.assign(n, 0);
  due_s_.assign(n, 0.0);
  rng_.reserve(n);
  for (std::uint32_t id = 0; id < n; ++id) {
    rng_.emplace_back(seeder.next());
    const double due = config_.start_spread_s > 0.0
                           ? exponential(rng_[id], config_.start_spread_s)
                           : 0.0;
    schedule(id, State::kThinking, due);
  }
}

void LegacyClientPopulation::enter_state(std::uint32_t id, State state) {
  const State prev = state_[id];
  if (prev == State::kWaiting) --waiting_count_;
  if (prev == State::kBackoff) --backoff_count_;
  if (prev == State::kLost) --lost_count_;
  state_[id] = state;
  if (state == State::kWaiting) ++waiting_count_;
  if (state == State::kBackoff) ++backoff_count_;
  if (state == State::kLost) ++lost_count_;
}

void LegacyClientPopulation::schedule(std::uint32_t id, State state,
                                      double due_s) {
  enter_state(id, state);
  due_s_[id] = due_s;
  token_[id] = next_token_++;
  if (state == State::kLost) return;  // never scheduled again
  HeapEntry entry{due_s, id, token_[id]};
  if (state == State::kWaiting) {
    deadline_heap_.push(entry);
  } else {
    due_heap_.push(entry);
  }
}

double LegacyClientPopulation::jitter(std::uint32_t id) {
  const double j = config_.retry.jitter_frac;
  if (j <= 0.0) return 1.0;
  return 1.0 - j + 2.0 * j * uniform01(rng_[id]);
}

double LegacyClientPopulation::backoff_delay_s(std::uint32_t id) {
  const RetryPolicyConfig& retry = config_.retry;
  switch (retry.backoff) {
    case RetryBackoff::kImmediate:
      return 0.0;
    case RetryBackoff::kFixed:
      return retry.base_delay_s * jitter(id);
    case RetryBackoff::kExponential: {
      // attempt_[id] counts the attempt that just failed (>= 1).
      const double exponent = static_cast<double>(attempt_[id] - 1);
      const double raw =
          retry.base_delay_s * std::pow(retry.multiplier, exponent);
      return std::min(raw, retry.max_delay_s) * jitter(id);
    }
  }
  return 0.0;
}

const std::vector<std::uint32_t>& LegacyClientPopulation::collect_due(
    double t0, double dt) {
  require(std::isfinite(t0) && std::isfinite(dt), "ClientPopulation: time must be finite");
  require(dt > 0.0, "ClientPopulation: epoch must be positive");
  batch_.clear();
  const double end = t0 + dt;
  while (!due_heap_.empty() && due_heap_.top().due_s < end) {
    const HeapEntry entry = due_heap_.top();
    due_heap_.pop();
    const std::uint32_t id = entry.id;
    if (token_[id] != entry.token) continue;  // superseded entry
    // A thinking or cooled-down client starts a fresh intent; a backoff
    // client re-offers its failed one.
    if (state_[id] == State::kBackoff) {
      ++ledger_.retries;
    } else {
      attempt_[id] = 0;
      ++ledger_.intents;
    }
    ++attempt_[id];
    ++ledger_.attempts;
    // In limbo until the caller answers with on_rejected/on_admitted; the
    // attempt is in flight, so it counts as waiting with no deadline yet.
    enter_state(id, State::kWaiting);
    due_s_[id] = kNever;
    token_[id] = next_token_++;
    batch_.push_back(id);
  }
  batch_answered_ = false;
  return batch_;
}

void LegacyClientPopulation::answer_due(std::span<const std::uint8_t> admitted,
                                        double now_s) {
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  require(admitted.size() == batch_.size() && !batch_answered_,
          "ClientPopulation: one answer_due per batch, one verdict per due");
  batch_answered_ = true;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    admitted[i] != 0 ? on_admitted(batch_[i], now_s)
                     : on_rejected(batch_[i], now_s);
  }
}

void LegacyClientPopulation::fail_attempt(std::uint32_t id, double now_s) {
  if (attempt_[id] >= config_.retry.max_attempts) {
    ++ledger_.abandoned;
    if (config_.retry.abandon_cooldown_s > 0.0) {
      schedule(id, State::kCooldown,
               now_s + config_.retry.abandon_cooldown_s * jitter(id));
    } else {
      schedule(id, State::kLost, kNever);
    }
    return;
  }
  schedule(id, State::kBackoff, now_s + backoff_delay_s(id));
}

void LegacyClientPopulation::on_rejected(std::uint32_t id, double now_s) {
  require(id < state_.size(), "ClientPopulation: client id out of range");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  ensure(state_[id] == State::kWaiting,
         "ClientPopulation: rejected a client with no attempt in flight");
  ++ledger_.rejected;
  fail_attempt(id, now_s);
}

void LegacyClientPopulation::on_admitted(std::uint32_t id, double now_s) {
  require(id < state_.size(), "ClientPopulation: client id out of range");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  ensure(state_[id] == State::kWaiting,
         "ClientPopulation: admitted a client with no attempt in flight");
  schedule(id, State::kWaiting, now_s + config_.request_timeout_s);
}

void LegacyClientPopulation::on_served(std::uint32_t id, double now_s) {
  require(id < state_.size(), "ClientPopulation: client id out of range");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  if (state_[id] != State::kWaiting) {
    // The client gave up on this attempt long ago; the service's work on it
    // was wasted — the defining loss of a retry storm.
    ++ledger_.stale_served;
    return;
  }
  ++ledger_.served;
  attempt_[id] = 0;
  schedule(id, State::kThinking,
           now_s + exponential(rng_[id], config_.think_time_s));
}

void LegacyClientPopulation::expire_timeouts(double now_s) {
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  while (!deadline_heap_.empty() && deadline_heap_.top().due_s <= now_s) {
    const HeapEntry entry = deadline_heap_.top();
    deadline_heap_.pop();
    if (token_[entry.id] != entry.token || state_[entry.id] != State::kWaiting) {
      continue;  // served (or disconnected) before the deadline
    }
    ++ledger_.timed_out;
    fail_attempt(entry.id, now_s);
  }
}

void LegacyClientPopulation::disconnect_client(std::uint32_t id,
                                               double now_s) {
  switch (state_[id]) {
    case State::kWaiting:
      ++ledger_.dropped;
      ++ledger_.disconnected_intents;
      break;
    case State::kBackoff:
      ++ledger_.retry_cancelled;
      ++ledger_.disconnected_intents;
      break;
    case State::kThinking:
    case State::kCooldown:
      break;
    case State::kLost:
      return;  // gone for good; no session to drop
  }
  ++ledger_.disconnects;
  attempt_[id] = 0;
  // Session re-establishment: reconnects arrive with exponential spread, so
  // the aggregate login surge decays like the Fig. 3 flash-crowd spikes.
  schedule(id, State::kThinking,
           now_s + exponential(rng_[id], config_.reconnect_spread_s));
}

void LegacyClientPopulation::disconnect_all(double now_s) {
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  for (std::uint32_t id = 0; id < state_.size(); ++id) {
    disconnect_client(id, now_s);
  }
}

void LegacyClientPopulation::disconnect_fraction(double fraction,
                                                 double now_s) {
  require(fraction >= 0.0 && fraction <= 1.0,
          "ClientPopulation: disconnect fraction outside [0, 1]");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  if (fraction >= 1.0) {
    disconnect_all(now_s);  // no draws: the full-outage path stays stream-stable
    return;
  }
  for (std::uint32_t id = 0; id < state_.size(); ++id) {
    if (uniform01(disconnect_rng_) < fraction) {
      disconnect_client(id, now_s);
    }
  }
}

bool LegacyClientPopulation::conservation_ok() const {
  return conservation_report().empty();
}

std::string LegacyClientPopulation::conservation_report() const {
  return client_conservation_report(ledger_, waiting_count_, backoff_count_);
}

}  // namespace epm::workload
