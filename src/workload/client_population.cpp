#include "workload/client_population.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/block_mask.h"
#include "core/parallel.h"
#include "core/require.h"

namespace epm::workload {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// A client's 32-bit draw count would wrap. Out of line, so the check
/// leaves the draw sweeps one predictable compare (inline, the throw slowed
/// the deadline sweep by a third).
[[noreturn, gnu::noinline]] void throw_draws_exhausted() {
  throw std::logic_error(
      "ClientPopulation: a client's 32-bit draw count is exhausted");
}

/// Uniform double in [0, 1) from a SplitMix64 object (the shared
/// disconnect-selection stream, which must advance in id order).
double uniform01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// visit(id) for every id in [begin, end) that passes `lane(id)`, in id
/// order. Whole blocks branch once on `block(id)`, whose bit i is
/// lane(id + i); the tail of fewer than kBlockLanes ids goes id by id.
template <typename Block, typename Lane, typename Visit>
void for_each_marked(std::size_t begin, std::size_t end, const Block& block,
                     const Lane& lane, Visit&& visit) {
  std::size_t id = begin;
  for (; id + kBlockLanes <= end; id += kBlockLanes) {
    for_each_bit(block(id), id, visit);
  }
  for (; id < end; ++id) {
    if (lane(id)) visit(id);
  }
}

}  // namespace

std::string to_string(RetryBackoff backoff) {
  switch (backoff) {
    case RetryBackoff::kImmediate:
      return "immediate";
    case RetryBackoff::kFixed:
      return "fixed";
    case RetryBackoff::kExponential:
      return "exponential";
  }
  return "?";
}

RetryBackoff retry_backoff_from_string(const std::string& token) {
  if (token == "immediate") return RetryBackoff::kImmediate;
  if (token == "fixed") return RetryBackoff::kFixed;
  if (token == "exponential") return RetryBackoff::kExponential;
  throw std::invalid_argument("unknown retry backoff '" + token + "'");
}

void validate_client_population_config(const ClientPopulationConfig& config) {
  require(config.clients > 0 && config.clients <= UINT32_MAX,
          "ClientPopulation: clients must be 1 to 2^32 - 1 (32-bit ids)");
  require(config.think_time_s > 0.0,
          "ClientPopulation: think time must be positive");
  require(config.request_timeout_s > 0.0,
          "ClientPopulation: request timeout must be positive");
  require(config.reconnect_spread_s > 0.0,
          "ClientPopulation: reconnect spread must be positive");
  require(config.start_spread_s >= 0.0,
          "ClientPopulation: start spread must be non-negative");
  require(config.retry.max_attempts >= 1,
          "ClientPopulation: need at least one attempt");
  require(config.retry.max_attempts <= ClientPopulation::kMaxAttempts,
          "ClientPopulation: max_attempts above 255 (one-byte attempt count)");
  require(config.retry.base_delay_s >= 0.0 && config.retry.max_delay_s >= 0.0,
          "ClientPopulation: retry delays must be non-negative");
  require(config.retry.multiplier >= 1.0,
          "ClientPopulation: retry multiplier below 1");
  require(config.retry.jitter_frac >= 0.0 && config.retry.jitter_frac < 1.0,
          "ClientPopulation: jitter fraction outside [0, 1)");
  require(config.retry.abandon_cooldown_s >= 0.0,
          "ClientPopulation: cooldown must be non-negative");
}

std::string client_conservation_report(const ClientLedger& led,
                                       std::size_t waiting_count,
                                       std::size_t backoff_count) {
  const auto waiting = static_cast<std::uint64_t>(waiting_count);
  const auto backoff = static_cast<std::uint64_t>(backoff_count);
  // The stream is built only once an identity fails: a passing check, run
  // every epoch by the storm engine's monitor, formats nothing.
  if (led.attempts !=
      led.served + led.rejected + led.timed_out + led.dropped + waiting) {
    std::ostringstream out;
    out << "attempts " << led.attempts << " != served " << led.served
        << " + rejected " << led.rejected << " + timed_out " << led.timed_out
        << " + dropped " << led.dropped << " + waiting " << waiting;
    return out.str();
  }
  if (led.attempts != led.intents + led.retries) {
    std::ostringstream out;
    out << "attempts " << led.attempts << " != intents " << led.intents
        << " + retries " << led.retries;
    return out.str();
  }
  if (led.rejected + led.timed_out !=
      led.retries + backoff + led.retry_cancelled + led.abandoned) {
    std::ostringstream out;
    out << "failures " << led.rejected + led.timed_out << " != retries "
        << led.retries << " + backoff " << backoff << " + cancelled "
        << led.retry_cancelled << " + abandoned " << led.abandoned;
    return out.str();
  }
  if (led.intents != led.served + led.abandoned + led.disconnected_intents +
                         waiting + backoff) {
    std::ostringstream out;
    out << "intents " << led.intents << " != served " << led.served
        << " + abandoned " << led.abandoned << " + disconnected "
        << led.disconnected_intents << " + in-flight " << waiting + backoff;
    return out.str();
  }
  return {};
}

ClientPopulation::ClientPopulation(ClientPopulationConfig config)
    : config_(config) {
  validate_client_population_config(config_);
  // One runner per shard range at most: every sweep has kShards tasks.
  const std::size_t runners = std::min(
      kShards, resolve_thread_count(static_cast<std::int64_t>(config_.threads)));
  if (runners > 1) pool_ = std::make_unique<ThreadPool>(runners);

  // Stream layout matches the legacy engine's sequential seeder exactly:
  // seeder draw 1 seeds the disconnect-selection stream, draw id + 2 seeds
  // client id. SplitMix64 is a pure function of its counter, so client
  // seeds come from the closed form instead of a serial seeder walk.
  SplitMix64 seeder(config_.seed);
  disconnect_rng_ = SplitMix64(seeder.next());

  const std::size_t n = config_.clients;
  for (std::size_t s = 0; s <= kShards; ++s) bounds_[s] = s * n / kShards;
  // Uninitialized: the sharded fill below first-touches them on the pool.
  state_ = std::make_unique_for_overwrite<State[]>(n);
  attempt_ = std::make_unique_for_overwrite<std::uint8_t[]>(n);
  due_s_ = std::make_unique_for_overwrite<double[]>(n);
  draws_ = std::make_unique_for_overwrite<std::uint32_t[]>(n);

  // Pre-jitter backoff per failed attempt. Exponential delays use the
  // identical expression the legacy per-event std::pow path used
  // (bit-equality).
  const RetryPolicyConfig& retry = config_.retry;
  delay_table_.assign(retry.max_attempts + 1, 0.0);
  for (std::size_t a = 1; a <= retry.max_attempts; ++a) {
    switch (retry.backoff) {
      case RetryBackoff::kImmediate:
        break;
      case RetryBackoff::kFixed:
        delay_table_[a] = retry.base_delay_s;
        break;
      case RetryBackoff::kExponential: {
        const double exponent = static_cast<double>(a - 1);
        const double raw =
            retry.base_delay_s * std::pow(retry.multiplier, exponent);
        delay_table_[a] = std::min(raw, retry.max_delay_s);
        break;
      }
    }
  }
  draw_on_retry_ =
      retry.backoff != RetryBackoff::kImmediate && retry.jitter_frac > 0.0;
  draw_on_cooldown_ = retry.jitter_frac > 0.0;

  const double spread = config_.start_spread_s;
  for_each_index(kShards, [&](std::size_t s) {
    for (std::size_t id = bounds_[s]; id < bounds_[s + 1]; ++id) {
      const auto client = static_cast<std::uint32_t>(id);
      state_[id] = State::kThinking;
      attempt_[id] = 0;
      draws_[id] = 0;
      due_s_[id] = spread > 0.0 ? exponential_draw(client, spread) : 0.0;
    }
  });
}

ClientPopulation::~ClientPopulation() = default;

template <typename Fn>
void ClientPopulation::for_each_index(std::size_t n, Fn&& fn) {
  if (pool_) {
    pool_->parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

template <typename Fn>
void ClientPopulation::for_each_chunk(std::size_t count, Fn&& fn) {
  for_each_index(kChunks, [&](std::size_t c) {
    fn(c, c * count / kChunks, (c + 1) * count / kChunks);
  });
}

template <typename Fn>
void ClientPopulation::sweep_shards(Fn&& fn) {
  std::array<Tally, kShards> tallies{};
  for_each_index(kShards, [&](std::size_t s) { fn(s, tallies[s]); });
  for (const Tally& t : tallies) apply_tally(t);
}

ClientPopulation::Offsets ClientPopulation::group_by_shard(
    const std::uint32_t* ids, std::size_t count) {
  // id * kShards / clients is the owner or one off (or below, past empty
  // shards) and costs less than a division per id.
  const double scale = static_cast<double>(kShards) / config_.clients;
  const auto shard_of = [&](std::uint32_t id) {
    auto s = std::min(static_cast<std::size_t>(id * scale), kShards - 1);
    while (id < bounds_[s]) --s;
    while (id >= bounds_[s + 1]) ++s;
    return s;
  };
  // Stable counting sort: per-chunk shard counts, then a (shard, chunk)
  // prefix sum, so group s holds chunk 0's entries, then chunk 1's, and so
  // on, each in input order; the entries of one client keep their order.
  std::array<std::array<std::size_t, kShards>, kChunks> next;
  for_each_chunk(count, [&](std::size_t c, std::size_t begin,
                            std::size_t end) {
    next[c].fill(0);
    for (std::size_t i = begin; i < end; ++i) ++next[c][shard_of(ids[i])];
  });
  Offsets offset{};
  std::size_t at = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    offset[s] = at;
    for (std::size_t c = 0; c < kChunks; ++c) {
      at += std::exchange(next[c][s], at);
    }
  }
  offset[kShards] = at;
  by_shard_.resize(count);
  for_each_chunk(count, [&](std::size_t c, std::size_t begin,
                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      by_shard_[next[c][shard_of(ids[i])]++] = ids[i];
    }
  });
  return offset;
}

void ClientPopulation::apply_tally(const Tally& t) {
  ledger_.intents += t.intents;
  ledger_.attempts += t.attempts;
  ledger_.retries += t.retries;
  ledger_.served += t.served;
  ledger_.stale_served += t.stale_served;
  ledger_.rejected += t.rejected;
  ledger_.timed_out += t.timed_out;
  ledger_.abandoned += t.abandoned;
  ledger_.dropped += t.dropped;
  ledger_.retry_cancelled += t.retry_cancelled;
  ledger_.disconnected_intents += t.disconnected_intents;
  ledger_.disconnects += t.disconnects;
  waiting_count_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(waiting_count_) + t.waiting_delta);
  backoff_count_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(backoff_count_) + t.backoff_delta);
  lost_count_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(lost_count_) + t.lost_delta);
}

namespace {

/// Sorts candidates collected in id order by (due, id) into `out`: a
/// counting pass spreads them over about one bucket of equal due width per
/// candidate (keeping id order), and one insertion pass then orders the
/// few entries each bucket holds. Skewed dues (a cluster inside one bucket)
/// would make that pass quadratic, so once it has shifted more than
/// kShiftBudget entries per candidate the range is sorted outright.
template <typename Candidate>
void sort_by_due(std::span<const Candidate> in, Candidate* out) {
  constexpr std::size_t kMaxBuckets = 4096;
  constexpr std::size_t kShiftBudget = 8;
  const std::size_t n = in.size();
  const std::size_t buckets = std::clamp<std::size_t>(n, 1, kMaxBuckets);
  // A NaN due leaves lo and hi alone: std::min/max return their first
  // argument when a comparison fails, as the min/max instructions do.
  double lo = kNever;
  double hi = -kNever;
  for (const Candidate& c : in) {
    lo = std::min(lo, c.due_s);
    hi = std::max(hi, c.due_s);
  }
  const double span = hi - lo;
  double scale = span > 0.0 ? static_cast<double>(buckets) / span : 0.0;
  if (!std::isfinite(scale)) scale = 0.0;
  const auto bucket = [&](double due) {  // monotone in due; NaN goes last
    const double x = (due - lo) * scale;
    return x < static_cast<double>(buckets - 1) ? static_cast<std::size_t>(x)
                                                : buckets - 1;
  };
  std::array<std::uint32_t, kMaxBuckets + 1> start;  // first buckets + 1 used
  std::fill_n(start.begin(), buckets + 1, 0);
  for (const Candidate& c : in) ++start[bucket(c.due_s) + 1];
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  for (const Candidate& c : in) out[start[bucket(c.due_s)]++] = c;
  std::size_t budget = kShiftBudget * n;
  for (std::size_t i = 1; i < n; ++i) {
    const Candidate c = out[i];
    std::size_t j = i;
    for (; j > 0 && c < out[j - 1]; --j) out[j] = out[j - 1];
    out[j] = c;
    if (i - j > budget) {
      std::sort(out, out + n);
      return;
    }
    budget -= i - j;
  }
}

}  // namespace

const std::vector<std::uint32_t>& ClientPopulation::collect_due(double t0,
                                                                double dt) {
  require(std::isfinite(t0) && std::isfinite(dt), "ClientPopulation: time must be finite");
  require(dt > 0.0, "ClientPopulation: epoch must be positive");
  const double end = t0 + dt;
  // 1. Each shard lists its due clients in id order, and its due span.
  std::array<double, kShards> lo;
  std::array<double, kShards> hi;
  sweep_shards([&](std::size_t s, Tally& t) {
    std::vector<Candidate>& out = shard_due_[s];
    out.clear();
    double shard_lo = kNever;
    double shard_hi = -kNever;
    const auto visit = [&](std::size_t id) {
      const State st = state_[id];
      if (st == State::kWaiting || st == State::kLost) return;
      const double due = due_s_[id];
      // A thinking or cooled-down client starts a fresh intent; a backoff
      // client re-offers its failed one.
      if (st == State::kBackoff) {
        ++t.retries;
        --t.backoff_delta;
        ++attempt_[id];
      } else {
        attempt_[id] = 1;
        ++t.intents;
      }
      ++t.attempts;
      ++t.waiting_delta;
      // In limbo until the caller answers with on_rejected/on_admitted; the
      // attempt is in flight, so it counts as waiting with no deadline yet.
      state_[id] = State::kWaiting;
      due_s_[id] = kNever;
      shard_lo = std::min(shard_lo, due);
      shard_hi = std::max(shard_hi, due);
      out.push_back(Candidate{due, static_cast<std::uint32_t>(id), 0});
    };
    // Sixteen dues per branch: !(due >= end) is the negation of the skip
    // test, so a NaN due is collected. A waiting client whose deadline lies
    // in the epoch sets a bit too, and visit turns it away.
    for_each_marked(
        bounds_[s], bounds_[s + 1],
        [&](std::size_t id) { return mask_not_ge(due_s_.get() + id, end); },
        [&](std::size_t id) { return !(due_s_[id] >= end); }, visit);
    lo[s] = shard_lo;
    hi[s] = shard_hi;
  });

  // 2. One partition of every shard's list into kDueRanges ranges of a
  // monotone linear map over the batch's [min, max] due. Range r holds
  // shard 0's entries, then shard 1's, and so on, so it is in id order,
  // and every due in range r precedes every due in range r + 1.
  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    due_offset_[s] = total;
    total += shard_due_[s].size();
  }
  due_offset_[kShards] = total;
  const double first = *std::min_element(lo.begin(), lo.end());
  const double span = *std::max_element(hi.begin(), hi.end()) - first;
  double scale = span > 0.0 ? static_cast<double>(kDueRanges) / span : 0.0;
  if (!std::isfinite(scale)) scale = 0.0;
  const auto range_of = [&](double due) {  // monotone in due
    const double x = (due - first) * scale;
    return x < static_cast<double>(kDueRanges - 1) ? static_cast<std::size_t>(x)
                                                   : kDueRanges - 1;
  };
  // next[s][r]: per-shard range counts, then where shard s's next entry of
  // range r goes. Positions fit 32 bits: there are at most 2^32 - 1 clients.
  std::array<std::array<std::uint32_t, kDueRanges>, kShards> next;
  for_each_index(kShards, [&](std::size_t s) {
    next[s].fill(0);
    for (const Candidate& c : shard_due_[s]) ++next[s][range_of(c.due_s)];
  });
  std::array<std::size_t, kDueRanges + 1> range_start{};
  std::uint32_t at = 0;
  for (std::size_t r = 0; r < kDueRanges; ++r) {
    range_start[r] = at;
    for (std::size_t s = 0; s < kShards; ++s) {
      at += std::exchange(next[s][r], at);
    }
  }
  range_start[kDueRanges] = at;
  parted_.resize(total);
  for_each_index(kShards, [&](std::size_t s) {
    const std::vector<Candidate>& list = shard_due_[s];
    for (std::size_t j = 0; j < list.size(); ++j) {
      Candidate c = list[j];
      c.slot = static_cast<std::uint32_t>(due_offset_[s] + j);
      parted_[next[s][range_of(c.due_s)]++] = c;
    }
  });

  // 3. Each range in (due, id) order gives the legacy heap's pop order (ids
  // are unique). A range already in order (equal dues, as the immediate
  // policy's retries have) is read where it lies.
  sorted_.resize(total);
  batch_.resize(total);
  batch_slot_.resize(total);
  for_each_index(kDueRanges, [&](std::size_t r) {
    const std::size_t begin = range_start[r];
    const std::span<const Candidate> range(parted_.data() + begin,
                                           range_start[r + 1] - begin);
    const Candidate* ordered = range.data();
    if (!std::is_sorted(range.begin(), range.end())) {
      sort_by_due(range, sorted_.data() + begin);
      ordered = sorted_.data() + begin;
    }
    for (std::size_t i = 0; i < range.size(); ++i) {
      batch_[begin + i] = ordered[i].id;
      batch_slot_[begin + i] = ordered[i].slot;
    }
  });
  batch_answered_ = false;
  return batch_;
}

double ClientPopulation::unit_draw(std::uint32_t id) {
  std::uint32_t& k = draws_[id];
  if (k == std::numeric_limits<std::uint32_t>::max()) [[unlikely]] {
    throw_draws_exhausted();
  }
  ++k;
  const std::uint64_t seed = SplitMix64::mix(
      config_.seed + (std::uint64_t{id} + 2) * SplitMix64::kGamma);
  return static_cast<double>(
             SplitMix64::mix(seed + std::uint64_t{k} * SplitMix64::kGamma) >>
             11) *
         0x1.0p-53;
}

double ClientPopulation::exponential_draw(std::uint32_t id, double mean) {
  return -mean * std::log1p(-unit_draw(id));
}

double ClientPopulation::jitter_draw(std::uint32_t id, double j) {
  return 1.0 - j + 2.0 * j * unit_draw(id);
}

void ClientPopulation::fail_attempt(std::uint32_t id, double now_s,
                                    Tally& t) {
  const double j = config_.retry.jitter_frac;
  --t.waiting_delta;
  if (attempt_[id] >= config_.retry.max_attempts) {
    ++t.abandoned;
    if (config_.retry.abandon_cooldown_s > 0.0) {
      const double jit = draw_on_cooldown_ ? jitter_draw(id, j) : 1.0;
      state_[id] = State::kCooldown;
      due_s_[id] = now_s + config_.retry.abandon_cooldown_s * jit;
    } else {
      state_[id] = State::kLost;
      due_s_[id] = kNever;
      ++t.lost_delta;
    }
    return;
  }
  const double jit = draw_on_retry_ ? jitter_draw(id, j) : 1.0;
  state_[id] = State::kBackoff;
  due_s_[id] = now_s + delay_table_[attempt_[id]] * jit;
  ++t.backoff_delta;
}

void ClientPopulation::answer(std::uint32_t id, bool admitted, double now_s,
                              Tally& t) {
  ensure(state_[id] == State::kWaiting,
         "ClientPopulation: answered a client with no attempt in flight");
  if (admitted) {
    due_s_[id] = now_s + config_.request_timeout_s;
  } else {
    ++t.rejected;
    fail_attempt(id, now_s, t);
  }
}

void ClientPopulation::serve(std::uint32_t id, double now_s, Tally& t) {
  if (state_[id] != State::kWaiting) {
    // The client gave up on this attempt long ago; the service's work on it
    // was wasted — the defining loss of a retry storm.
    ++t.stale_served;
    return;
  }
  ++t.served;
  --t.waiting_delta;
  attempt_[id] = 0;
  state_[id] = State::kThinking;
  due_s_[id] = now_s + exponential_draw(id, config_.think_time_s);
}

void ClientPopulation::on_rejected(std::uint32_t id, double now_s) {
  require(id < config_.clients, "ClientPopulation: client id out of range");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  Tally t;
  answer(id, false, now_s, t);
  apply_tally(t);
}

void ClientPopulation::on_admitted(std::uint32_t id, double now_s) {
  require(id < config_.clients, "ClientPopulation: client id out of range");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  Tally untouched;  // admission changes no counter
  answer(id, true, now_s, untouched);
}

void ClientPopulation::answer_due(std::span<const std::uint8_t> admitted,
                                  double now_s) {
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  require(admitted.size() == batch_.size() && !batch_answered_,
          "ClientPopulation: one answer_due per batch, one verdict per due");
  batch_answered_ = true;
  // Each verdict goes to its client's slot in the shard lists (batch ids
  // are unique, so no slot is written twice); each shard then answers its
  // own list in id order. The scatter is serial: split over threads, its
  // random byte writes bounce cache lines between cores and ran 2x slower.
  slot_verdict_.resize(batch_.size());
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    slot_verdict_[batch_slot_[i]] = admitted[i];
  }
  sweep_shards([&](std::size_t s, Tally& t) {
    const std::vector<Candidate>& list = shard_due_[s];
    const std::uint8_t* verdict = slot_verdict_.data() + due_offset_[s];
    for (std::size_t j = 0; j < list.size(); ++j) {
      answer(list[j].id, verdict[j] != 0, now_s, t);
    }
  });
}

void ClientPopulation::on_served_batch(const std::uint32_t* ids,
                                       std::size_t count, double now_s) {
  const std::size_t n = config_.clients;
  require(std::all_of(ids, ids + count,
                      [n](std::uint32_t id) { return id < n; }),
          "ClientPopulation: client id out of range");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  // by_shard_ is a copy, so `ids` may alias batch_; a client listed twice
  // keeps its order, served fresh and then stale.
  const Offsets offset = group_by_shard(ids, count);
  sweep_shards([&](std::size_t s, Tally& t) {
    for (std::size_t i = offset[s]; i < offset[s + 1]; ++i) {
      // Ids come in random order: fetch the client 8 entries ahead.
      if (i + 8 < offset[s + 1]) {
        const std::uint32_t next = by_shard_[i + 8];
        __builtin_prefetch(&state_[next], 1);
        __builtin_prefetch(&attempt_[next], 1);
        __builtin_prefetch(&due_s_[next], 1);
        __builtin_prefetch(&draws_[next], 1);
      }
      serve(by_shard_[i], now_s, t);
    }
  });
}

void ClientPopulation::expire_timeouts(double now_s) {
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  // Sixteen states per branch: only waiting clients set a bit.
  const auto* state = reinterpret_cast<const std::uint8_t*>(state_.get());
  constexpr auto kWaiting = static_cast<std::uint8_t>(State::kWaiting);
  sweep_shards([&](std::size_t s, Tally& t) {
    for_each_marked(
        bounds_[s], bounds_[s + 1],
        [&](std::size_t id) { return mask_eq(state + id, kWaiting); },
        [&](std::size_t id) { return state[id] == kWaiting; },
        [&](std::size_t id) {
          // Limbo clients (due = inf) and admitted clients with a live
          // deadline both fail the due test; only expired waiters go on.
          if (due_s_[id] > now_s) return;
          ++t.timed_out;
          fail_attempt(static_cast<std::uint32_t>(id), now_s, t);
        });
  });
}

void ClientPopulation::disconnect_client(std::uint32_t id, double now_s,
                                         Tally& t) {
  switch (state_[id]) {
    case State::kWaiting:
      ++t.dropped;
      ++t.disconnected_intents;
      --t.waiting_delta;
      break;
    case State::kBackoff:
      ++t.retry_cancelled;
      ++t.disconnected_intents;
      --t.backoff_delta;
      break;
    case State::kThinking:
    case State::kCooldown:
      break;
    case State::kLost:
      return;  // gone for good; no session to drop
  }
  ++t.disconnects;
  attempt_[id] = 0;
  // Session re-establishment: reconnects arrive with exponential spread, so
  // the aggregate login surge decays like the Fig. 3 flash-crowd spikes.
  state_[id] = State::kThinking;
  due_s_[id] = now_s + exponential_draw(id, config_.reconnect_spread_s);
}

void ClientPopulation::disconnect_all(double now_s) {
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  sweep_shards([&](std::size_t s, Tally& t) {
    for (std::size_t id = bounds_[s]; id < bounds_[s + 1]; ++id) {
      disconnect_client(static_cast<std::uint32_t>(id), now_s, t);
    }
  });
}

void ClientPopulation::disconnect_fraction(double fraction, double now_s) {
  require(fraction >= 0.0 && fraction <= 1.0,
          "ClientPopulation: disconnect fraction outside [0, 1]");
  require(std::isfinite(now_s), "ClientPopulation: time must be finite");
  if (fraction >= 1.0) {
    disconnect_all(now_s);  // no draws: the full-outage path stays stream-stable
    return;
  }
  // Serial by necessity: the selection draws come from one shared stream
  // that must advance in id order to stay bit-compatible.
  Tally t;
  for (std::uint32_t id = 0; id < config_.clients; ++id) {
    if (uniform01(disconnect_rng_) < fraction) disconnect_client(id, now_s, t);
  }
  apply_tally(t);
}

bool ClientPopulation::conservation_ok() const {
  return conservation_report().empty();
}

std::string ClientPopulation::conservation_report() const {
  return client_conservation_report(ledger_, waiting_count_, backoff_count_);
}

}  // namespace epm::workload
