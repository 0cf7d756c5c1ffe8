#include "sim/sharded_simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/require.h"

namespace epm::sim {

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Which shard the calling thread is currently executing a window for.
/// Set around each shard's run inside a window (worker threads and the
/// serial inline path alike), so send() can verify that an event on shard
/// i never impersonates another source — that would break both FIFO
/// ordering and the lookahead proof.
thread_local std::size_t t_current_shard = kNoShard;

/// RAII so an exception thrown by an event callback cannot leave a worker
/// thread permanently tagged with a stale shard id.
struct ShardScope {
  explicit ShardScope(std::size_t i) { t_current_shard = i; }
  ~ShardScope() { t_current_shard = kNoShard; }
};

}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config) {
  require(config.shards >= 1, "ShardedSimulator: need at least one shard");
  const std::size_t n = config.shards;

  if (config.lookahead_s.empty()) {
    require(n == 1 || config.uniform_lookahead_s > 0.0,
            "ShardedSimulator: a multi-shard federation needs a positive "
            "lookahead (the minimum inter-DC latency floor)");
    lookahead_.assign(n * n, config.uniform_lookahead_s);
  } else {
    require(config.lookahead_s.size() == n * n,
            "ShardedSimulator: lookahead matrix must be shards x shards");
    lookahead_ = config.lookahead_s;
  }
  min_lookahead_s_ = kInf;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const double l = lookahead_[src * n + dst];
      require(l > 0.0 && std::isfinite(l), [&] {
        return "ShardedSimulator: lookahead[" + std::to_string(src) + "][" +
               std::to_string(dst) + "] must be positive and finite";
      });
      min_lookahead_s_ = std::min(min_lookahead_s_, l);
    }
  }

  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->outbox.resize(n);
    s->parked.resize(n);
    s->pair_index.assign(n, 0);
    s->down_floor.assign(n, 0.0);
    shards_.push_back(std::move(s));
  }

  // No more runners than shards: a window has one task per shard, and an
  // extra runner would only spin through every window with nothing to claim.
  threads_ = config.threads == 1
                 ? 1
                 : std::min(n, resolve_thread_count(
                                   static_cast<std::int64_t>(config.threads)));
}

ShardedSimulator::~ShardedSimulator() = default;

Simulator& ShardedSimulator::shard(std::size_t i) {
  require(i < shards_.size(), "ShardedSimulator: shard index out of range");
  return shards_[i]->sim;
}

const Simulator& ShardedSimulator::shard(std::size_t i) const {
  require(i < shards_.size(), "ShardedSimulator: shard index out of range");
  return shards_[i]->sim;
}

double ShardedSimulator::lookahead_s(std::size_t src, std::size_t dst) const {
  require(src < shards_.size() && dst < shards_.size(),
          "ShardedSimulator: shard index out of range");
  if (src == dst) return kInf;
  return lookahead_[src * shards_.size() + dst];
}

void ShardedSimulator::send(std::size_t src, std::size_t dst, double delay_s,
                            EventFn fn) {
  require(src < shards_.size() && dst < shards_.size(),
          "ShardedSimulator: shard index out of range");
  require(static_cast<bool>(fn), "ShardedSimulator: empty event function");
  ensure(t_current_shard == kNoShard || t_current_shard == src, [&] {
    return "ShardedSimulator::send: an event executing on shard " +
           std::to_string(t_current_shard) + " tried to send as shard " +
           std::to_string(src) +
           " — cross-shard sends must originate from their own kernel";
  });
  Shard& s = *shards_[src];
  if (src == dst) {
    // Loopback: an ordinary local schedule, no conservative constraint.
    require(delay_s >= 0.0, "ShardedSimulator::send: negative delay");
    s.sim.schedule_at(s.sim.now() + delay_s, std::move(fn));
    return;
  }
  const double floor_s = lookahead_[src * shards_.size() + dst];
  if (!(delay_s >= floor_s)) {
    throw std::invalid_argument(
        "ShardedSimulator::send: delay " + std::to_string(delay_s) +
        " s is below the shard " + std::to_string(src) + " -> " +
        std::to_string(dst) + " lookahead floor of " +
        std::to_string(floor_s) +
        " s; a conservative federation cannot deliver inside the window "
        "other shards are already executing (raise the delay or lower the "
        "configured inter-DC latency floor)");
  }
  Message m;
  m.fn = std::move(fn);
  route_message(src, dst, s.sim.now() + delay_s, std::move(m));
}

void ShardedSimulator::send_tagged(std::size_t src, std::size_t dst,
                                   double delay_s, std::uint64_t tag,
                                   std::vector<std::uint64_t> payload) {
  require(src < shards_.size() && dst < shards_.size(),
          "ShardedSimulator: shard index out of range");
  ensure(t_current_shard == kNoShard || t_current_shard == src, [&] {
    return "ShardedSimulator::send_tagged: an event executing on shard " +
           std::to_string(t_current_shard) + " tried to send as shard " +
           std::to_string(src);
  });
  require(static_cast<bool>(tagged_delivery_),
          "ShardedSimulator::send_tagged: no tagged-delivery hook installed");
  Shard& s = *shards_[src];
  if (src == dst) {
    // Loopback: hand straight to the hook on the calling shard — it only
    // touches this shard's state, exactly like a local schedule.
    require(delay_s >= 0.0, "ShardedSimulator::send_tagged: negative delay");
    tagged_delivery_(dst, s.sim.now() + delay_s, tag, payload);
    return;
  }
  const double floor_s = lookahead_[src * shards_.size() + dst];
  if (!(delay_s >= floor_s)) {
    throw std::invalid_argument(
        "ShardedSimulator::send_tagged: delay " + std::to_string(delay_s) +
        " s is below the shard " + std::to_string(src) + " -> " +
        std::to_string(dst) + " lookahead floor of " +
        std::to_string(floor_s) + " s");
  }
  Message m;
  m.tagged = true;
  m.tag = tag;
  m.payload = std::move(payload);
  route_message(src, dst, s.sim.now() + delay_s, std::move(m));
}

void ShardedSimulator::set_tagged_delivery(TaggedDelivery hook) {
  require(static_cast<bool>(hook),
          "ShardedSimulator: empty tagged-delivery hook");
  tagged_delivery_ = std::move(hook);
}

void ShardedSimulator::set_link_plan(const network::InterDcLinkPlan* plan) {
  if (plan != nullptr) {
    require(plan->site_count() == shards_.size(),
            "ShardedSimulator: link plan site count must equal the shard "
            "count");
  }
  require(messages_parked() == 0,
          "ShardedSimulator: cannot swap the link plan while messages are "
          "parked behind a partition (heal and drain first)");
  link_plan_ = plan;
}

void ShardedSimulator::route_message(std::size_t src, std::size_t dst,
                                     double when_s, Message m) {
  Shard& s = *shards_[src];
  const std::uint64_t index = s.pair_index[dst]++;
  ++s.sent;
  if (link_plan_ != nullptr && !link_plan_->pristine()) {
    const double send_s = s.sim.now();
    const network::LinkDelivery dv =
        link_plan_->adjust(src, dst, send_s, when_s, index);
    if (!dv.deliverable) {
      auto& queue = s.parked[dst];
      if (queue.size() >= link_plan_->policy().parked_capacity) {
        throw std::runtime_error(
            "ShardedSimulator: partition mailbox " + std::to_string(src) +
            " -> " + std::to_string(dst) + " full (" +
            std::to_string(queue.size()) +
            " parked messages); heal the link or raise "
            "LinkPolicy::parked_capacity");
      }
      Parked p;
      p.send_s = send_s;
      p.nominal_when_s = when_s;
      p.pair_index = index;
      p.fn = std::move(m.fn);
      p.tagged = m.tagged;
      p.tag = m.tag;
      p.payload = std::move(m.payload);
      queue.push_back(std::move(p));
      return;
    }
    when_s = dv.when_s;
    if (dv.redeliveries > 0) ++s.redelivered;
    // Per-pair delivery-order floor: while a link plan is attached, the
    // (src, dst) channel behaves like one ordered connection — a message
    // sent later never undercuts an earlier one's delivery time, even when
    // the earlier one went through the lossy/partition redelivery path.
    when_s = std::max(when_s, s.down_floor[dst]);
    s.down_floor[dst] = when_s;
  }
  m.when_s = when_s;
  s.outbox[dst].push_back(std::move(m));
}

void ShardedSimulator::deliver_message(std::size_t dst, double when_s,
                                       Message& m) {
  if (m.tagged) {
    ensure(static_cast<bool>(tagged_delivery_),
           "ShardedSimulator: tagged message with no delivery hook");
    tagged_delivery_(dst, when_s, m.tag, m.payload);
  } else {
    shards_[dst]->sim.schedule_at(when_s, std::move(m.fn));
  }
}

void ShardedSimulator::check_run_entry() const {
  ensure(!running_ && !(pool_ && pool_->on_worker_thread()),
         "ShardedSimulator: run re-entered from inside an event callback "
         "(drive the federation from one coordinator thread only)");
}

std::size_t ShardedSimulator::run_window(double stop_s, bool inclusive) {
  running_ = true;
  const std::size_t n = shards_.size();
  auto chunk = [this, stop_s, inclusive](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ShardScope scope(i);
      Shard& s = *shards_[i];
      s.window_ran =
          inclusive ? s.sim.run_until(stop_s) : s.sim.run_before(stop_s);
    }
  };
  try {
    if (threads_ == 1) {
      chunk(0, n);
    } else {
      // Pool or coordinator, by the cost of recent windows. On a 4-vCPU
      // host a pooled window pays ~5 us of fork-join hand-off and shard
      // state moving between cores, while the control-plane drills' windows
      // hold ~2 us of events (4.7 events each) and the 4-DC fleet storm's
      // 0.4-10 ms; event counts cannot tell them apart (5.7 per fleet
      // window), wall time can. 50 us keeps the drills inline and the
      // fleet on the pool. The estimate halves instead of resetting: with
      // a last-window-only rule, the fleet's heavy windows that follow
      // 1-4 us message windows at an outage onset ran inline and fleet reps
      // were 10-18% slower; halving sends 186 of its 187 windows to the
      // pool.
      const auto start = std::chrono::steady_clock::now();
      if (window_cost_ >= kPoolWindowCost) {
        if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
        ++windows_pooled_;
        pool_->parallel_for(n, chunk);
      } else {
        chunk(0, n);
      }
      window_cost_ = std::max(std::chrono::steady_clock::now() - start,
                              window_cost_ / 2);
    }
  } catch (...) {
    running_ = false;
    throw;
  }
  running_ = false;
  ++windows_run_;
  std::size_t ran = 0;
  for (const auto& s : shards_) ran += s->window_ran;
  return ran;
}

std::size_t ShardedSimulator::drain_parked(double min_legal_when_s) {
  if (link_plan_ == nullptr) return 0;
  std::size_t delivered = 0;
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    Shard& s = *shards_[src];
    for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
      auto& queue = s.parked[dst];
      while (!queue.empty()) {
        Parked& p = queue.front();
        const network::LinkDelivery dv = link_plan_->adjust(
            src, dst, p.send_s, p.nominal_when_s, p.pair_index);
        // Still inside an open partition window: the whole queue was sent
        // later (per-shard send times are nondecreasing), so stop here and
        // keep the FIFO intact.
        if (!dv.deliverable) break;
        double when = std::max(dv.when_s, s.down_floor[dst]);
        s.down_floor[dst] = when;
        if (dv.redeliveries > 0) ++s.redelivered;
        ensure(when >= min_legal_when_s, [&] {
          return "ShardedSimulator: a healed link released a message for t=" +
                 std::to_string(when) +
                 " inside the already-executed horizon t=" +
                 std::to_string(min_legal_when_s) +
                 " — heal() must be called with end_s >= horizon_s()";
        });
        Message m;
        m.fn = std::move(p.fn);
        m.tagged = p.tagged;
        m.tag = p.tag;
        m.payload = std::move(p.payload);
        queue.pop_front();
        deliver_message(dst, when, m);
        ++delivered;
      }
    }
  }
  return delivered;
}

std::size_t ShardedSimulator::deliver_all(double min_legal_when_s) {
  std::size_t delivered = drain_parked(min_legal_when_s);
  for (auto& src : shards_) {
    for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
      auto& box = src->outbox[dst];
      for (Message& m : box) {
        ensure(m.when_s >= min_legal_when_s, [&] {
          return "ShardedSimulator: conservative horizon violated — a message "
                 "for t=" + std::to_string(m.when_s) +
                 " arrived after the window ending at t=" +
                 std::to_string(min_legal_when_s) + " was already executed";
        });
        deliver_message(dst, m.when_s, m);
        ++delivered;
      }
      box.clear();
    }
  }
  return delivered;
}

std::size_t ShardedSimulator::run_until(double until_s) {
  check_run_entry();
  require(!std::isnan(until_s), "ShardedSimulator: run_until(NaN)");
  if (shards_.size() == 1) {
    // Degenerate federation: one kernel, no windows, no barriers — the
    // event sequence is exactly the plain Simulator's.
    const std::size_t ran = shards_[0]->sim.run_until(until_s);
    horizon_s_ = std::max(horizon_s_, until_s);
    now_s_ = std::max(now_s_, until_s);
    return ran;
  }
  // Messages sent between runs (world setup, epoch glue) are still sitting
  // in their outboxes: deliver them first, or a federation whose only work
  // arrives via send() would see every queue empty and run nothing. Their
  // timestamps are >= the committed horizon (clocks never precede it and
  // off-diagonal floors are positive), so delivery is conservative-safe.
  deliver_all(horizon_s_);
  std::size_t ran = 0;
  for (;;) {
    double ng = kInf;
    for (auto& s : shards_) ng = std::min(ng, s->sim.next_time());
    if (!(ng <= until_s)) break;  // empty, or everything is beyond the horizon
    const double w1 = ng + min_lookahead_s_;
    if (w1 > until_s) {
      // Final stretch: every event left in (ng, until_s] can only emit
      // messages for t >= ng + L > until_s, so the whole remainder is one
      // safe inclusive window.
      ran += run_window(until_s, /*inclusive=*/true);
      horizon_s_ = std::max(horizon_s_, until_s);
      deliver_all(w1);
      break;
    }
    ran += run_window(w1, /*inclusive=*/false);
    horizon_s_ = std::max(horizon_s_, w1);
    deliver_all(w1);
  }
  // Single-kernel run_until parity: clocks land on until_s even when no
  // event sits exactly there.
  for (auto& s : shards_) {
    if (s->sim.now() < until_s) s->sim.run_until(until_s);
  }
  horizon_s_ = std::max(horizon_s_, until_s);
  now_s_ = std::max(now_s_, until_s);
  return ran;
}

std::size_t ShardedSimulator::run_all() {
  check_run_entry();
  if (shards_.size() == 1) {
    const std::size_t ran = shards_[0]->sim.run_all();
    now_s_ = std::max(now_s_, shards_[0]->sim.now());
    horizon_s_ = std::max(horizon_s_, now_s_);
    return ran;
  }
  deliver_all(horizon_s_);  // setup-time sends (see run_until)
  std::size_t ran = 0;
  for (;;) {
    double ng = kInf;
    for (auto& s : shards_) ng = std::min(ng, s->sim.next_time());
    if (ng == kInf) break;  // every queue and mailbox is empty
    const double w1 = ng + min_lookahead_s_;
    ran += run_window(w1, /*inclusive=*/false);
    horizon_s_ = std::max(horizon_s_, w1);
    deliver_all(w1);
  }
  for (auto& s : shards_) now_s_ = std::max(now_s_, s->sim.now());
  horizon_s_ = std::max(horizon_s_, now_s_);
  return ran;
}

std::size_t ShardedSimulator::pending() const {
  std::size_t total = 0;
  for (const auto& s : shards_) total += s->sim.pending();
  return total;
}

std::uint64_t ShardedSimulator::messages_sent() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sent;
  return total;
}

std::uint64_t ShardedSimulator::messages_parked() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    for (const auto& queue : s->parked) total += queue.size();
  }
  return total;
}

std::uint64_t ShardedSimulator::messages_redelivered() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->redelivered;
  return total;
}

namespace {
/// Section magic for the federation's own snapshot payload ("fedr").
constexpr std::uint32_t kFederationMagic = 0x66656472;
constexpr std::uint32_t kFederationVersion = 1;
/// Bytes of one serialized parked message with an empty payload.
constexpr std::size_t kParkedBytes = 5 * 8;
}  // namespace

template <typename Self, typename Io>
void ShardedSimulator::fields(Self& self, Io& io) {
  io.section(kFederationMagic, kFederationVersion);
  io.expect(self.shards_.size(),
            "ShardedSimulator: snapshot shard count does not match this "
            "federation");
  io.field(self.now_s_);
  io.field(self.horizon_s_);
  io.field(self.windows_run_);
  for (auto& s : self.shards_) {
    io.field(s->sent);
    io.field(s->redelivered);
    for (auto& index : s->pair_index) io.field(index);
    for (auto& floor : s->down_floor) io.field(floor);
    for (auto& queue : s->parked) {
      io.size(queue, kParkedBytes);
      for (auto& p : queue) {
        io.field(p.send_s);
        io.field(p.nominal_when_s);
        io.field(p.pair_index);
        io.field(p.tag);
        io.field(p.payload);
      }
    }
  }
}

void ShardedSimulator::save_state(SnapshotWriter& w) const {
  ensure(!running_, "ShardedSimulator: save_state during a run");
  for (const auto& s : shards_) {
    for (const auto& box : s->outbox) {
      ensure(box.empty(),
             "ShardedSimulator: save_state with undelivered mailbox messages "
             "(snapshot only at a window barrier, between runs)");
    }
    for (const auto& queue : s->parked) {
      for (const Parked& p : queue) {
        if (!p.tagged) {
          throw std::runtime_error(
              "ShardedSimulator: a parked closure message cannot be "
              "serialized — worlds that snapshot under partitions must use "
              "send_tagged for cross-shard traffic");
        }
      }
    }
  }
  fields(*this, w);
}

void ShardedSimulator::restore_state(SnapshotReader& r) {
  ensure(!running_, "ShardedSimulator: restore_state during a run");
  fields(*this, r);
  require(std::isfinite(now_s_) && std::isfinite(horizon_s_) &&
              horizon_s_ <= now_s_,
          "ShardedSimulator: snapshot clock/horizon corrupt");
}

}  // namespace epm::sim
