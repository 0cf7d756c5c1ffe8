#include "network/interdc_link.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/require.h"
#include "core/rng.h"

namespace epm::network {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const char* mode_name(LinkMode mode) {
  switch (mode) {
    case LinkMode::kUp:
      return "up";
    case LinkMode::kSlow:
      return "slow";
    case LinkMode::kLossy:
      return "lossy";
    case LinkMode::kDown:
      return "down";
  }
  return "?";
}

/// The window covering time `t`, or nullptr. Windows are sorted and
/// non-overlapping, so the last window starting at or before `t` decides.
const LinkWindow* covering(const std::vector<LinkWindow>& windows, double t) {
  const LinkWindow* hit = nullptr;
  for (const LinkWindow& w : windows) {
    if (w.start_s > t) break;
    if (t < w.end_s) hit = &w;
  }
  return hit;
}

}  // namespace

InterDcLinkPlan::InterDcLinkPlan(std::size_t sites, LinkPolicy policy)
    : sites_(sites), policy_(policy) {
  require(sites >= 1, "InterDcLinkPlan: need at least one site");
  require(policy.parked_capacity >= 1,
          "InterDcLinkPlan: parked capacity must be at least 1");
  require(policy.redelivery_timeout_s > 0.0 &&
              std::isfinite(policy.redelivery_timeout_s),
          "InterDcLinkPlan: redelivery timeout must be positive and finite");
  require(policy.backoff_cap_s >= policy.redelivery_timeout_s,
          "InterDcLinkPlan: backoff cap below the redelivery timeout");
  require(policy.jitter_frac >= 0.0 && policy.jitter_frac < 1.0,
          "InterDcLinkPlan: jitter fraction outside [0, 1)");
}

void InterDcLinkPlan::check_pair(std::size_t src, std::size_t dst) const {
  require(src < sites_ && dst < sites_, [&] {
    return "InterDcLinkPlan: site index out of range (sites = " +
           std::to_string(sites_) + ")";
  });
  require(src != dst, "InterDcLinkPlan: a site has no link to itself");
}

std::vector<LinkWindow>& InterDcLinkPlan::pair(std::size_t src,
                                               std::size_t dst) {
  for (PairWindows& p : windows_) {
    if (p.src == src && p.dst == dst) return p.windows;
  }
  windows_.push_back(PairWindows{src, dst, {}});
  return windows_.back().windows;
}

const std::vector<LinkWindow>* InterDcLinkPlan::find_pair(
    std::size_t src, std::size_t dst) const {
  for (const PairWindows& p : windows_) {
    if (p.src == src && p.dst == dst) return &p.windows;
  }
  return nullptr;
}

void InterDcLinkPlan::insert_window(std::size_t src, std::size_t dst,
                                    LinkWindow w) {
  check_pair(src, dst);
  require(w.start_s >= 0.0 && std::isfinite(w.start_s),
          "InterDcLinkPlan: window start must be finite and >= 0");
  require(w.end_s > w.start_s, "InterDcLinkPlan: window end must follow start");
  auto& windows = pair(src, dst);
  for (const LinkWindow& have : windows) {
    const bool disjoint = w.end_s <= have.start_s || have.end_s <= w.start_s;
    if (!disjoint) {
      throw std::invalid_argument(
          "InterDcLinkPlan: " + std::string(mode_name(w.mode)) + " window [" +
          std::to_string(w.start_s) + ", " + std::to_string(w.end_s) +
          ") on link " + std::to_string(src) + "->" + std::to_string(dst) +
          " overlaps the existing " + mode_name(have.mode) + " window [" +
          std::to_string(have.start_s) + ", " + std::to_string(have.end_s) +
          ")");
    }
  }
  windows.push_back(w);
  std::sort(windows.begin(), windows.end(),
            [](const LinkWindow& a, const LinkWindow& b) {
              return a.start_s < b.start_s;
            });
}

void InterDcLinkPlan::slow(std::size_t src, std::size_t dst, double start_s,
                           double end_s, double factor) {
  require(factor >= 1.0 && std::isfinite(factor),
          "InterDcLinkPlan: slow factor must be finite and >= 1");
  require(std::isfinite(end_s),
          "InterDcLinkPlan: slow windows must be finite");
  LinkWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.mode = LinkMode::kSlow;
  w.slow_factor = factor;
  insert_window(src, dst, w);
}

void InterDcLinkPlan::lose(std::size_t src, std::size_t dst, double start_s,
                           double end_s, double loss_prob) {
  require(loss_prob >= 0.0 && loss_prob <= 1.0,
          "InterDcLinkPlan: loss probability outside [0, 1]");
  require(std::isfinite(end_s),
          "InterDcLinkPlan: lossy windows must be finite (an eternal lossy "
          "link could defer a message forever)");
  LinkWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.mode = LinkMode::kLossy;
  w.loss_prob = loss_prob;
  insert_window(src, dst, w);
}

void InterDcLinkPlan::partition(std::size_t src, std::size_t dst,
                                double start_s, double end_s) {
  LinkWindow w;
  w.start_s = start_s;
  w.end_s = end_s;
  w.mode = LinkMode::kDown;
  insert_window(src, dst, w);
}

void InterDcLinkPlan::heal(std::size_t src, std::size_t dst, double end_s) {
  check_pair(src, dst);
  require(std::isfinite(end_s), "InterDcLinkPlan: heal time must be finite");
  auto& windows = pair(src, dst);
  for (LinkWindow& w : windows) {
    if (w.mode == LinkMode::kDown && w.end_s == kInf) {
      require(end_s > w.start_s,
              "InterDcLinkPlan: heal time precedes the partition start");
      w.end_s = end_s;
      return;
    }
  }
  throw std::invalid_argument("InterDcLinkPlan: no open partition on link " +
                              std::to_string(src) + "->" +
                              std::to_string(dst) + " to heal");
}

bool InterDcLinkPlan::partitioned_at(std::size_t src, std::size_t dst,
                                     double t) const {
  check_pair(src, dst);
  const auto* windows = find_pair(src, dst);
  if (windows == nullptr) return false;
  const LinkWindow* w = covering(*windows, t);
  return w != nullptr && w->mode == LinkMode::kDown && w->end_s == kInf;
}

double InterDcLinkPlan::jitter_u(std::size_t src, std::size_t dst,
                                 std::uint64_t msg_index,
                                 std::uint32_t attempt) const {
  // Keyed by the coordinates: streams independent per (pair, message,
  // attempt) without any mutable state.
  return keyed_uniform({policy_.seed, static_cast<std::uint64_t>(src),
                        static_cast<std::uint64_t>(dst), msg_index,
                        static_cast<std::uint64_t>(attempt)});
}

LinkDelivery InterDcLinkPlan::adjust(std::size_t src, std::size_t dst,
                                     double send_s, double nominal_when_s,
                                     std::uint64_t msg_index) const {
  check_pair(src, dst);
  require(nominal_when_s >= send_s,
          "InterDcLinkPlan: nominal delivery precedes the send");
  LinkDelivery out;
  out.when_s = nominal_when_s;
  const auto* windows = find_pair(src, dst);
  if (windows == nullptr) return out;
  const LinkWindow* w = covering(*windows, send_s);
  if (w == nullptr || w->mode == LinkMode::kUp) return out;

  const double timeout = policy_.redelivery_timeout_s;
  const double cap = policy_.backoff_cap_s;
  const auto backoff = [&](std::uint32_t attempt) {
    // attempt k >= 1: timeout * 2^(k-1), capped, stretched by jitter.
    double base = timeout;
    for (std::uint32_t i = 1; i < attempt && base < cap; ++i) base *= 2.0;
    base = std::min(base, cap);
    return base * (1.0 + policy_.jitter_frac *
                             jitter_u(src, dst, msg_index, attempt));
  };

  switch (w->mode) {
    case LinkMode::kSlow:
      out.when_s = send_s + (nominal_when_s - send_s) * w->slow_factor;
      return out;
    case LinkMode::kLossy: {
      // Attempt 0 arrives at the nominal time; each lost attempt triggers a
      // retransmission one backoff later. An attempt at/after the window end
      // always lands, so the loop terminates at the (finite) window edge.
      double t = nominal_when_s;
      std::uint32_t attempt = 0;
      while (t < w->end_s &&
             jitter_u(src, dst, msg_index, 1000000U + attempt) <
                 w->loss_prob) {
        ++attempt;
        t += backoff(attempt);
      }
      out.when_s = t;
      out.redeliveries = attempt;
      return out;
    }
    case LinkMode::kDown: {
      if (w->end_s == kInf) {
        out.deliverable = false;
        out.when_s = 0.0;
        return out;
      }
      // Retry until the first attempt at/after the heal; the payload then
      // also needs its propagation time, so delivery never precedes the
      // nominal arrival.
      double t = send_s;
      std::uint32_t attempt = 0;
      do {
        ++attempt;
        t += backoff(attempt);
      } while (t < w->end_s);
      out.when_s = std::max(nominal_when_s, t);
      out.redeliveries = attempt;
      return out;
    }
    case LinkMode::kUp:
      break;
  }
  return out;
}

}  // namespace epm::network
