// Heap-allocation budgets of the macro manager's hot path. The global
// operator new is replaced by a counting one, so these tests build into
// their own executable (epm_alloc_tests) and never share a process with
// the main suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "macro/coordinator.h"
#include "macro/facility.h"
#include "sensing/estimator.h"
#include "sensing/sensor_plane.h"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace epm {
namespace {

using sensing::ChannelKind;
using sensing::make_channel;

// After a channel's first read (which creates its RNG stream and estimate
// and sizes the vote buffer), a sampling round and its estimate update
// allocate nothing, raw or median-voted, at redundancy 1 and 3.
TEST(AllocationBudget, SensorReadsAfterAChannelsFirstAllocateNothing) {
  for (const std::uint32_t redundancy : {1u, 3u}) {
    for (const bool validate : {false, true}) {
      sensing::SensorPlaneConfig plane_config;
      plane_config.redundancy = redundancy;
      plane_config.base_noise_frac = validate ? 0.01 : 0.0;
      plane_config.fault_domains = 3;
      sensing::SensorPlane plane(plane_config);
      sensing::EstimatorConfig estimator_config;
      estimator_config.validate = validate;
      sensing::ValidatedEstimator estimator(estimator_config);
      const sensing::ChannelKey channels[] = {
          make_channel(ChannelKind::kServiceArrival, 0),
          make_channel(ChannelKind::kServiceDemand, 1),
          make_channel(ChannelKind::kZoneTemp, 0)};
      const double truths[] = {1200.0, 0.01, 24.0};
      for (std::size_t c = 0; c < 3; ++c) {
        (void)estimator.update(channels[c], plane.sample(channels[c], truths[c], 0.0),
                               0.0);
      }

      const std::size_t before = g_allocations;
      double sum = 0.0;
      for (int i = 1; i <= 200; ++i) {
        const double now_s = 60.0 * i;
        for (std::size_t c = 0; c < 3; ++c) {
          sum += estimator
                     .update(channels[c],
                             plane.sample(channels[c], truths[c], now_s), now_s)
                     .value;
        }
      }
      EXPECT_EQ(g_allocations - before, 0u)
          << "redundancy " << redundancy << (validate ? " validated" : " raw");
      EXPECT_GT(sum, 0.0);
      EXPECT_EQ(plane.readings(), 201u * 3u * redundancy);
    }
  }
}

// Over a warmed-up slice of a week, a manager step allocates at most one
// more time, on average, than a bare Facility::step on a twin facility
// (whose own allocation is the step's per-service result vector).
TEST(AllocationBudget, ManagerStepsStayWithinOneAllocationOfABareStep) {
  const macro::FacilityConfig config = macro::make_reference_facility(60);
  macro::Facility managed(config);
  macro::MacroResourceManager manager(managed);
  macro::Facility twin(config);
  std::vector<double> demand(2, 0.0);
  const auto set_demand = [&demand](int epoch) {
    const double phase = 2.0 * 3.14159265358979323846 * epoch / 1440.0;
    demand[0] = 2000.0 + 1800.0 * std::sin(phase);
    demand[1] = 1250.0 + 1100.0 * std::sin(phase + 1.0);
  };

  constexpr int kWarmupEpochs = 1440;  // one day of 60 s epochs
  constexpr int kSliceEpochs = 2 * 1440;
  for (int e = 0; e < kWarmupEpochs; ++e) {
    set_demand(e);
    (void)manager.step(demand, 18.0);
    (void)twin.step(demand, 18.0);
  }

  std::size_t manager_allocations = 0;
  std::size_t bare_allocations = 0;
  for (int e = kWarmupEpochs; e < kWarmupEpochs + kSliceEpochs; ++e) {
    set_demand(e);
    std::size_t before = g_allocations;
    (void)manager.step(demand, 18.0);
    manager_allocations += g_allocations - before;
    before = g_allocations;
    (void)twin.step(demand, 18.0);
    bare_allocations += g_allocations - before;
  }
  EXPECT_LE(manager_allocations, bare_allocations + kSliceEpochs)
      << manager_allocations << " manager vs " << bare_allocations
      << " bare allocations over " << kSliceEpochs << " steps";
  EXPECT_GT(manager.log().size(), 0u);
}

}  // namespace
}  // namespace epm
