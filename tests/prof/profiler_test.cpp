#include "prof/profiler.hpp"

#include <gtest/gtest.h>

namespace bb::prof {
namespace {

using namespace bb::literals;

cpu::CpuCostModel deterministic_model() {
  cpu::CpuCostModel m;
  m.strip_jitter();
  return m;
}

// A region doing plain work, and a pair that nests in the stack
// (ucp_tag_send_nb runs inside MPI_Isend).
constexpr Point kWork = Point::kLlpPost;
constexpr Point kOuter = Point::kMpiIsend;
constexpr Point kInner = Point::kUcpTagSendNb;

struct Fixture {
  sim::Simulator sim;
  cpu::Core core;
  Profiler prof;
  explicit Fixture(cpu::CpuCostModel m) : core(sim, m), prof(core) {
    prof.select({kWork, kOuter, kInner});
  }
};

TEST(Profiler, CompensatedDurationMatchesRegionWork) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin(kWork);
  f.core.consume(175.42_ns);
  f.prof.end(r);
  // With deterministic overhead, compensation is exact.
  EXPECT_NEAR(f.prof.mean_ns(kWork), 175.42, 1e-6);
}

TEST(Profiler, PerturbsTimelineByOneOverheadPerRegion) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin(kWork);
  f.core.consume(100_ns);
  f.prof.end(r);
  // Region work + one full timer overhead landed on the core.
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0 + 49.69, 1e-6);
}

TEST(Profiler, DisabledCostsAndRecordsNothing) {
  Fixture f(deterministic_model());
  f.prof.set_enabled(false);
  auto r = f.prof.begin(kWork);
  f.core.consume(100_ns);
  f.prof.end(r);
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0, 1e-9);
  EXPECT_FALSE(f.prof.has(kWork));
}

TEST(Profiler, UnselectedPointCostsAndRecordsNothing) {
  Fixture f(deterministic_model());
  f.prof.select({kOuter});
  auto r = f.prof.begin(kWork);
  EXPECT_FALSE(r.active);
  f.core.consume(100_ns);
  f.prof.end(r);
  EXPECT_NEAR(f.core.virtual_now().to_ns(), 100.0, 1e-9);
  EXPECT_FALSE(f.prof.has(kWork));
}

TEST(Profiler, NestedRegionsInnerInflatesOuterRaw) {
  // The outer region's raw span contains the inner region's overhead --
  // the reason §3 measures one component at a time. Here the outer mean
  // exceeds inner work + outer work by exactly one extra overhead.
  Fixture f(deterministic_model());
  auto outer = f.prof.begin(kOuter);
  f.core.consume(50_ns);
  auto inner = f.prof.begin(kInner);
  f.core.consume(30_ns);
  f.prof.end(inner);
  f.prof.end(outer);
  EXPECT_NEAR(f.prof.mean_ns(kInner), 30.0, 1e-6);
  EXPECT_NEAR(f.prof.mean_ns(kOuter), 80.0 + 49.69, 1e-6);
}

TEST(Profiler, NoisyOverheadCompensationIsUnbiased) {
  cpu::CpuCostModel m;
  m.strip_jitter();
  m.timer_read = cpu::CostSpec{49.69, 1.48 / 49.69, 0.0, 0.0};  // paper §3
  Fixture f(m);
  for (int i = 0; i < 2000; ++i) {
    auto r = f.prof.begin(kWork);
    f.core.consume(100_ns);
    f.prof.end(r);
  }
  const Summary s = f.prof.samples(kWork).summarize();
  EXPECT_NEAR(s.mean, 100.0, 0.15);   // unbiased
  EXPECT_NEAR(s.stddev, 1.48, 0.35);  // residual = timer noise
}

TEST(Profiler, ReportListsRegions) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin(Point::kLlpPost);
  f.core.consume(175.42_ns);
  f.prof.end(r);
  const std::string rep = f.prof.report();
  EXPECT_NE(rep.find("LLP_post"), std::string::npos);
  EXPECT_NE(rep.find("175.42"), std::string::npos);
}

TEST(Profiler, ReportListsRecordedPointsInPointOrder) {
  // MPI_Isend opens first and closes last, yet kUcpTagSendNb precedes
  // kMpiIsend in Point order; kLlpPost recorded nothing and is absent.
  Fixture f(deterministic_model());
  auto outer = f.prof.begin(kOuter);
  auto inner = f.prof.begin(kInner);
  f.prof.end(inner);
  f.prof.end(outer);
  const std::string rep = f.prof.report();
  const auto inner_at = rep.find(name(kInner));
  const auto outer_at = rep.find(name(kOuter));
  ASSERT_NE(inner_at, std::string::npos);
  ASSERT_NE(outer_at, std::string::npos);
  EXPECT_LT(inner_at, outer_at);
  EXPECT_EQ(rep.find(name(kWork)), std::string::npos);
}

TEST(Profiler, OverheadMeanExposed) {
  Fixture f(deterministic_model());
  EXPECT_NEAR(f.prof.overhead_mean_ns(), 49.69, 1e-9);
}

TEST(Profiler, ClearDropsRecordedSamples) {
  Fixture f(deterministic_model());
  auto r = f.prof.begin(kWork);
  f.prof.end(r);
  ASSERT_TRUE(f.prof.has(kWork));
  EXPECT_EQ(f.prof.samples(kWork).size(), 1u);
  f.prof.clear();
  EXPECT_FALSE(f.prof.has(kWork));
}

}  // namespace
}  // namespace bb::prof
