// A translation unit built with assertions on (-UNDEBUG) driving the
// libraries as they were built: Release libraries are compiled with
// NDEBUG. The inline code here (Simulator::step, Core::park/unpark) and
// the out-of-line code in the libraries must agree on every class
// layout, so no member may exist in one build type only.

#include <gtest/gtest.h>

#include "scenario/testbed.hpp"

#ifdef NDEBUG
#error "this test must be compiled without NDEBUG"
#endif

namespace bb::scenario {
namespace {

TEST(DebugTu, PutShortLoopMatchesTheLibraries) {
  Testbed tb(presets::deterministic());
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, llp::Endpoint& e) -> sim::Task<void> {
    for (int i = 0; i < 200; ++i) {
      while (co_await e.put_short(8) != llp::Status::kOk) {
        co_await n.worker.progress();
      }
      if (i % 8 == 0) co_await n.worker.progress();
    }
    while (e.outstanding() > 0) co_await n.worker.progress();
  }(tb.node(0), ep));
  tb.sim().run();
  EXPECT_EQ(tb.sim().events_processed(), 4861u);
  EXPECT_EQ(tb.sim().now().ps(), 47932000);
}

}  // namespace
}  // namespace bb::scenario
