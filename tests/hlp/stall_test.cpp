// A blocking wait that can never complete must fail loudly instead of
// spinning forever. Its own ctest entry (hlp.stalled_wait) carries a
// short TIMEOUT, so a regression shows up as a timeout, not a stuck run.

#include <gtest/gtest.h>

#include <string>

#include "hlp/mpi.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace bb::hlp {
namespace {

using scenario::MpiStack;
using scenario::Testbed;

TEST(StalledWait, WaitOnAReceiveNobodySendsThrowsNamingTheProcess) {
  Testbed tb(scenario::presets::thunderx2_cx4());
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);
  tb.sim().spawn(
      [](MpiStack& st) -> sim::Task<void> {
        Request* r = st.mpi().irecv(8).value();
        (void)co_await st.mpi().wait(r);
      }(rx),
      "lonely-receiver");
  try {
    tb.sim().run();
    FAIL() << "expected StalledError";
  } catch (const sim::StalledError& e) {
    EXPECT_EQ(e.process(), "lonely-receiver");
    EXPECT_NE(std::string(e.what()).find("'lonely-receiver'"),
              std::string::npos);
  }
}

TEST(StalledWait, RunUntilKeepsRunningPassesUpToItsBound) {
  Testbed tb(scenario::presets::deterministic());
  MpiStack rx(tb, 1);
  tb.node(1).nic.post_receives(4);
  tb.sim().spawn([](MpiStack& st) -> sim::Task<void> {
    Request* r = st.mpi().irecv(8).value();
    (void)co_await st.mpi().wait(r);
  }(rx));
  tb.sim().run_until(TimePs::from_ns(10000.0));
  const std::uint64_t events = tb.sim().events_processed();
  EXPECT_GT(events, 300u);  // ~28.73 ns per pass
  EXPECT_TRUE(tb.sim().step());
  EXPECT_EQ(tb.sim().events_processed(), events + 1);
  EXPECT_FALSE(tb.sim().idle());
}

}  // namespace
}  // namespace bb::hlp
