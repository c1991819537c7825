// Extension bench: eager vs rendezvous protocol crossover.
//
// UCX switches from the eager path to rendezvous above a threshold; this
// sweep shows why. Small messages: eager wins outright (no control round
// trip). Large messages: the rendezvous advertisement costs one extra
// network round trip but sends the payload exactly once, one-sided --
// on real hardware it also spares the receive-side bounce-buffer copy
// that the eager path's per-byte cost models here.

#include <cstdio>
#include <vector>

#include "exec/sweep.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"
#include "util.hpp"

using namespace bb;
using scenario::MpiStack;
using scenario::Testbed;

namespace {

constexpr int kIters = 300;

/// One-way latency of `bytes` MPI messages under the given threshold.
double one_way_ns(std::uint32_t bytes, std::uint32_t rndv_threshold) {
  scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4();
  cfg.ucp.rndv_threshold = rndv_threshold;
  Testbed tb(cfg);
  tb.analyzer().set_enabled(false);
  MpiStack a(tb, 0);
  MpiStack b(tb, 1);
  tb.node(0).nic.post_receives(4 * kIters + 16);
  tb.node(1).nic.post_receives(4 * kIters + 16);

  double out = 0;
  tb.sim().spawn([](hlp::MpiComm& mpi, cpu::Core& core, std::uint32_t n,
                    double& res) -> sim::Task<void> {
    const double t0 = core.virtual_now().to_ns();
    for (int i = 0; i < kIters; ++i) {
      hlp::Request* rr = mpi.irecv(n).value();
      hlp::Request* s = (co_await mpi.isend(n)).value();
      co_await mpi.wait(s);
      co_await mpi.wait(rr);
    }
    res = (core.virtual_now().to_ns() - t0) / (2.0 * kIters);
  }(a.mpi(), tb.node(0).core, bytes, out));
  tb.sim().spawn([](hlp::MpiComm& mpi, std::uint32_t n) -> sim::Task<void> {
    for (int i = 0; i < kIters; ++i) {
      hlp::Request* rr = mpi.irecv(n).value();
      co_await mpi.wait(rr);
      hlp::Request* s = (co_await mpi.isend(n)).value();
      co_await mpi.wait(s);
    }
  }(b.mpi(), bytes));
  tb.sim().run();
  return out;
}

}  // namespace

int bbench::sweep_protocol(const Args& args) {
  bbench::header("bench_sweep_protocol -- eager vs rendezvous crossover",
                 "extension: the protocol switch UCX makes above a threshold");

  // Grid: sizes x {eager, rndv}, size-major so row i*2 is eager and
  // i*2+1 is rendezvous for sizes[i].
  const std::vector<std::uint32_t> sizes = {64, 256, 1024, 4096, 16384};
  const auto res = exec::run_sweep(
      exec::sweep(exec::grid(sizes, std::vector<std::uint32_t>{UINT32_MAX, 1})),
      [](const auto& pt, exec::Job&) {
        return one_way_ns(std::get<0>(pt), std::get<1>(pt));
      },
      args.exec);
  bbench::note_exec("protocol sweep", res);

  std::printf("%-10s %14s %14s\n", "bytes", "eager (ns)", "rndv (ns)");
  std::vector<double> eager, rndv;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    eager.push_back(res.values[i * 2]);
    rndv.push_back(res.values[i * 2 + 1]);
    std::printf("%-10u %14.2f %14.2f\n", sizes[i], eager.back(), rndv.back());
  }

  bbench::Validator v;
  v.is_true("eager wins for small messages", eager[0] < rndv[0]);
  v.is_true("rendezvous penalty ~ a control round trip at 64B",
            rndv[0] - eager[0] > 500.0 && rndv[0] - eager[0] < 3000.0);
  v.is_true("gap narrows as payload grows (relative)",
            (rndv.back() - eager.back()) / eager.back() <
                (rndv[0] - eager[0]) / eager[0]);
  return v.finish();
}
