#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>

#include "coll/coll.hpp"
#include "common/rng.hpp"
#include "core/component_table.hpp"
#include "core/models.hpp"
#include "model/alpha_beta.hpp"
#include "reference.hpp"
#include "scenario/cluster.hpp"
#include "scenario/mpi_stack.hpp"
#include "scenario/testbed.hpp"

namespace perfbench {

using namespace bb;

namespace {

// -- sizes ------------------------------------------------------------------

// put_bw: benchlib's defaults (PutBwConfig).
constexpr std::uint64_t kPutWarmup = 2000;
constexpr std::uint64_t kPutOps = 20000;
constexpr std::uint32_t kPutBytes = 8;
constexpr std::uint32_t kPollEvery = 16;
constexpr double kPutSpeedFactor = 0.8025;

// osu_latency: iterations of one ping and one pong (two ops each).
constexpr std::uint64_t kPingWarmupIters = 400;
constexpr std::uint64_t kPingIters = 2000;
constexpr std::uint32_t kPingBytes = 8;
constexpr double kPingSpeedFactor = 0.93;

// osu_allreduce on 16 ranks.
constexpr int kRanks = 16;
constexpr std::uint64_t kCollWarmup = 2;
constexpr std::uint64_t kCollIters = 8;
constexpr std::uint32_t kCollBytes = 2048;
constexpr std::uint32_t kCollElems = kCollBytes / 8;
// At 2 KiB Algo::kAuto resolves to the ring, whose 128 B chunks stay
// eager; recursive doubling sends the whole vector each step, so every
// step takes the rendezvous path (threshold 1024 B).
constexpr coll::Algo kCollAlgo = coll::Algo::kRecursiveDoubling;
constexpr double kCollEpochNs = 1.0e6;

// lossy_put_bw fault plan.
constexpr double kWireLoss = 1e-3;
constexpr double kTlpBer = 1e-4;

// -- helpers ----------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Counters are plain uint64/int64 fields; walk them as an array.
constexpr std::size_t kCounterFields = sizeof(Counters) / sizeof(std::uint64_t);
static_assert(sizeof(Counters) == kCounterFields * sizeof(std::uint64_t));

template <typename F>
void each_field(const Counters& a, const Counters& b, Counters& out, F f) {
  std::uint64_t x[kCounterFields], y[kCounterFields], z[kCounterFields];
  std::memcpy(x, &a, sizeof a);
  std::memcpy(y, &b, sizeof b);
  for (std::size_t i = 0; i < kCounterFields; ++i) z[i] = f(x[i], y[i]);
  std::memcpy(&out, z, sizeof out);
}

double host_s(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}

/// Reads every layer's public counters; `calls` carries the driver's own
/// boundary counts.
template <typename Scenario>
Counters read_counters(Scenario& s, int nodes, const Counters& calls,
                       coll::World* world) {
  Counters c = calls;
  c.events = s.sim().events_processed();
  c.sim_ps = s.sim().now().ps();
  c.cpu_busy_ps = 0;
  c.cqes_polled = c.error_completions = 0;
  c.tlps = c.cqes_written = c.dma_reads = c.credit_stalls = c.error_cqes = 0;
  fault::FaultStats fs;
  for (int i = 0; i < nodes; ++i) {
    auto& n = s.node(i);
    c.cpu_busy_ps += n.core.busy_time().ps();
    c.cqes_polled += n.worker.tx_cqes_polled() + n.worker.rx_completions();
    c.error_completions += n.worker.error_completions();
    c.tlps += n.link.tlps_accepted();
    c.cqes_written += n.nic.cqes_written();
    c.dma_reads += n.nic.dma_reads_issued();
    c.credit_stalls += n.nic.credit_stalls();
    c.error_cqes += n.nic.error_cqes();
    fs.merge(n.injector.stats());
  }
  c.analyzer_records = s.analyzer().trace().size();
  c.replays = fs.replays;
  c.faults_injected = fs.injected();
  c.faults_recovered = fs.recovered();
  c.poisoned_tlps = fs.poisoned_tlps;
  const net::TransportStats ts = s.net_stats();
  c.packets_sent = ts.packets_sent;
  c.data_packets_sent = ts.data_packets_sent;
  c.packets_dropped = ts.packets_dropped;
  c.acks_sent = ts.acks_sent;
  c.retransmits = ts.retransmits;
  c.naks_sent = ts.naks_sent;
  c.retry_timer_firings = ts.retry_timer_firings;
  c.coll_isends = c.coll_waits = 0;
  if (world != nullptr) {
    for (int r = 0; r < world->size(); ++r) {
      c.coll_isends += world->comm(r).isends();
      c.coll_waits += world->comm(r).waits();
    }
  }
  return c;
}

/// The quiescence checks every workload shares: transport conservation,
/// nothing unacknowledged on the wire, PCIe replay buffers empty.
template <typename Scenario>
void check_quiescent(Scenario& s, int nodes, std::vector<std::string>& fail) {
  const net::TransportStats ts = s.net_stats();
  if (ts.packets_sent + ts.packets_duplicated !=
      ts.packets_delivered + ts.packets_dropped + ts.packets_corrupted) {
    fail.push_back("transport identity: sent + duplicated != delivered + "
                   "dropped + corrupted");
  }
  for (int i = 0; i < nodes; ++i) {
    if (s.node(i).nic.tx_unacked() != 0) {
      fail.push_back("node " + std::to_string(i) + ": tx_unacked != 0");
    }
    if (s.node(i).link.replay_buffer_depth() != 0) {
      fail.push_back("node " + std::to_string(i) +
                     ": PCIe replay_buffer_depth != 0");
    }
  }
}

/// Host and counter marks around the timed ops. The reference loop runs
/// right outside the timed interval at both ends, so it sees the host in
/// the state the timed ops saw. Neither it nor the counter reads are
/// charged to any span.
struct Marks {
  explicit Marks(Tracer* t) : tracer(t), start_host(host_now_ns()) {}

  Tracer* tracer;
  std::int64_t start_host;  // trial start (before any constructor)
  std::int64_t built_host = 0;
  std::int64_t warm_host = 0;
  std::int64_t done_host = 0;
  Counters warm;
  Counters done;
  double reference_ns = 0.0;  // sum of both ends until finish_result
  bool warm_set = false;
  bool done_set = false;

  void at_warm(const Counters& c) {
    warm = c;
    reference_ns += reference_loop_ns();
    if (tracer != nullptr) tracer->skip_to_now();
    warm_host = host_now_ns();
    warm_set = true;
  }
  void at_done(const Counters& c) {
    done_host = host_now_ns();
    done = c;
    reference_ns += reference_loop_ns();
    if (tracer != nullptr) tracer->skip_to_now();
    done_set = true;
  }
};

void finish_result(TrialResult& r, const Marks& m, std::uint64_t timed_ops,
                   Tracer* tracer, int trial) {
  r.build_s = host_s(m.start_host, m.built_host);
  r.setup_s = host_s(m.start_host, m.warm_host);
  r.timed_s = host_s(m.warm_host, m.done_host);
  r.timed_ops = timed_ops;
  r.timed = m.done.minus(m.warm);
  r.reference_ns = m.reference_ns / 2.0;
  if (!m.warm_set || !m.done_set) {
    r.check_failures.push_back("driver never reached the end of the timed ops");
  }
  if (tracer != nullptr) {
    tracer->record_span(Layer::kScenario, "build", trial, m.start_host,
                        m.built_host);
  }
}

/// Retires everything `ep` still has outstanding (unsignalled ops need a
/// signalled flush to be retired).
sim::Task<void> drain(llp::Endpoint& ep, llp::Worker& w) {
  for (;;) {
    // Not a co_await in the loop condition: GCC 12 miscompiles that.
    const llp::Status st = co_await ep.flush();
    if (st != llp::Status::kNoResource) break;
    co_await w.progress();
  }
  while (ep.outstanding() > 0) co_await w.progress();
}

// -- uct_put_bw / lossy_put_bw ----------------------------------------------

scenario::SystemConfig put_bw_config(bool lossy) {
  if (!lossy) return scenario::presets::thunderx2_cx4();
  fault::FaultConfig link;
  link.tlp_corrupt_prob = kTlpBer;
  // faults() replaces the whole FaultConfig, wire plan included, so the
  // wire loss overlay must come after it.
  return scenario::presets::thunderx2_cx4().with(
      scenario::overlays::faults(link), scenario::overlays::wire_loss(kWireLoss));
}

class PutBw {
 public:
  PutBw(const TrialInput& in, bool lossy, Tracer* tracer, int trial)
      : tracer_(tracer), trial_(trial), marks_(tracer) {
    scenario::SystemConfig cfg = put_bw_config(lossy);
    cfg.seed = in.sim_seed;
    tb_ = std::make_unique<scenario::Testbed>(cfg);
    ep_ = &tb_->add_endpoint(0);
    tb_->analyzer().set_enabled(true);
    marks_.built_host = host_now_ns();
    if (lossy && !(cfg.fault.link_enabled() && cfg.fault.wire.enabled())) {
      result_.check_failures.push_back("lossy config lost a fault source");
    }
  }

  TrialResult run() {
    tb_->sim().spawn(driver(), "perfbench-put_bw");
    tb_->sim().run();
    TrialResult& r = result_;
    finish_result(r, marks_, kPutOps, tracer_, trial_);
    r.attempted = kPutWarmup + kPutOps;
    r.failed = failed_ + tb_->node(0).worker.error_completions();
    r.event_pool_chunks = tb_->sim().event_pool_chunks();

    // Simulated headline, as §4.2 measures it: deltas between consecutive
    // downstream 64 B MWr (one per post) seen by the analyzer, warm-up
    // prefix dropped.
    const auto posts = tb_->analyzer().trace().downstream_writes(64);
    if (posts.size() >= kPutWarmup + 2) {
      r.result_sum_ns = (posts.back().t - posts[kPutWarmup].t).to_ns();
      r.result_n = posts.size() - kPutWarmup - 1;
    } else {
      r.check_failures.push_back("analyzer saw too few posts");
    }

    check_quiescent(*tb_, 2, r.check_failures);
    if (ep_->outstanding() != 0) {
      r.check_failures.push_back("put_bw: ops still outstanding");
    }
    const Counters end = read_counters(*tb_, 2, calls_, nullptr);
    r.digest = end.hash(fnv(digest_, static_cast<std::uint64_t>(r.result_n)));
    return std::move(r);
  }

 private:
  sim::Task<void> driver() {
    Probe probe(tracer_, tb_->sim(), trial_, 0);
    auto& node = tb_->node(0);
    cpu::Core& core = node.core;
    const cpu::CpuCostModel& costs = core.costs();
    core.set_speed_factor(kPutSpeedFactor);
    node.profiler.set_enabled(false);

    auto progress = [&](std::uint64_t op) -> sim::Task<void> {
      probe.begin(Layer::kLlp, "Worker::progress", op);
      const std::uint32_t n = co_await node.worker.progress(1);
      probe.end();
      ++calls_.progress_calls;
      if (n == 0) ++calls_.empty_progress;
    };

    const std::uint64_t total = kPutWarmup + kPutOps;
    std::uint64_t sent = 0;
    while (sent < total) {
      probe.begin(Layer::kDriver, "put_bw.op", sent);
      for (;;) {
        probe.begin(Layer::kLlp, "Endpoint::put_short", sent);
        const llp::Status st = co_await ep_->put_short(kPutBytes);
        probe.end();
        ++calls_.post_calls;
        if (st != llp::Status::kNoResource) {
          if (st != llp::Status::kOk) ++failed_;
          break;
        }
        // Busy post: progress one completion, then retry (§4.2).
        ++calls_.busy_posts;
        co_await progress(sent);
      }
      ++sent;
      digest_ = fnv(digest_, static_cast<std::uint64_t>(core.virtual_now().ps()));
      core.consume(costs.timer_read);
      core.consume(costs.loop_exp_noise);
      core.consume(costs.loop_hiccup);
      if (sent % kPollEvery == 0) co_await progress(sent - 1);
      probe.end();
      if (sent == kPutWarmup) marks_.at_warm(counters());
    }
    marks_.at_done(counters());
    while (ep_->outstanding() > 0) co_await node.worker.progress();
    core.set_speed_factor(1.0);
  }

  Counters counters() { return read_counters(*tb_, 2, calls_, nullptr); }

  Tracer* tracer_;
  int trial_;
  Marks marks_;
  std::unique_ptr<scenario::Testbed> tb_;
  llp::Endpoint* ep_ = nullptr;
  Counters calls_;
  std::uint64_t failed_ = 0;
  std::uint64_t digest_ = kFnvBasis;
  TrialResult result_;
};

// -- mpi_pingpong -----------------------------------------------------------

class PingPong {
 public:
  PingPong(const TrialInput& in, Tracer* tracer, int trial)
      : tracer_(tracer), trial_(trial), marks_(tracer) {
    scenario::SystemConfig cfg = scenario::presets::thunderx2_cx4();
    cfg.seed = in.sim_seed;
    tb_ = std::make_unique<scenario::Testbed>(cfg);
    a_ = std::make_unique<scenario::MpiStack>(*tb_, 0);
    b_ = std::make_unique<scenario::MpiStack>(*tb_, 1);
    const auto msgs =
        static_cast<std::uint32_t>(kPingWarmupIters + kPingIters + 2);
    tb_->node(0).nic.post_receives(msgs);
    tb_->node(1).nic.post_receives(msgs);
    tb_->analyzer().set_enabled(false);
    marks_.built_host = host_now_ns();
  }

  TrialResult run() {
    tb_->sim().spawn(initiator(), "perfbench-ping");
    tb_->sim().spawn(responder(), "perfbench-pong");
    tb_->sim().run();
    TrialResult& r = result_;
    finish_result(r, marks_, 2 * kPingIters, tracer_, trial_);
    r.attempted = 2 * (kPingWarmupIters + kPingIters);
    r.failed = failed_ + tb_->node(0).worker.error_completions() +
               tb_->node(1).worker.error_completions();
    r.event_pool_chunks = tb_->sim().event_pool_chunks();
    if (!responder_done_) {
      r.check_failures.push_back("pingpong: responder did not finish");
    }
    check_quiescent(*tb_, 2, r.check_failures);
    if (a_->endpoint().outstanding() != 0 || b_->endpoint().outstanding() != 0) {
      r.check_failures.push_back("pingpong: ops still outstanding");
    }
    const Counters end = read_counters(*tb_, 2, calls_, nullptr);
    r.digest = end.hash(fnv(digest_, r.result_n));
    return std::move(r);
  }

 private:
  // The blocking-MPI pair of calls the driver makes, counted and spanned.
  sim::Task<void> isend(scenario::MpiStack& s, Probe& probe, std::uint64_t op) {
    probe.begin(Layer::kHlp, "MpiComm::isend", op);
    const auto req = co_await s.mpi().isend(kPingBytes);
    probe.end();
    ++calls_.isend_calls;
    if (!req.ok()) ++failed_;
  }
  sim::Task<void> wait(scenario::MpiStack& s, Probe& probe, hlp::Request* rr,
                       std::uint64_t op) {
    probe.begin(Layer::kHlp, "MpiComm::wait", op);
    const common::Status st = co_await s.mpi().wait(rr);
    probe.end();
    ++calls_.wait_calls;
    if (st != common::Status::kOk) ++failed_;
  }
  hlp::Request* irecv(scenario::MpiStack& s, Probe& probe, std::uint64_t op) {
    probe.begin(Layer::kHlp, "MpiComm::irecv", op);
    auto rr = s.mpi().irecv(kPingBytes);
    probe.end();
    return rr.ok() ? rr.value() : nullptr;
  }

  sim::Task<void> initiator() {
    Probe probe(tracer_, tb_->sim(), trial_, 0);
    cpu::Core& core = a_->node().core;
    core.set_speed_factor(kPingSpeedFactor);
    a_->node().profiler.set_enabled(false);
    const double timer_half = tb_->config().cpu.timer_read.mean_ns / 2.0;

    for (std::uint64_t i = 0; i < kPingWarmupIters + kPingIters; ++i) {
      const std::uint64_t ping = 2 * i, pong = 2 * i + 1;
      probe.begin(Layer::kDriver, "pingpong.iter", ping);
      const double t0 = core.virtual_now().to_ns();
      hlp::Request* rr = irecv(*a_, probe, pong);
      co_await isend(*a_, probe, ping);
      if (rr != nullptr) {
        co_await wait(*a_, probe, rr, pong);
      } else {
        ++failed_;
      }
      core.consume(core.costs().timer_read);
      core.consume(core.costs().loop_hiccup);
      const double t1 = core.virtual_now().to_ns();
      probe.end();
      digest_ = fnv(digest_, static_cast<std::uint64_t>(core.virtual_now().ps()));
      if (i >= kPingWarmupIters) {
        result_.result_sum_ns += (t1 - t0) / 2.0 - timer_half;
        ++result_.result_n;
      }
      if (i + 1 == kPingWarmupIters) {
        marks_.at_warm(counters());
      }
    }
    marks_.at_done(counters());
    co_await drain(a_->endpoint(), a_->node().worker);
    core.set_speed_factor(1.0);
  }

  sim::Task<void> responder() {
    Probe probe(tracer_, tb_->sim(), trial_, 1);
    cpu::Core& core = b_->node().core;
    core.set_speed_factor(kPingSpeedFactor);
    b_->node().profiler.set_enabled(false);

    for (std::uint64_t i = 0; i < kPingWarmupIters + kPingIters; ++i) {
      const std::uint64_t ping = 2 * i, pong = 2 * i + 1;
      probe.begin(Layer::kDriver, "pingpong.iter", ping);
      hlp::Request* rr = irecv(*b_, probe, ping);
      if (rr != nullptr) {
        co_await wait(*b_, probe, rr, ping);
      } else {
        ++failed_;
      }
      co_await isend(*b_, probe, pong);
      probe.begin(Layer::kCpu, "Core::flush", pong);
      co_await core.flush();
      probe.end();
      probe.end();
    }
    co_await drain(b_->endpoint(), b_->node().worker);
    core.set_speed_factor(1.0);
    responder_done_ = true;
  }

  Counters counters() { return read_counters(*tb_, 2, calls_, nullptr); }

  Tracer* tracer_;
  int trial_;
  Marks marks_;
  std::unique_ptr<scenario::Testbed> tb_;
  std::unique_ptr<scenario::MpiStack> a_;
  std::unique_ptr<scenario::MpiStack> b_;
  Counters calls_;
  std::uint64_t failed_ = 0;
  bool responder_done_ = false;
  std::uint64_t digest_ = kFnvBasis;
  TrialResult result_;
};

// -- coll_allreduce ---------------------------------------------------------

class Allreduce {
 public:
  Allreduce(const TrialInput& in, Tracer* tracer, int trial,
            coll::Algo algo = kCollAlgo)
      : tracer_(tracer), trial_(trial), algo_(algo), marks_(tracer) {
    // The deterministic testbed, as bench_coll_osu and bench_sweep_ranks
    // use it: their CollModel band is calibrated against it.
    scenario::SystemConfig cfg = scenario::presets::deterministic();
    cfg.seed = in.sim_seed;
    cl_ = std::make_unique<scenario::Cluster>(cfg, kRanks);
    world_ = std::make_unique<coll::World>(*cl_);
    cl_->analyzer().set_enabled(false);
    marks_.built_host = host_now_ns();

    // Integer-valued contributions: every partial sum is exact in double
    // precision whatever order the schedule reduces in.
    Rng rng(in.data_seed);
    contrib_.assign(kRanks, std::vector<double>(kCollElems));
    expected_.assign(kCollElems, 0.0);
    for (int r = 0; r < kRanks; ++r) {
      for (std::uint32_t e = 0; e < kCollElems; ++e) {
        const double v = static_cast<double>(
            static_cast<std::int64_t>(rng.uniform_u64(2001)) - 1000);
        contrib_[r][e] = v;
        expected_[e] += v;
      }
    }
    starts_.assign(kRanks, std::vector<double>(kCollWarmup + kCollIters));
    ends_ = starts_;
    iter_bad_.assign(kCollWarmup + kCollIters, false);
  }

  TrialResult run() {
    for (int r = 0; r < kRanks; ++r) {
      cl_->sim().spawn(rank_loop(r), "perfbench-rank");
    }
    cl_->sim().run();
    TrialResult& r = result_;
    finish_result(r, marks_, kCollIters, tracer_, trial_);
    r.attempted = kCollWarmup + kCollIters;
    r.failed = static_cast<std::uint64_t>(
                   std::count(iter_bad_.begin(), iter_bad_.end(), true)) +
               r.attempted - iters_done_;
    r.event_pool_chunks = cl_->sim().event_pool_chunks();
    if (iters_done_ != r.attempted) {
      r.check_failures.push_back("allreduce: not every iteration completed on "
                                 "every rank");
    }
    if (mismatches_ != 0) {
      r.check_failures.push_back("allreduce: " + std::to_string(mismatches_) +
                                 " results differ from the exact sum");
    }
    if (late_ != 0) {
      r.check_failures.push_back("allreduce: an iteration overran its epoch");
    }
    // Simulated headline: the global window of each timed iteration, last
    // rank in to last rank out (OsuColl's measure).
    for (std::uint64_t it = kCollWarmup; it < kCollWarmup + kCollIters; ++it) {
      double last_in = 0.0, last_out = 0.0;
      for (int k = 0; k < kRanks; ++k) {
        last_in = std::max(last_in, starts_[k][it]);
        last_out = std::max(last_out, ends_[k][it]);
      }
      r.result_sum_ns += last_out - last_in;
      ++r.result_n;
      digest_ = fnv(digest_, static_cast<std::uint64_t>(last_out * 1e3));
    }
    check_quiescent(*cl_, kRanks, r.check_failures);
    const Counters end = read_counters(*cl_, kRanks, calls_, world_.get());
    r.digest = end.hash(digest_);
    return std::move(r);
  }

 private:
  sim::Task<void> rank_loop(int rank) {
    Probe probe(tracer_, cl_->sim(), trial_, rank);
    coll::Communicator& c = world_->comm(rank);
    cpu::Core& core = c.core();
    const std::uint64_t total = kCollWarmup + kCollIters;
    std::vector<double> v;
    for (std::uint64_t it = 0; it < total; ++it) {
      probe.begin(Layer::kDriver, "allreduce.iter", it);
      probe.begin(Layer::kColl, "coll::barrier", it);
      co_await coll::barrier(c);
      probe.end();
      // Align every rank to the iteration's epoch tick, as OsuColl does.
      const double target = static_cast<double>(it + 1) * kCollEpochNs;
      const double now = core.virtual_now().to_ns();
      if (now < target) {
        co_await cl_->sim().delay(TimePs::from_ns(target - now));
      } else {
        ++late_;
      }
      starts_[rank][it] = core.virtual_now().to_ns();
      v = contrib_[rank];
      for (double& x : v) x += static_cast<double>(it);
      probe.begin(Layer::kColl, "coll::allreduce", it);
      co_await coll::allreduce(c, kCollBytes, v, coll::ReduceOp::kSum, algo_);
      probe.end();
      ends_[rank][it] = core.virtual_now().to_ns();
      const double shift = static_cast<double>(kRanks) * static_cast<double>(it);
      bool bad = v.size() != kCollElems;
      for (std::uint32_t e = 0; !bad && e < kCollElems; ++e) {
        bad = v[e] != expected_[e] + shift;
      }
      if (bad) {
        ++mismatches_;
        iter_bad_[it] = true;
      }
      if (rank == 0) {
        for (double x : v) digest_ = fnv(digest_, static_cast<std::uint64_t>(x));
      }
      probe.end();
      if (++ranks_at_[it] == kRanks) {
        ++iters_done_;
        if (it + 1 == kCollWarmup) marks_.at_warm(counters());
        if (it + 1 == total) marks_.at_done(counters());
      }
    }
  }

  Counters counters() { return read_counters(*cl_, kRanks, calls_, world_.get()); }

  Tracer* tracer_;
  int trial_;
  coll::Algo algo_;
  Marks marks_;
  std::unique_ptr<scenario::Cluster> cl_;
  std::unique_ptr<coll::World> world_;
  std::vector<std::vector<double>> contrib_;
  std::vector<double> expected_;
  std::vector<std::vector<double>> starts_, ends_;
  std::uint64_t ranks_at_[kCollWarmup + kCollIters] = {};
  std::uint64_t iters_done_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t late_ = 0;
  std::vector<bool> iter_bad_;
  Counters calls_;
  std::uint64_t digest_ = kFnvBasis;
  TrialResult result_;
};

// -- registry ---------------------------------------------------------------

TrialResult run_uct_put_bw(const TrialInput& in, Tracer* t, int trial) {
  return PutBw(in, false, t, trial).run();
}
TrialResult run_lossy_put_bw(const TrialInput& in, Tracer* t, int trial) {
  return PutBw(in, true, t, trial).run();
}
TrialResult run_mpi_pingpong(const TrialInput& in, Tracer* t, int trial) {
  return PingPong(in, t, trial).run();
}
TrialResult run_coll_allreduce(const TrialInput& in, Tracer* t, int trial) {
  return Allreduce(in, t, trial).run();
}

std::string fmt_model(double sim_ns, double model_ns, double tol) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "sim %.2f ns vs model %.2f ns (%.2f%% err, tol %.0f%%)",
                sim_ns, model_ns, std::abs(model_ns - sim_ns) / sim_ns * 100.0,
                tol * 100.0);
  return buf;
}

double put_bw_model_ns() {
  return core::InjectionModel(core::ComponentTable::from_config(
                                  scenario::presets::thunderx2_cx4()))
      .llp_injection_ns();
}

// bench_fig07_inj_dist: Eq. 1 within 5% of the observed injection mean.
ModelCheck check_put_bw(double sim_ns) {
  const double m = put_bw_model_ns();
  return {std::abs(m - sim_ns) <= 0.05 * sim_ns, fmt_model(sim_ns, m, 0.05)};
}

// No model covers the lossy path; recovery can only slow injection, so
// the lossless Eq. 1 band bounds it from below.
ModelCheck check_lossy_put_bw(double sim_ns) {
  const double m = put_bw_model_ns();
  return {m - sim_ns <= 0.05 * sim_ns,
          "lower bound only: " + fmt_model(sim_ns, m, 0.05)};
}

// bench_fig13_e2e_latency: the modelled latency within 4% of the
// timer-adjusted OSU half round trip.
ModelCheck check_pingpong(double sim_ns) {
  const double m = core::LatencyModel(core::ComponentTable::from_config(
                                          scenario::presets::thunderx2_cx4()))
                       .e2e_latency_ns();
  return {std::abs(m - sim_ns) <= 0.04 * sim_ns, fmt_model(sim_ns, m, 0.04)};
}

// bench_sweep_ranks: at 16 ranks the model must order recursive doubling
// and the ring the way the simulator does (the +-10% band of
// bench_coll_osu covers 4 and 8 ranks only). Simulates the ring once as
// the reference.
ModelCheck check_allreduce(double sim_rd_ns) {
  TrialResult ring = Allreduce(TrialInput{}, nullptr, -1,
                               coll::Algo::kRingAllreduce)
                         .run();
  if (!ring.check_failures.empty() || ring.result_n == 0) {
    return {false, "ring reference run failed its checks"};
  }
  const double sim_ring_ns = ring.result_sum_ns / static_cast<double>(ring.result_n);
  const model::CollModel model(scenario::presets::deterministic());
  const double m_rd = model.allreduce_ns(kRanks, kCollBytes, kCollAlgo);
  const double m_ring =
      model.allreduce_ns(kRanks, kCollBytes, coll::Algo::kRingAllreduce);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "model orders algorithms like sim: rd %.1f vs ring %.1f sim ns, "
                "rd %.1f vs ring %.1f model ns",
                sim_rd_ns, sim_ring_ns, m_rd, m_ring);
  return {(sim_rd_ns <= sim_ring_ns) == (m_rd <= m_ring), buf};
}

const WorkloadInfo kWorkloads[] = {
    {"uct_put_bw", run_uct_put_bw, check_put_bw,
     "injection ns per put (analyzer MWr deltas)", 2},
    {"mpi_pingpong", run_mpi_pingpong, check_pingpong,
     "half round trip ns (timer-adjusted)", 2},
    {"coll_allreduce", run_coll_allreduce, check_allreduce,
     "allreduce ns (last rank in to last rank out)", kRanks},
    {"lossy_put_bw", run_lossy_put_bw, check_lossy_put_bw,
     "injection ns per put (analyzer MWr deltas)", 2},
};

}  // namespace

// -- Counters ---------------------------------------------------------------

Counters Counters::minus(const Counters& o) const {
  Counters out;
  each_field(*this, o, out, [](std::uint64_t a, std::uint64_t b) { return a - b; });
  return out;
}

void Counters::add(const Counters& o) {
  each_field(*this, o, *this, [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

std::uint64_t Counters::hash(std::uint64_t h) const {
  std::uint64_t x[kCounterFields];
  std::memcpy(x, this, sizeof x);
  for (std::uint64_t v : x) h = fnv(h, v);
  return h;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadInfo& w : kWorkloads) out.emplace_back(w.name);
  return out;
}

}  // namespace perfbench
