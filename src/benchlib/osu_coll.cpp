#include "benchlib/osu_coll.hpp"

#include "common/assert.hpp"

namespace bb::bench {

OsuColl::OsuColl(coll::World& world, Kind kind, OsuCollConfig cfg)
    : world_(world), kind_(kind), cfg_(cfg) {
  starts_.assign(static_cast<std::size_t>(world_.size()), {});
  ends_.assign(static_cast<std::size_t>(world_.size()), {});
}

sim::Task<void> OsuColl::rank_loop(int r) {
  coll::Communicator& c = world_.comm(r);
  cpu::Core& core = c.core();
  const std::uint32_t elems = cfg_.bytes / 8;
  const std::uint64_t total = cfg_.warmup + cfg_.iterations;

  // A failed iteration is noted, not cut short: the run keeps its
  // timeline and run() reports the first failure.
  const auto check = [&](common::Status st, std::uint64_t it,
                         const char* what) {
    if (st == common::Status::kOk || !failure_.empty()) return;
    failure_ = std::string(what) + " returned " + common::to_string(st) +
               " on rank " + std::to_string(r) + " in iteration " +
               std::to_string(it);
  };

  for (std::uint64_t it = 0; it < total; ++it) {
    check(co_await coll::barrier(c), it, "the sync barrier");
    // Align every rank to the iteration's absolute epoch tick. The
    // barrier alone leaves ranks skewed by its own exit spread, which
    // would either inflate (per-rank timing) or deflate (window timing)
    // receive-only collectives like bcast.
    const double target = static_cast<double>(it + 1) * cfg_.epoch_ns;
    const double now = core.virtual_now().to_ns();
    if (now >= target) {
      // A failed iteration (e.g. a wait that ran to its watchdog) is the
      // likelier cause of the overrun: report it, not the epoch.
      if (!failure_.empty()) throw CollFailedError(failure_);
      throw EpochOverrunError(
          "OsuCollConfig::epoch_ns too small for this collective");
    }
    co_await world_.cluster().sim().delay(TimePs::from_ns(target - now));
    const double t0 = core.virtual_now().to_ns();
    common::Status st = common::Status::kOk;
    switch (kind_) {
      case Kind::kBarrier: {
        st = co_await coll::barrier(c, cfg_.algo);
        break;
      }
      case Kind::kBcast: {
        std::vector<double> v;
        if (r == cfg_.root) {
          v.assign(elems, static_cast<double>(it + 1));
        }
        st = co_await coll::bcast(c, cfg_.root, cfg_.bytes, v, cfg_.algo);
        break;
      }
      case Kind::kAllgather: {
        std::vector<double> mine(elems, static_cast<double>(r + 1));
        std::vector<std::vector<double>> out;
        st = co_await coll::allgather(c, cfg_.bytes, mine, out, cfg_.algo);
        break;
      }
      case Kind::kAllreduce: {
        std::vector<double> v(elems, static_cast<double>(r + 1));
        st = co_await coll::allreduce(c, cfg_.bytes, v, coll::ReduceOp::kSum,
                                      cfg_.algo);
        break;
      }
    }
    check(st, it, "the collective");
    starts_[static_cast<std::size_t>(r)].push_back(t0);
    ends_[static_cast<std::size_t>(r)].push_back(core.virtual_now().to_ns());
  }
}

CollResult OsuColl::run() {
  if (kind_ != Kind::kBarrier) {
    BB_ASSERT(cfg_.bytes >= 8 && cfg_.bytes % 8 == 0);
  }
  sim::Simulator& sim = world_.cluster().sim();
  for (int r = 0; r < world_.size(); ++r) {
    sim.spawn(rank_loop(r), "osu_coll-rank");
  }
  sim.run();
  if (!failure_.empty()) throw CollFailedError(failure_);

  CollResult res;
  res.iterations = cfg_.iterations;
  const std::uint64_t total = cfg_.warmup + cfg_.iterations;
  for (std::uint64_t it = cfg_.warmup; it < total; ++it) {
    // Global iteration window: last rank out minus last rank in. The
    // per-rank (end - own_start) alternative folds the synchronizing
    // barrier's exit skew into receive-only collectives (a leaf that
    // leaves the barrier early but waits on a relayed message charges
    // the skew to the collective); the global window measures only the
    // span the collective adds once every rank has entered it.
    double last_in = 0.0;
    double last_out = 0.0;
    for (std::size_t r = 0; r < starts_.size(); ++r) {
      BB_ASSERT(starts_[r].size() == total && ends_[r].size() == total);
      last_in = std::max(last_in, starts_[r][it]);
      last_out = std::max(last_out, ends_[r][it]);
    }
    res.iter_ns.add_ns(last_out - last_in);
  }
  return res;
}

}  // namespace bb::bench
