#pragma once
// The paper-reproduction experiments run by `bbsim run <name>|all`, and
// their shared helpers. Each experiment prints its table or figure --
// paper, model and simulated values where applicable -- and returns
// non-zero if a reproduction band fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "benchlib/osu_coll.hpp"
#include "common/table.hpp"
#include "exec/exec.hpp"
#include "model/alpha_beta.hpp"
#include "scenario/testbed.hpp"

namespace bbench {

/// What every experiment receives from the driver. The thread count
/// never changes a printed table (sweeps are bit-identical at any value).
struct Args {
  bb::exec::Options exec;
  bool smoke = false;  ///< shrink iteration counts, where an experiment can
};

/// Strips the shared flags -- `--jobs N` / `--jobs=N` (default: hardware
/// concurrency, overridable via BB_JOBS) and `--smoke` -- out of argv
/// into `out`, and returns the remaining arguments (argv[0] first).
inline std::vector<std::string> parse_args(int argc, char** argv, Args& out) {
  out.exec.jobs = 0;
  std::vector<std::string> rest;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      out.exec.jobs = std::atoi(argv[++i]);
    } else if (i > 0 && std::strncmp(argv[i], "--jobs=", 7) == 0) {
      out.exec.jobs = std::atoi(argv[i] + 7);
    } else if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      out.smoke = true;
    } else {
      rest.emplace_back(argv[i]);
    }
  }
  if (out.exec.jobs <= 0) out.exec.jobs = bb::exec::default_jobs();
  return rest;
}

/// Stderr note of how a sweep executed (kept off stdout on purpose).
template <typename R>
inline void note_exec(const char* what, const bb::exec::Results<R>& r) {
  std::fprintf(stderr, "[exec] %s: %s\n", what, r.summary().c_str());
}

/// Sum of a stacked bar's segment values.
inline double total(const std::vector<bb::BarSegment>& segs) {
  double t = 0;
  for (const auto& s : segs) t += s.value;
  return t;
}

/// Segment `i`'s percentage share of its stacked bar.
inline double share(const std::vector<bb::BarSegment>& segs, std::size_t i) {
  return segs[i].value / total(segs) * 100.0;
}

inline void print_bar(const std::string& title,
                      const std::vector<bb::BarSegment>& segs) {
  std::printf("%s\n", bb::render_stacked_bar(title, segs).c_str());
}

/// The Fig. 4 LLP_post substeps (§4.1), profiled in a dedicated run of
/// `posts` put_shorts on the paper's testbed, in the figure's order.
inline std::vector<bb::BarSegment> profile_post_substeps(int posts) {
  using bb::scenario::Testbed;
  Testbed tb(bb::scenario::presets::thunderx2_cx4());
  tb.node(0).profiler.select(bb::prof::kPostSubsteps);
  auto& ep = tb.add_endpoint(0);
  tb.sim().spawn([](Testbed::Node& n, bb::llp::Endpoint& e,
                    int count) -> bb::sim::Task<void> {
    for (int i = 0; i < count; ++i) {
      while (co_await e.put_short(8) != bb::llp::Status::kOk) {
        co_await n.worker.progress();
      }
      if (i % 8 == 0) co_await n.worker.progress();
    }
    while (e.outstanding() > 0) co_await n.worker.progress();
  }(tb.node(0), ep, posts));
  tb.sim().run();
  std::vector<bb::BarSegment> out;
  using bb::prof::Point;
  for (Point p : {Point::kMdSetup, Point::kBarrierMd, Point::kBarrierDbc,
                  Point::kPioCopy, Point::kPostOther}) {
    out.push_back({bb::prof::name(p), tb.node(0).profiler.mean_ns(p)});
  }
  return out;
}

using CollKind = bb::bench::OsuColl::Kind;

inline const char* kind_name(CollKind k) {
  switch (k) {
    case CollKind::kBarrier: return "barrier";
    case CollKind::kBcast: return "bcast";
    case CollKind::kAllgather: return "allgather";
    case CollKind::kAllreduce: return "allreduce";
  }
  return "?";
}

/// Mean latency of an OSU collective run on a fresh `ranks`-node cluster.
inline double simulate_coll(const bb::scenario::SystemConfig& cfg, int ranks,
                            CollKind kind, const bb::bench::OsuCollConfig& c) {
  bb::scenario::Cluster cl(cfg, ranks);
  bb::coll::World world(cl);
  return bb::bench::OsuColl(world, kind, c).run().mean_ns();
}

/// The alpha-beta model's latency for the same collective.
inline double model_coll(const bb::model::CollModel& m, CollKind kind,
                         int ranks, std::uint32_t bytes,
                         bb::coll::Algo a = bb::coll::Algo::kAuto) {
  switch (kind) {
    case CollKind::kBarrier: return m.barrier_ns(ranks, a);
    case CollKind::kBcast: return m.bcast_ns(ranks, bytes, a);
    case CollKind::kAllgather: return m.allgather_ns(ranks, bytes, a);
    case CollKind::kAllreduce: return m.allreduce_ns(ranks, bytes, a);
  }
  return 0.0;
}

class Validator {
 public:
  /// Declares a check: |actual - expected| / |expected| <= tol_frac.
  void within(const std::string& what, double actual, double expected,
              double tol_frac) {
    const double err = std::abs(actual - expected) / std::abs(expected);
    add(what, err <= tol_frac,
        "actual " + fmt(actual) + " vs expected " + fmt(expected) + " (" +
            fmt(err * 100.0) + "% err, tol " + fmt(tol_frac * 100.0) + "%)");
  }

  void is_true(const std::string& what, bool ok,
               const std::string& detail = "") {
    add(what, ok, detail);
  }

  /// Prints the check summary; returns 0 if every check passed, else 1.
  int finish() const {
    std::printf("\n-- validation --------------------------------------\n");
    int failures = 0;
    for (const auto& c : checks_) {
      std::printf("  [%s] %s%s%s\n", c.ok ? "PASS" : "FAIL", c.what.c_str(),
                  c.detail.empty() ? "" : ": ", c.detail.c_str());
      failures += c.ok ? 0 : 1;
    }
    std::printf("%d/%zu checks passed\n", static_cast<int>(checks_.size()) - failures,
                checks_.size());
    return failures == 0 ? 0 : 1;
  }

 private:
  struct Check {
    std::string what;
    bool ok;
    std::string detail;
  };
  static std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
  }
  void add(std::string what, bool ok, std::string detail) {
    checks_.push_back(Check{std::move(what), ok, std::move(detail)});
  }
  std::vector<Check> checks_;
};

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("====================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("====================================================\n\n");
}

/// One experiment: prints its table/figure and returns what
/// Validator::finish() returns (0 when every check passed).
using ExperimentFn = int(const Args&);

struct Experiment {
  const char* name;
  ExperimentFn* run;
};

/// Every experiment, in `bbsim run all` order.
std::span<const Experiment> experiments();

/// Runs every entry of `table` in order, continuing past failures.
/// Stdout is exactly the concatenation of the experiments' own output;
/// the driver's notes go to stderr. Returns 1 if any experiment failed.
inline int run_all(std::span<const Experiment> table, const Args& args) {
  std::size_t failed = 0;
  for (const auto& e : table) {
    if (e.run(args) == 0) continue;
    ++failed;
    std::fflush(stdout);
    std::fprintf(stderr, "!! %s FAILED its reproduction bands\n", e.name);
  }
  std::fflush(stdout);
  std::fprintf(stderr, "[run] %zu/%zu experiments passed\n",
               table.size() - failed, table.size());
  return failed == 0 ? 0 : 1;
}

// Table 1 and Figs. 4-17 (§4-§7), design ablations, and extensions
// beyond the paper's figures; each is defined in bench_<name>.cpp.
ExperimentFn table1, fig04_llp_post, fig06_trace, fig07_inj_dist,
    fig08_inj_breakdown, fig10_lat_breakdown, fig11_hlp, fig12_overall_inj,
    fig13_e2e_latency, fig14_layer_split, fig15_categories, fig16_on_node,
    fig17_whatif;
ExperimentFn ablation_descriptor_path, ablation_completion,
    ablation_poll_batch, ablation_switch_count, ablation_faults,
    ablation_interrupt, ablation_memory_model;
ExperimentFn coll_osu, sweep_ranks, scaling_cores, sweep_msgsize,
    sweep_protocol;

}  // namespace bbench
