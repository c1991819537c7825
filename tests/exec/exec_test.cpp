// Pool semantics of bb::exec: ordered collection, deterministic seeds,
// oversubscription, error propagation, cancellation, and grid expansion.
// Everything here is simulation-free on purpose -- these properties must
// hold for any job body.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.hpp"
#include "exec/sweep.hpp"

namespace bb::exec {
namespace {

TEST(Exec, ResultsArriveInGridOrderAtAnyThreadCount) {
  for (int jobs : {1, 2, 4, 7}) {
    const auto res = run(
        23, /*seed=*/1, [](Job& job) { return job.index() * 10; },
        {.jobs = jobs});
    ASSERT_EQ(res.values.size(), 23u);
    for (std::size_t i = 0; i < res.values.size(); ++i) {
      EXPECT_EQ(res.values[i], i * 10);
    }
    EXPECT_EQ(res.jobs, std::min(jobs, 23));
  }
}

TEST(Exec, SeedsAreAPureFunctionOfSweepSeedAndIndex) {
  const auto serial =
      run(16, /*seed=*/99, [](Job& job) { return job.seed(); }, {.jobs = 1});
  const auto parallel =
      run(16, /*seed=*/99, [](Job& job) { return job.seed(); }, {.jobs = 4});
  EXPECT_EQ(serial.values, parallel.values);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(serial.values[i], derive_seed(99, i));
  }
  // Distinct sweep seed => distinct job seeds.
  const auto other =
      run(16, /*seed=*/100, [](Job& job) { return job.seed(); }, {.jobs = 1});
  EXPECT_NE(serial.values, other.values);
}

TEST(Exec, ForkSeedMatchesDeriveSeedChain) {
  const auto res = run(
      4, /*seed=*/7, [](Job& job) { return job.fork_seed(3); }, {.jobs = 2});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(res.values[i], derive_seed(derive_seed(7, i), 3));
  }
}

TEST(Exec, OversubscriptionIsHarmless) {
  // Far more threads than jobs: pool clamps to the job count.
  const auto res =
      run(3, /*seed=*/5, [](Job& job) { return job.index(); }, {.jobs = 64});
  EXPECT_EQ(res.jobs, 3);
  ASSERT_EQ(res.values.size(), 3u);
  // And far more jobs than threads.
  const auto many =
      run(257, /*seed=*/5, [](Job& job) { return job.index(); }, {.jobs = 2});
  for (std::size_t i = 0; i < many.values.size(); ++i) {
    EXPECT_EQ(many.values[i], i);
  }
}

TEST(Exec, EveryJobRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(101);
  (void)run(
      hits.size(), /*seed=*/0,
      [&hits](Job& job) {
        hits[job.index()].fetch_add(1, std::memory_order_relaxed);
        return 0;
      },
      {.jobs = 4});
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Exec, LowestIndexErrorIsRethrown) {
  for (int jobs : {1, 2, 4}) {
    // On a pool, jobs 2 and 5 wait for each other before throwing, so
    // both are running when the first failure cancels the rest: both
    // errors are captured and the lowest grid index must win
    // deterministically. Serially, job 2 throws and job 5 never starts.
    std::atomic<int> arrived{0};
    try {
      (void)run(
          8, /*seed=*/0,
          [jobs, &arrived](Job& job) -> int {
            if (job.index() == 2 || job.index() == 5) {
              arrived.fetch_add(1);
              const auto give_up =
                  std::chrono::steady_clock::now() + std::chrono::seconds(10);
              while (jobs > 1 && arrived.load() < 2 &&
                     std::chrono::steady_clock::now() < give_up) {
                std::this_thread::yield();
              }
              throw std::runtime_error("job " + std::to_string(job.index()));
            }
            return 0;
          },
          {.jobs = jobs});
      FAIL() << "expected an exception at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 2");
    }
  }
}

TEST(Exec, FailFastCancelsOutstandingJobs) {
  // Serial execution makes cancellation deterministic: job 0 throws, so
  // jobs 1..N never start.
  std::atomic<int> started{0};
  try {
    (void)run(
        10, /*seed=*/0,
        [&started](Job&) -> int {
          started.fetch_add(1);
          throw std::runtime_error("boom");
        },
        {.jobs = 1});
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(started.load(), 1);
}

TEST(Exec, CancelledJobsAreMarkedNotRan) {
  // Serially, job 1 throws: jobs 2..5 are cancelled before starting, and
  // their stats say so.
  std::vector<JobStats> stats;
  detail::Batch batch;
  batch.count = 6;
  batch.stats = &stats;
  batch.run_job = [](std::size_t i, int, JobStats&) {
    if (i == 1) throw std::runtime_error("boom");
  };
  EXPECT_THROW(detail::run_batch(batch, {.jobs = 1}), std::runtime_error);
  ASSERT_EQ(stats.size(), 6u);
  EXPECT_TRUE(stats[0].ran);
  EXPECT_TRUE(stats[1].ran);
  for (std::size_t i = 2; i < stats.size(); ++i) {
    EXPECT_FALSE(stats[i].ran) << "job " << i;
  }
}

TEST(Exec, StatsRecordWorkerAndWallTime) {
  const auto res = run(
      6, /*seed=*/0,
      [](Job& job) {
        job.note_events(100 + job.index());
        job.note_sim_time_ps(7);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return 0;
      },
      {.jobs = 2});
  ASSERT_EQ(res.stats.size(), 6u);
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < res.stats.size(); ++i) {
    EXPECT_TRUE(res.stats[i].ran);
    EXPECT_GE(res.stats[i].worker, 0);
    EXPECT_LT(res.stats[i].worker, 2);
    EXPECT_GT(res.stats[i].wall_ms, 0.0);
    EXPECT_EQ(res.stats[i].events, 100 + i);
    EXPECT_EQ(res.stats[i].sim_time_ps, 7);
    events += res.stats[i].events;
  }
  EXPECT_EQ(res.total_events(), events);
  EXPECT_GE(res.serial_ms(), 6.0);
  EXPECT_FALSE(res.summary().empty());
}

TEST(Sweep, GridExpandsRowMajorLastAxisFastest) {
  const auto pts = grid(std::vector<int>{4, 8}, std::vector<int>{1, 2, 3});
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_EQ(pts[0], std::make_tuple(4, 1));
  EXPECT_EQ(pts[1], std::make_tuple(4, 2));
  EXPECT_EQ(pts[2], std::make_tuple(4, 3));
  EXPECT_EQ(pts[3], std::make_tuple(8, 1));
  EXPECT_EQ(pts[5], std::make_tuple(8, 3));
}

TEST(Sweep, ThreeAxisGridOrderAndSize) {
  const auto pts =
      grid(std::vector<int>{0, 1}, std::vector<char>{'a', 'b'},
           std::vector<int>{5, 6});
  ASSERT_EQ(pts.size(), 8u);
  EXPECT_EQ(pts[0], std::make_tuple(0, 'a', 5));
  EXPECT_EQ(pts[1], std::make_tuple(0, 'a', 6));
  EXPECT_EQ(pts[2], std::make_tuple(0, 'b', 5));
  EXPECT_EQ(pts[7], std::make_tuple(1, 'b', 6));
}

TEST(Sweep, RunSweepMapsPointsToValuesInOrder) {
  const auto s = sweep<int>({3, 1, 4, 1, 5}, /*seed=*/11);
  for (int jobs : {1, 3}) {
    const auto res = run_sweep(
        s, [](const int& p, Job& job) { return p * 100 + int(job.index()); },
        {.jobs = jobs});
    ASSERT_EQ(res.values.size(), 5u);
    EXPECT_EQ(res.values[0], 300);
    EXPECT_EQ(res.values[2], 402);
    EXPECT_EQ(res.values[4], 504);
  }
}

TEST(Exec, DefaultJobsHonorsEnvironment) {
  EXPECT_GE(hardware_jobs(), 1);
  EXPECT_GE(default_jobs(), 1);
}

}  // namespace
}  // namespace bb::exec
