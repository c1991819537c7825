// The experiment driver's contract: `run all` runs every entry even past
// a failure and reports 1 if any failed; Validator::finish() is the
// pass/fail an experiment returns; the shared flags parse as documented.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util.hpp"

namespace bbench {
namespace {

std::vector<std::string> g_ran;

int failing(const Args&) {
  g_ran.push_back("failing");
  return 1;
}

int passing(const Args&) {
  g_ran.push_back("passing");
  return 0;
}

TEST(RunAll, RunsEveryEntryPastAFailureAndReportsIt) {
  const Experiment table[] = {{"failing", failing}, {"passing", passing}};
  g_ran.clear();
  EXPECT_EQ(run_all(table, Args{}), 1);
  EXPECT_EQ(g_ran, (std::vector<std::string>{"failing", "passing"}));
}

TEST(RunAll, ZeroWhenEveryEntryPasses) {
  const Experiment table[] = {{"a", passing}, {"b", passing}};
  g_ran.clear();
  EXPECT_EQ(run_all(table, Args{}), 0);
  EXPECT_EQ(g_ran.size(), 2u);
}

TEST(RunAll, PassesArgsThrough) {
  static bool saw_smoke = false;
  const Experiment table[] = {{"smoke", [](const Args& a) {
                                 saw_smoke = a.smoke;
                                 return 0;
                               }}};
  Args args;
  args.smoke = true;
  EXPECT_EQ(run_all(table, args), 0);
  EXPECT_TRUE(saw_smoke);
}

TEST(Validator, FinishIsZeroWhenEveryCheckPasses) {
  Validator v;
  v.within("exact", 100.0, 100.0, 0.0);
  v.within("inside band", 104.0, 100.0, 0.05);
  v.is_true("true", true);
  EXPECT_EQ(v.finish(), 0);
}

TEST(Validator, FinishIsOneWhenAnyCheckFails) {
  Validator within;
  within.within("inside band", 104.0, 100.0, 0.05);
  within.within("outside band", 106.0, 100.0, 0.05);
  EXPECT_EQ(within.finish(), 1);

  Validator truth;
  truth.is_true("true", true);
  truth.is_true("false", false);
  EXPECT_EQ(truth.finish(), 1);
}

TEST(Validator, NoChecksPasses) { EXPECT_EQ(Validator{}.finish(), 0); }

std::vector<std::string> parse(std::vector<std::string> argv, Args& out) {
  std::vector<char*> ptrs;
  for (auto& a : argv) ptrs.push_back(a.data());
  return parse_args(static_cast<int>(ptrs.size()), ptrs.data(), out);
}

TEST(ParseArgs, StripsSharedFlagsAndKeepsPositionals) {
  Args a;
  EXPECT_EQ(parse({"bbsim", "run", "--jobs", "3", "coll_osu", "--smoke"}, a),
            (std::vector<std::string>{"bbsim", "run", "coll_osu"}));
  EXPECT_EQ(a.exec.jobs, 3);
  EXPECT_TRUE(a.smoke);

  Args b;
  EXPECT_EQ(parse({"bbsim", "--jobs=5", "list"}, b),
            (std::vector<std::string>{"bbsim", "list"}));
  EXPECT_EQ(b.exec.jobs, 5);
  EXPECT_FALSE(b.smoke);
}

TEST(ParseArgs, NonPositiveOrMissingJobsFallBackToDefault) {
  for (const char* jobs : {"--jobs=0", "--jobs=-2", "--jobs=x"}) {
    Args a;
    parse({"bbsim", jobs}, a);
    EXPECT_EQ(a.exec.jobs, bb::exec::default_jobs()) << jobs;
  }
  Args trailing;
  EXPECT_EQ(parse({"bbsim", "--jobs"}, trailing),
            (std::vector<std::string>{"bbsim", "--jobs"}));
  EXPECT_EQ(trailing.exec.jobs, bb::exec::default_jobs());
}

}  // namespace
}  // namespace bbench
