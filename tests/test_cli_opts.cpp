#include "trace/cli_opts.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

namespace ipso {
namespace {

TEST(CliOpts, ThreadsFlagBothSpellings) {
  const char* argv1[] = {"prog", "--threads", "4"};
  EXPECT_EQ(trace::runner_config_from_args(3, const_cast<char**>(argv1))
                .threads,
            4u);
  const char* argv2[] = {"prog", "--threads=7"};
  EXPECT_EQ(trace::runner_config_from_args(2, const_cast<char**>(argv2))
                .threads,
            7u);
}

TEST(CliOpts, ThreadsFlagRejectsGarbage) {
  const char* argv1[] = {"prog", "--threads", "zero"};
  EXPECT_EQ(trace::runner_config_from_args(3, const_cast<char**>(argv1))
                .threads,
            0u);
  const char* argv2[] = {"prog", "--threads=99999"};
  EXPECT_EQ(trace::runner_config_from_args(2, const_cast<char**>(argv2))
                .threads,
            0u);
}

TEST(CliOpts, FaultFlags) {
  const char* argv[] = {"prog", "--fail-prob=0.05", "--max-retries", "2",
                        "--speculate=0.1"};
  const auto p = trace::fault_params_from_args(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(p.task_failure_prob, 0.05);
  EXPECT_EQ(p.max_task_retries, 2u);
  EXPECT_TRUE(p.speculation);
  EXPECT_DOUBLE_EQ(p.speculation_fraction, 0.1);
}

TEST(CliOpts, TraceOutFlagBothSpellings) {
  const char* argv1[] = {"prog", "--trace-out", "/tmp/t.json"};
  EXPECT_EQ(trace::trace_out_from_args(3, const_cast<char**>(argv1)),
            "/tmp/t.json");
  const char* argv2[] = {"prog", "--trace-out=trace.json"};
  EXPECT_EQ(trace::trace_out_from_args(2, const_cast<char**>(argv2)),
            "trace.json");
}

TEST(CliOpts, TraceOutAbsentAndNoEnvIsEmpty) {
  // The test environment must not leak IPSO_TRACE into this assertion.
  const char* saved = std::getenv("IPSO_TRACE");
  unsetenv("IPSO_TRACE");
  const char* argv[] = {"prog"};
  EXPECT_TRUE(trace::trace_out_from_args(1, const_cast<char**>(argv)).empty());
  if (saved != nullptr) setenv("IPSO_TRACE", saved, 1);
}

TEST(CliOpts, TraceOutFallsBackToEnv) {
  const char* saved = std::getenv("IPSO_TRACE");
  setenv("IPSO_TRACE", "/tmp/env-trace.json", 1);
  const char* argv[] = {"prog"};
  EXPECT_EQ(trace::trace_out_from_args(1, const_cast<char**>(argv)),
            "/tmp/env-trace.json");
  const char* argv2[] = {"prog", "--trace-out=flag.json"};
  EXPECT_EQ(trace::trace_out_from_args(2, const_cast<char**>(argv2)),
            "flag.json");  // the flag wins over the env
  if (saved != nullptr) {
    setenv("IPSO_TRACE", saved, 1);
  } else {
    unsetenv("IPSO_TRACE");
  }
}

TEST(CliOpts, ParseCliOptionsCombinesEverything) {
  sim::FaultModelParams base;
  base.max_task_retries = 9;
  const char* argv[] = {"prog", "--threads=3", "--fail-prob=0.01",
                        "--trace-out=all.json"};
  const auto opts =
      trace::parse_cli_options(4, const_cast<char**>(argv), base);
  EXPECT_EQ(opts.runner.threads, 3u);
  EXPECT_DOUBLE_EQ(opts.faults.task_failure_prob, 0.01);
  EXPECT_EQ(opts.faults.max_task_retries, 9u);  // base preserved
  EXPECT_EQ(opts.trace_out, "all.json");
}

TEST(CliOpts, FlagHelpListsEveryFlag) {
  const std::string help = trace::flag_help();
  for (const char* flag : {"--threads", "--fail-prob", "--speculate",
                           "--max-retries", "--trace-out", "--help",
                           "--version"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
}

TEST(CliOpts, VersionStringHasNameAndStandard) {
  const std::string v = trace::version_string();
  EXPECT_EQ(v.rfind("ipso ", 0), 0u) << v;
  EXPECT_NE(v.find("C++20"), std::string::npos) << v;
}

TEST(CliOpts, HandleInfoFlagsDetectsHelpAndVersion) {
  const char* help1[] = {"prog", "--help"};
  EXPECT_TRUE(trace::handle_info_flags(2, const_cast<char**>(help1)));
  const char* help2[] = {"prog", "--threads=2", "-h"};
  EXPECT_TRUE(trace::handle_info_flags(3, const_cast<char**>(help2), "demo"));
  const char* version[] = {"prog", "--version"};
  EXPECT_TRUE(trace::handle_info_flags(2, const_cast<char**>(version)));
}

TEST(CliOpts, HandleInfoFlagsIgnoresOrdinaryArgs) {
  const char* argv[] = {"prog", "--threads", "4", "--trace-out=x.json"};
  EXPECT_FALSE(trace::handle_info_flags(4, const_cast<char**>(argv)));
  const char* bare[] = {"prog"};
  EXPECT_FALSE(trace::handle_info_flags(1, const_cast<char**>(bare)));
}

TEST(CliOpts, SizeListFlagIsStrict) {
  const auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return trace::size_list_flag_from_args(
        static_cast<int>(args.size()), const_cast<char**>(args.data()),
        "--conns", {1, 16}, 1);
  };
  ASSERT_TRUE(parse({}).has_value());
  EXPECT_EQ(*parse({}), (std::vector<std::size_t>{1, 16}));
  ASSERT_TRUE(parse({"--conns", "4,256"}).has_value());
  EXPECT_EQ(*parse({"--conns", "4,256"}), (std::vector<std::size_t>{4, 256}));
  ASSERT_TRUE(parse({"--conns=8"}).has_value());
  EXPECT_EQ(*parse({"--conns=8"}), (std::vector<std::size_t>{8}));
  for (const char* bad : {"", "4,", ",4", "4,,8", "4,x", "0", "-1", "2.5"}) {
    const auto parsed = parse({"--conns", bad});
    ASSERT_FALSE(parsed.has_value()) << "'" << bad << "'";
    EXPECT_EQ(parsed.error().flag, "--conns");
  }
  EXPECT_FALSE(parse({"--conns"}).has_value());
}

TEST(CliOpts, HasFlagMatchesWholeArgumentsOnly) {
  const char* argv[] = {"prog", "--no-net", "--router-keys", "4"};
  EXPECT_TRUE(trace::has_flag(4, const_cast<char**>(argv), "--no-net"));
  EXPECT_FALSE(trace::has_flag(4, const_cast<char**>(argv), "--router"));
  EXPECT_FALSE(trace::has_flag(4, const_cast<char**>(argv), "prog"));
}

}  // namespace
}  // namespace ipso
