#include "trace/json.h"

#include "workloads/sort.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

namespace ipso::trace {
namespace {

TEST(Json, SeriesShape) {
  stats::Series s("S(n)");
  s.add(1, 1.0);
  s.add(2, 1.5);
  const std::string j = to_json(s);
  EXPECT_EQ(j, "{\"name\":\"S(n)\",\"points\":[[1,1],[2,1.5]]}");
}

TEST(Json, EscapesQuotes) {
  stats::Series s("a\"b");
  const std::string j = to_json(s);
  EXPECT_NE(j.find("a\\\"b"), std::string::npos);
}

TEST(Json, MrSweepContainsAllSections) {
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4};
  sweep.repetitions = 1;
  const auto r =
      run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string j = to_json(r);
  for (const char* key :
       {"\"kind\":\"mr_sweep\"", "\"eta\":", "\"speedup\":", "\"ex\":",
        "\"in\":", "\"q\":", "\"points\":", "\"components\":",
        "\"spilled\":false"}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
}

TEST(Json, MrSweepPointCountMatches) {
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedTime;
  sweep.ns = {1, 2, 4, 8};
  sweep.repetitions = 1;
  const auto r =
      run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string j = to_json(r);
  std::size_t count = 0, pos = 0;
  while ((pos = j.find("\"parallel_time\"", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 4u);
}

TEST(Json, BalancedBracesAndBrackets) {
  MrSweepConfig sweep;
  sweep.type = WorkloadType::kFixedSize;
  sweep.ns = {1, 2};
  sweep.repetitions = 1;
  const auto r =
      run_mr_sweep(wl::sort_spec(), sim::default_emr_cluster(1), sweep);
  const std::string j = to_json(r);
  int braces = 0, brackets = 0;
  for (char c : j) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(JsonDouble, EmitsMaxDigits10) {
  // 12-digit output used to truncate these; 17 digits round-trip exactly.
  for (double v : {1.0 / 3.0, 0.1, 2.0 / 7.0, 1e-17, 123456789.123456789,
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max()}) {
    const std::string text = json_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
  EXPECT_EQ(json_double(1.0), "1");
  EXPECT_EQ(json_double(1.5), "1.5");
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::nan("")), "null");
}

}  // namespace
}  // namespace ipso::trace
