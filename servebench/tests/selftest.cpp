/// Self-tests of the benchmark harness (no server involved):
///   * the percentile rule wants >= 10 samples beyond the percentile;
///   * Zipf/Poisson schedules repeat for one seed and differ across seeds;
///   * open-loop latency is timed from the due time: a handler that stalls
///     once raises the latency of later requests and shows up as lag;
///   * the digest check fails when one response byte is flipped;
///   * window rates count each completion in its own window, so a stall
///     moves one window and not the median;
///   * malformed arguments are refused.
/// Exit status 0 when every check passes.

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <numeric>
#include <thread>

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void test_percentile_rule() {
  using servebench::supported_percentile;
  expect(!supported_percentile(ramp(999), 0.99),
         "p99 of 999 samples is refused (9 beyond it)");
  const auto p99 = supported_percentile(ramp(1000), 0.99);
  expect(p99 && *p99 == 990.0, "p99 of 1000 samples is the 990th (10 beyond)");
  expect(!supported_percentile(ramp(19), 0.50), "p50 of 19 samples is refused");
  const auto p50 = supported_percentile(ramp(20), 0.50);
  expect(p50 && *p50 == 10.0, "p50 of 20 samples is the 10th");
  expect(!supported_percentile({}, 0.50), "an empty sample is refused");
}

void test_schedules() {
  using servebench::poisson_arrivals;
  using servebench::zipf_ranks;
  expect(zipf_ranks(2000, 1024, 1.1, 7) == zipf_ranks(2000, 1024, 1.1, 7),
         "Zipf ranks repeat for one seed");
  expect(zipf_ranks(2000, 1024, 1.1, 7) != zipf_ranks(2000, 1024, 1.1, 8),
         "Zipf ranks differ across seeds");
  const auto z = zipf_ranks(20000, 1024, 1.1, 7);
  double mass = 0;
  for (int k = 1; k <= 1024; ++k) mass += std::pow(k, -1.1);
  const double share =
      static_cast<double>(std::count(z.begin(), z.end(), 0)) / 20000.0;
  expect(std::abs(share - 1.0 / mass) < 0.01,
         "rank 0 draws its Zipf(1.1) share");
  const auto a = poisson_arrivals(400.0, 10.0, 3);
  expect(a == poisson_arrivals(400.0, 10.0, 3),
         "Poisson arrivals repeat for one seed");
  expect(a != poisson_arrivals(400.0, 10.0, 4),
         "Poisson arrivals differ across seeds");
  expect(a.size() > 3800 && a.size() < 4200 &&
             std::is_sorted(a.begin(), a.end()) && a.back() < 10.0,
         "Poisson arrivals hold the rate within the horizon");
}

/// A stub "server" on one lane: send() runs the handler inline (so a stall
/// blocks the sender, like a peer that stops reading) and queues the
/// answer; recv() pops answers in order.
servebench::OpenLoopResult stub_open_loop(std::size_t stall_at) {
  std::vector<double> due;
  for (int i = 0; i < 40; ++i) due.push_back(0.005 * i);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> answers;
  return servebench::run_open_loop(
      due, 1,
      [&](std::size_t, std::size_t i) {
        if (i == stall_at) std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::lock_guard<std::mutex> lock(mu);
        answers.push_back(i);
        cv.notify_one();
        return true;
      },
      [&](std::size_t) -> std::optional<std::size_t> {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !answers.empty(); });
        const std::size_t i = answers.front();
        answers.pop_front();
        return i;
      });
}

void test_open_loop_due_time() {
  const auto calm = stub_open_loop(1000);
  const auto stalled = stub_open_loop(5);
  const double calm_max =
      *std::max_element(calm.latency_ms.begin(), calm.latency_ms.end());
  expect(calm.received == 40 && calm_max < 40.0,
         "without a stall every request is answered promptly");
  // Request 6 was due 5 ms after request 5 began its 100 ms stall.
  expect(stalled.received == 40 && stalled.latency_ms[6] > 80.0 &&
             stalled.latency_ms[20] > 20.0,
         "a stall raises the latency of later requests (timed from due)");
  std::vector<double> lag = stalled.lag_ms;
  std::sort(lag.begin(), lag.end());
  expect(lag.back() > 80.0, "the stall shows as generator lag");
}

void test_digest_flip() {
  std::vector<std::string> responses = {"{\"ok\":true,\"result\":1}",
                                        "{\"ok\":true,\"result\":2}"};
  const std::map<std::string, std::string> golden = {
      {"w", servebench::response_digest(responses)}};
  expect(servebench::check_digest(golden, "w", responses).has_value(),
         "the digest check passes on the committed responses");
  responses[1][12] ^= 0x01;
  expect(!servebench::check_digest(golden, "w", responses).has_value(),
         "the digest check fails when one response byte is flipped");
  expect(!servebench::check_digest(golden, "x", responses).has_value(),
         "a workload without a committed digest fails");
}

bool parses(std::vector<std::string> args) {
  args.insert(args.begin(), "servebench");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  return servebench::parse_args(static_cast<int>(argv.size()), argv.data(),
                                {"fit_cold"})
      .has_value();
}

void test_strict_args() {
  const std::vector<std::string> base = {"--workload", "fit_cold", "--seed",
                                         "3", "--seconds", "5", "--trace", "1",
                                         "--work-dir", "w"};
  expect(parses(base), "a well-formed command line parses");
  auto with = [&](std::size_t at, const std::string& v) {
    auto a = base;
    a[at] = v;
    return parses(a);
  };
  expect(!with(3, "3x"), "a malformed seed is refused");
  expect(!with(5, "0"), "zero seconds is refused");
  expect(!with(7, "2"), "--trace 2 is refused");
  expect(!with(1, "nope"), "an unknown workload is refused");
  expect(!with(0, "--bogus"), "an unknown flag is refused");
  auto dangling = base;
  dangling.pop_back();
  expect(!parses(dangling), "a flag without its value is refused");
}

void test_window_rates() {
  using servebench::Tick;
  // Four 1 s windows, 1 CPU second each; 10 completions per window except
  // the third, which stalls and completes 2.
  const std::vector<Tick> ticks = {{100, 0}, {101, 1}, {102, 2}, {103, 3},
                                   {104, 4}};
  std::vector<double> ok_at;
  for (int w = 0; w < 4; ++w) {
    const int n = w == 2 ? 2 : 10;
    for (int i = 0; i < n; ++i) ok_at.push_back(100 + w + (i + 0.5) / n);
  }
  ok_at.push_back(99.5);   // before the first tick: in no window
  ok_at.push_back(104.5);  // after the last tick: in no window
  const auto r = servebench::window_rates(ticks, ok_at);
  expect(r.rps == std::vector<double>({10, 10, 2, 10}),
         "each completion lands in its own window; none outside them");
  expect(servebench::median(r.rps) == 10, "a stalled window leaves the median rate");
  expect(r.cpu_ms_per_ok == std::vector<double>({100, 100, 500, 100}),
         "CPU ms per completion is taken per window");
  const auto idle = servebench::window_rates(ticks, {});
  expect(idle.rps.size() == 4 && idle.cpu_ms_per_ok.empty(),
         "a window without completions has a rate of 0 and no CPU figure");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_schedules();
  test_open_loop_due_time();
  test_digest_flip();
  test_strict_args();
  test_window_rates();
  std::printf("%s\n", failures == 0 ? "all self-tests passed" : "SELF-TEST FAILURES");
  return failures == 0 ? 0 : 1;
}
