#pragma once

#include "core/workload.h"
#include "core/expected.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file harness.h
/// The workload-independent half of the serving-stack benchmark: strict
/// argument parsing, the percentile rule, seeded Zipf/Poisson schedules,
/// the open-loop load loop, response digests, the generator of factor
/// observation series, and the result line. Everything here is exercised
/// by tests/selftest.cpp without a server.

namespace servebench {

using Clock = std::chrono::steady_clock;

inline constexpr std::uint64_t kDefaultSeed = 1;

/// Seconds on the steady clock: the one time base of completion times and
/// window ticks.
[[nodiscard]] inline double steady_s(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// The benchmark's own command line:
///   --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
///   [--golden FILE] [--trace-out FILE]
struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::size_t seconds = 10;
  bool trace = false;
  std::string work_dir;   ///< temporary stores; created when absent
  std::string golden;     ///< committed digest file; empty = no digest check
  std::string trace_out;  ///< Chrome trace path of a traced run
};

/// Strict parse through trace/cli_opts.h: an unknown flag, a flag without a
/// value, a malformed or out-of-range number, or an unknown workload name is
/// an error naming the flag. `workloads` is the accepted name set.
[[nodiscard]] ipso::Expected<Args, std::string> parse_args(
    int argc, char** argv, const std::vector<std::string>& workloads);

/// Nearest-rank percentile that is only reported when at least
/// `min_beyond` samples lie strictly beyond it (the rank is
/// ceil(p * n), so n * (1 - p) >= min_beyond is required). `sorted` must be
/// ascending.
[[nodiscard]] ipso::Expected<double, std::string> supported_percentile(
    const std::vector<double>& sorted, double p, std::size_t min_beyond = 10);

/// Seeded Zipf(skew) draws over `keys` ranks (rank 0 most popular).
[[nodiscard]] std::vector<std::size_t> zipf_ranks(std::size_t count,
                                                  std::size_t keys,
                                                  double skew,
                                                  std::uint64_t seed);

/// Seeded Poisson arrival offsets in seconds (exponential gaps at `rate`
/// per second) covering [0, horizon_s).
[[nodiscard]] std::vector<double> poisson_arrivals(double rate,
                                                   double horizon_s,
                                                   std::uint64_t seed);

/// Independent stream seed for (`seed`, `stream`): the same pair always
/// gives the same value, different pairs give unrelated values.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed,
                                     std::uint64_t stream) noexcept;

/// Open-loop measurement. Request i is due at start + due_s[i] and goes out
/// on lane i % lanes; each lane has one sender thread (sleeps until the due
/// time, then calls send(lane, i)) and one receiver thread (recv(lane)
/// blocks for the lane's next completion and returns its request index, or
/// nullopt on a transport failure). Latency is timed from the due time, so
/// a stall delays and counts against every request queued behind it.
struct OpenLoopResult {
  std::vector<double> latency_ms;  ///< per request index; < 0 = never answered
  std::vector<double> lag_ms;      ///< send start minus due time, per sent
  std::size_t sent = 0;
  std::size_t received = 0;
  bool transport_ok = true;
  double elapsed_s = 0.0;
  double start_s = 0.0;  ///< steady_s() of the start that due_s counts from
};
OpenLoopResult run_open_loop(
    const std::vector<double>& due_s, std::size_t lanes,
    const std::function<bool(std::size_t lane, std::size_t index)>& send,
    const std::function<std::optional<std::size_t>(std::size_t lane)>& recv);

/// Digest of an ordered response list (FNV-1a over the records, each
/// terminated by '\n'), as 16 lowercase hex digits.
[[nodiscard]] std::string response_digest(
    const std::vector<std::string>& responses);

/// Reads "<workload> <hex>" lines (blank lines and '#' comments skipped).
[[nodiscard]] ipso::Expected<std::map<std::string, std::string>, std::string>
read_golden(const std::string& path);

/// Checks `responses` against the committed digest of `workload`. Error
/// text names the workload and both digests.
[[nodiscard]] ipso::Expected<bool, std::string> check_digest(
    const std::map<std::string, std::string>& golden,
    const std::string& workload, const std::vector<std::string>& responses);

/// Ground truth of one generated factor-observation set. EX(n) is built as
/// alpha * n^delta * IN(n), so the in-proportion ratio is exactly
/// alpha * n^delta; IN(n) is piecewise linear with its changepoint at
/// n = knee. Noisy sets multiply every sample by (1 + 0.01 * N(0,1)).
struct FitTruth {
  ipso::WorkloadType type = ipso::WorkloadType::kFixedTime;
  double eta = 0.9;
  double alpha = 1.0;
  double delta = 0.5;
  double knee = 0.0;
  std::size_t points = 0;
  bool noisy = false;
};

/// One observation set: its truth and the `"ex":[..],"in":[..]` series
/// shared by every fit-path op on it.
struct FitSet {
  FitTruth truth;
  std::string series;
};

/// Deterministic set generator: same (seed, points, noisy) -> same bytes.
[[nodiscard]] FitSet make_fit_set(std::uint64_t seed, std::size_t points,
                                  bool noisy);

/// One fit-path request line: {"op":..,"workload":..,"eta":..,<series>}.
[[nodiscard]] std::string fit_line(std::string_view op, const FitTruth& truth,
                                   const std::string& series);

/// The scaling type the truth implies (the fit must recover it).
[[nodiscard]] std::string expected_type(const FitTruth& truth);

/// Extracts the raw value of the first `"key":` in a flat response line
/// (string contents without quotes, or the number/literal token).
[[nodiscard]] std::optional<std::string_view> json_field(
    std::string_view text, std::string_view key);

/// Checks a fit-path response (op fit/classify/predict/recommend) against
/// the truth: ok:true, the classified scaling type, and (for fit) the IN
/// changepoint within one grid step (noise-free) or 2% of the grid (noisy).
/// Returns an empty string when correct, else the reason.
[[nodiscard]] std::string check_fit_response(std::string_view op,
                                             const std::string& response,
                                             const FitTruth& truth);

/// One sample of a measured phase: steady_s() and the process CPU seconds
/// read at that moment.
struct Tick {
  double at_s = 0.0;
  double cpu_s = 0.0;
};

/// Per-window figures of a measured phase. Window w spans
/// [ticks[w].at_s, ticks[w+1].at_s); `ok_at_s` holds the steady_s() at
/// which each correct response arrived. `rps` has every window's correct
/// responses per second; `cpu_ms_per_ok` has the CPU milliseconds per
/// correct response of every window that has one.
struct WindowRates {
  std::vector<double> rps;
  std::vector<double> cpu_ms_per_ok;
};
[[nodiscard]] WindowRates window_rates(const std::vector<Tick>& ticks,
                                       std::vector<double> ok_at_s);

/// Peak resident set (VmHWM) of this process in MiB, since the process
/// started or since the last successful reset_peak_rss().
[[nodiscard]] double peak_rss_mib();

/// Resets VmHWM to the current resident set by writing "5" to
/// /proc/self/clear_refs (Linux 4.0 and later). False when the kernel
/// refuses, in which case peak_rss_mib() still covers the whole process.
bool reset_peak_rss();

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
[[nodiscard]] std::string result_line(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<std::pair<std::string, Metric>>& metrics);

/// Median of an unsorted sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace servebench
