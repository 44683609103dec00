#include "harness.h"

#include "core/classify.h"
#include "serve/placement.h"
#include "stats/random.h"
#include "trace/cli_opts.h"
#include "trace/json.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

namespace {

const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> flags = {
      "--workload", "--seed",  "--seconds",  "--trace",
      "--work-dir", "--golden", "--trace-out"};
  return flags;
}

}  // namespace

ipso::Expected<Args, std::string> parse_args(
    int argc, char** argv, const std::vector<std::string>& workloads) {
  // Every token must be a known flag with a value ("--f v" or "--f=v"); the
  // cli_opts parsers below then validate each value.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string name = arg.substr(0, arg.find('='));
    if (std::find(known_flags().begin(), known_flags().end(), name) ==
        known_flags().end()) {
      return "unknown argument '" + arg + "'";
    }
    if (name == arg) {
      if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
        return arg + ": missing a value";
      }
      ++i;
    }
  }
  Args out;
  const auto workload =
      ipso::trace::string_flag_from_args(argc, argv, "--workload", "");
  if (!workload) return workload.error().to_string();
  if (std::find(workloads.begin(), workloads.end(), *workload) ==
      workloads.end()) {
    std::string names;
    for (const auto& w : workloads) names += (names.empty() ? "" : ", ") + w;
    return "--workload: expected one of " + names + ", got '" + *workload +
           "'";
  }
  out.workload = *workload;
  const auto seed = ipso::trace::size_flag_from_args(
      argc, argv, "--seed", kDefaultSeed, 0, (std::size_t{1} << 62));
  if (!seed) return seed.error().to_string();
  out.seed = *seed;
  const auto seconds =
      ipso::trace::size_flag_from_args(argc, argv, "--seconds", 10, 1, 60);
  if (!seconds) return seconds.error().to_string();
  out.seconds = *seconds;
  const auto trace =
      ipso::trace::size_flag_from_args(argc, argv, "--trace", 0, 0, 1);
  if (!trace) return trace.error().to_string();
  out.trace = *trace == 1;
  const auto work_dir =
      ipso::trace::string_flag_from_args(argc, argv, "--work-dir", "");
  if (!work_dir) return work_dir.error().to_string();
  if (work_dir->empty()) return std::string("--work-dir: required");
  out.work_dir = *work_dir;
  const auto golden =
      ipso::trace::string_flag_from_args(argc, argv, "--golden", "");
  if (!golden) return golden.error().to_string();
  out.golden = *golden;
  const auto trace_out =
      ipso::trace::string_flag_from_args(argc, argv, "--trace-out", "");
  if (!trace_out) return trace_out.error().to_string();
  out.trace_out = *trace_out;
  return out;
}

ipso::Expected<double, std::string> supported_percentile(
    const std::vector<double>& sorted, double p, std::size_t min_beyond) {
  const std::size_t n = sorted.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < min_beyond) {
    std::ostringstream os;
    os << "p" << p * 100 << " needs " << min_beyond
       << " samples beyond it; have " << n << " samples";
    return os.str();
  }
  return sorted[rank - 1];
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // SplitMix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> zipf_ranks(std::size_t count, std::size_t keys,
                                    double skew, std::uint64_t seed) {
  std::vector<double> cdf(keys);
  double mass = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    mass += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = mass;
  }
  ipso::stats::Rng rng(seed);
  std::vector<std::size_t> out(count);
  for (auto& r : out) {
    const double u = rng.uniform() * mass;
    r = std::min<std::size_t>(
        static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                 cdf.begin()),
        keys - 1);
  }
  return out;
}

std::vector<double> poisson_arrivals(double rate, double horizon_s,
                                     std::uint64_t seed) {
  ipso::stats::Rng rng(seed);
  std::vector<double> out;
  double t = rng.exponential(rate);
  while (t < horizon_s) {
    out.push_back(t);
    t += rng.exponential(rate);
  }
  return out;
}

OpenLoopResult run_open_loop(
    const std::vector<double>& due_s, std::size_t lanes,
    const std::function<bool(std::size_t, std::size_t)>& send,
    const std::function<std::optional<std::size_t>(std::size_t)>& recv) {
  OpenLoopResult out;
  out.latency_ms.assign(due_s.size(), -1.0);
  std::vector<double> lag(due_s.size(), -1.0);
  // Per-lane progress: the receiver only blocks in recv() while a request
  // of its lane is outstanding, so a sender that stops early (failure)
  // never leaves its receiver waiting for an answer that cannot come.
  struct Lane {
    std::atomic<std::size_t> sent{0};
    std::atomic<bool> done{false};
  };
  std::vector<Lane> lane_state(lanes);
  std::atomic<bool> failed{false};
  const Clock::time_point start = Clock::now();
  out.start_s = steady_s(start);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };

  std::vector<std::thread> threads;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    threads.emplace_back([&, lane] {
      for (std::size_t i = lane; i < due_s.size(); i += lanes) {
        if (failed.load()) break;
        // Sleep to just before the due time, then spin: a sleeping thread's
        // wake-up delay would otherwise land in every measured latency.
        std::this_thread::sleep_until(due_at(i) - std::chrono::microseconds(500));
        while (Clock::now() < due_at(i)) {
        }
        lag[i] = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           due_at(i))
                     .count();
        if (!send(lane, i)) {
          failed.store(true);
          break;
        }
        lane_state[lane].sent.fetch_add(1);
      }
      lane_state[lane].done.store(true);
    });
    threads.emplace_back([&, lane] {
      std::size_t received = 0;
      while (true) {
        const bool done = lane_state[lane].done.load();
        if (received == lane_state[lane].sent.load()) {
          if (done) break;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        const std::optional<std::size_t> i = recv(lane);
        if (!i || *i >= due_s.size()) {
          failed.store(true);
          break;
        }
        ++received;
        out.latency_ms[*i] =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      due_at(*i))
                .count();
      }
    });
  }
  for (auto& t : threads) t.join();
  out.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const Lane& l : lane_state) out.sent += l.sent.load();
  for (double l : out.latency_ms) out.received += l >= 0.0 ? 1 : 0;
  for (double l : lag) {
    if (l >= 0.0) out.lag_ms.push_back(l);
  }
  out.transport_ok = !failed.load();
  return out;
}

std::string response_digest(const std::vector<std::string>& responses) {
  std::string joined;
  for (const auto& r : responses) {
    joined += r;
    joined += '\n';
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    ipso::serve::placement_hash(joined)));
  return hex;
}

ipso::Expected<std::map<std::string, std::string>, std::string> read_golden(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return "cannot read digest file '" + path + "'";
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, digest;
    if (!(fields >> workload >> digest)) {
      return "malformed digest line '" + line + "' in " + path;
    }
    out[workload] = digest;
  }
  return out;
}

ipso::Expected<bool, std::string> check_digest(
    const std::map<std::string, std::string>& golden,
    const std::string& workload, const std::vector<std::string>& responses) {
  const auto it = golden.find(workload);
  const std::string got = response_digest(responses);
  if (it == golden.end()) {
    return "no committed digest for " + workload + " (got " + got + ")";
  }
  if (it->second != got) {
    return "response digest of " + workload + " is " + got +
           ", committed " + it->second;
  }
  return true;
}

FitSet make_fit_set(std::uint64_t seed, std::size_t points, bool noisy) {
  ipso::stats::Rng rng(seed);
  FitSet set;
  FitTruth& t = set.truth;
  t.points = points;
  t.noisy = noisy;
  // Three families whose scaling types sit well away from the classifier's
  // exponent boundaries: sublinear fixed-time (delta 0.5), bounded
  // fixed-time (delta 0) and Amdahl-like fixed-size.
  switch (rng.uniform_below(3)) {
    case 0:
      t.type = ipso::WorkloadType::kFixedTime;
      t.delta = 0.5;
      break;
    case 1:
      t.type = ipso::WorkloadType::kFixedTime;
      t.delta = 0.0;
      break;
    default:
      t.type = ipso::WorkloadType::kFixedSize;
      t.delta = 0.0;
      break;
  }
  t.eta = 0.80 + 0.15 * rng.uniform();
  t.alpha = 0.5 + rng.uniform();
  const auto first = static_cast<std::size_t>(0.3 * static_cast<double>(points));
  t.knee = 1.0 + static_cast<double>(
                     first + rng.uniform_below(points - 2 * first));
  const double s1 = 0.05 + 0.1 * rng.uniform();
  const double s2 = 1.0 + 2.0 * rng.uniform();

  std::ostringstream ex, in;
  for (std::size_t i = 0; i < points; ++i) {
    const double n = 1.0 + static_cast<double>(i);
    double in_v = n <= t.knee ? 1.0 + s1 * (n - 1.0)
                              : 1.0 + s1 * (t.knee - 1.0) + s2 * (n - t.knee);
    double ex_v = t.alpha * std::pow(n, t.delta) * in_v;
    if (noisy) {
      in_v *= 1.0 + 0.01 * rng.normal();
      ex_v *= 1.0 + 0.01 * rng.normal();
    }
    const char* sep = i ? "," : "";
    ex << sep << "[" << i + 1 << "," << ipso::trace::json_double(ex_v) << "]";
    in << sep << "[" << i + 1 << "," << ipso::trace::json_double(in_v) << "]";
  }
  set.series = "\"ex\":[" + ex.str() + "],\"in\":[" + in.str() + "]";
  return set;
}

std::string fit_line(std::string_view op, const FitTruth& truth,
                     const std::string& series) {
  std::string out = "{\"op\":\"";
  out += op;
  out += truth.type == ipso::WorkloadType::kFixedTime
             ? "\",\"workload\":\"fixed-time\",\"eta\":"
             : "\",\"workload\":\"fixed-size\",\"eta\":";
  out += ipso::trace::json_double(truth.eta);
  out += ',';
  out += series;
  out += '}';
  return out;
}

std::string expected_type(const FitTruth& truth) {
  ipso::AsymptoticParams p;
  p.type = truth.type;
  p.eta = truth.eta;
  p.alpha = truth.alpha;
  p.delta = truth.type == ipso::WorkloadType::kFixedSize ? 0.0 : truth.delta;
  return std::string(ipso::to_string(ipso::classify(p).type));
}

std::optional<std::string_view> json_field(std::string_view text,
                                           std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 3);
  needle.append(1, '"').append(key).append("\":");
  const std::size_t at = text.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t b = at + needle.size();
  if (b < text.size() && text[b] == '"') {
    const std::size_t e = text.find('"', b + 1);
    if (e == std::string_view::npos) return std::nullopt;
    return text.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < text.size() && text[e] != ',' && text[e] != '}' &&
         text[e] != ']') {
    ++e;
  }
  return text.substr(b, e - b);
}

namespace {

double field_number(std::string_view text, std::string_view key) {
  const auto v = json_field(text, key);
  if (!v) return std::nan("");
  return std::strtod(std::string(*v).c_str(), nullptr);
}

}  // namespace

std::string check_fit_response(std::string_view op,
                               const std::string& response,
                               const FitTruth& truth) {
  if (response.find("\"ok\":true") == std::string::npos) {
    return "not ok: " + response.substr(0, 200);
  }
  std::string type;
  if (op == "fit" || op == "classify") {
    const auto cls = response.find("\"classification\":");
    if (cls == std::string::npos) return "no classification";
    const auto t = json_field(std::string_view(response).substr(cls), "type");
    if (!t) return "no classification type";
    type = std::string(*t);
  } else {
    // predict/recommend carry the fitted params; classify them here.
    const auto at = response.find("\"params\":");
    if (at == std::string::npos) return "no params";
    const std::string_view params = std::string_view(response).substr(at);
    ipso::AsymptoticParams p;
    p.type = truth.type;
    p.eta = field_number(params, "eta");
    p.alpha = field_number(params, "alpha");
    p.delta = field_number(params, "delta");
    p.beta = field_number(params, "beta");
    p.gamma = field_number(params, "gamma");
    if (!(p.eta >= 0.0 && p.eta <= 1.0 && p.alpha >= 0.0 && p.beta >= 0.0 &&
          p.gamma >= 0.0)) {
      return "params out of domain";
    }
    type = std::string(ipso::to_string(ipso::classify(p).type));
  }
  const std::string want = expected_type(truth);
  if (type != want) return "class " + type + ", expected " + want;
  if (op == "fit") {
    if (json_field(response, "kind") != std::optional<std::string_view>(
                                            "segmented")) {
      return "no IN changepoint found";
    }
    const double knot = field_number(response, "knot");
    const double tol =
        truth.noisy ? std::max(1.0, 0.02 * static_cast<double>(truth.points))
                    : 1.0;
    if (!(std::abs(knot - truth.knee) <= tol)) {
      std::ostringstream os;
      os << "knot " << knot << ", expected " << truth.knee << " +- " << tol;
      return os.str();
    }
  }
  return {};
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

std::string result_line(
    bool correct, std::size_t attempted, std::size_t failed,
    const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::ostringstream os;
  os << "{\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ",") << "\"" << name
       << "\":{\"value\":" << ipso::trace::json_double(m.value)
       << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

WindowRates window_rates(const std::vector<Tick>& ticks,
                         std::vector<double> ok_at_s) {
  std::sort(ok_at_s.begin(), ok_at_s.end());
  WindowRates out;
  for (std::size_t w = 0; w + 1 < ticks.size(); ++w) {
    const Tick& a = ticks[w];
    const Tick& b = ticks[w + 1];
    if (b.at_s <= a.at_s) continue;
    const auto n = static_cast<double>(
        std::lower_bound(ok_at_s.begin(), ok_at_s.end(), b.at_s) -
        std::lower_bound(ok_at_s.begin(), ok_at_s.end(), a.at_s));
    out.rps.push_back(n / (b.at_s - a.at_s));
    if (n > 0) out.cpu_ms_per_ok.push_back((b.cpu_s - a.cpu_s) * 1e3 / n);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace servebench
