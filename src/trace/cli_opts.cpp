#include "trace/cli_opts.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace ipso::trace {

/// Bumped when the library surface grows; --version prints it so a bug
/// report pins the build without needing the git hash.
#define IPSO_VERSION_STRING "0.5.0"

namespace {

/// "--flag value" / "--flag=value" scan; returns nullptr when absent.
const char* arg_value(int argc, char** argv, const std::string& flag) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag && i + 1 < argc) return argv[i + 1];
    if (arg.rfind(prefix, 0) == 0) return argv[i] + prefix.size();
  }
  return nullptr;
}

bool parse_double(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// Strict flag lookup: distinguishes absent from present-without-a-value
/// (arg_value treats both as absent, which is right for the degrade-to-
/// default scans above but wrong for named errors).
enum class FlagState { kAbsent, kMissingValue, kHasValue };

FlagState find_flag(int argc, char** argv, const std::string& flag,
                    const char** value) {
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == flag) {
      if (i + 1 >= argc) return FlagState::kMissingValue;
      *value = argv[i + 1];
      return FlagState::kHasValue;
    }
    if (arg.rfind(prefix, 0) == 0) {
      *value = argv[i] + prefix.size();
      return FlagState::kHasValue;
    }
  }
  return FlagState::kAbsent;
}

/// Strict unsigned parse of one flag value `v`, in [min_value, max_value].
Expected<std::size_t, FlagError> parse_size(const std::string& flag,
                                            const char* v,
                                            std::size_t min_value,
                                            std::size_t max_value) {
  // strtoull happily wraps "-5" into a huge value; reject signs up front.
  if (*v == '\0' || *v == '-' || *v == '+') {
    return FlagError{flag, "expected an unsigned integer, got '" +
                               std::string(v) + "'"};
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    return FlagError{flag, "expected an unsigned integer, got '" +
                               std::string(v) + "'"};
  }
  if (n < min_value || n > max_value) {
    std::string range = "[";
    range += std::to_string(min_value) + ", " +
             (max_value == std::numeric_limits<std::size_t>::max()
                  ? std::string("inf")
                  : std::to_string(max_value)) +
             "]";
    return FlagError{flag,
                     "value " + std::to_string(n) + " outside " + range};
  }
  return static_cast<std::size_t>(n);
}

}  // namespace

std::string flag_help() {
  return
      "  --threads N        worker threads (0/absent = default; "
      "IPSO_THREADS env)\n"
      "  --fail-prob P      per-attempt task failure probability in [0, 1)\n"
      "  --speculate [F]    speculative execution (optional fraction F)\n"
      "  --max-retries K    retry budget before stage rollback\n"
      "  --trace-out FILE   write a Chrome trace JSON on exit "
      "(IPSO_TRACE env)\n"
      "  --help, -h         print this flag table and exit\n"
      "  --version          print the build-info string and exit\n";
}

std::string version_string() {
  std::string out = "ipso " IPSO_VERSION_STRING " (C++";
  out += std::to_string(__cplusplus / 100 % 100);
#if defined(__clang__)
  out += ", clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  out += ", gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#endif
#if defined(NDEBUG)
  out += ", optimized";
#else
  out += ", debug";
#endif
  return out + ")";
}

bool handle_info_flags(int argc, char** argv, std::string_view description) {
  bool help = false;
  bool version = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") help = true;
    if (arg == "--version") version = true;
  }
  if (help) {
    const char* prog = argc > 0 && argv[0] != nullptr ? argv[0] : "ipso";
    if (!description.empty()) {
      std::printf("%.*s\n\n", static_cast<int>(description.size()),
                  description.data());
    }
    std::printf("usage: %s [flags]\n\nflags:\n%s", prog, flag_help().c_str());
    return true;
  }
  if (version) {
    std::printf("%s\n", version_string().c_str());
    return true;
  }
  return false;
}

RunnerConfig runner_config_from_args(int argc, char** argv) {
  RunnerConfig cfg;
  if (const char* v = arg_value(argc, argv, "--threads")) {
    char* end = nullptr;
    const unsigned long t = std::strtoul(v, &end, 10);
    if (end != v && *end == '\0' && t > 0 && t <= 1024) cfg.threads = t;
  }
  return cfg;
}

sim::FaultModelParams fault_params_from_args(int argc, char** argv,
                                             sim::FaultModelParams base) {
  if (const char* v = arg_value(argc, argv, "--fail-prob")) {
    double p = 0.0;
    if (parse_double(v, &p) && p >= 0.0 && p < 1.0) {
      base.task_failure_prob = p;
    }
  }
  if (const char* v = arg_value(argc, argv, "--max-retries")) {
    char* end = nullptr;
    const unsigned long k = std::strtoul(v, &end, 10);
    if (end != v && *end == '\0' && k <= 1000) base.max_task_retries = k;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--speculate") {
      base.speculation = true;
      // An optional numeric value right after the flag is the fraction.
      double f = 0.0;
      if (i + 1 < argc && parse_double(argv[i + 1], &f) && f >= 0.0 &&
          f <= 1.0) {
        base.speculation_fraction = f;
      }
    } else if (arg.rfind("--speculate=", 0) == 0) {
      base.speculation = true;
      double f = 0.0;
      if (parse_double(arg.c_str() + 12, &f) && f >= 0.0 && f <= 1.0) {
        base.speculation_fraction = f;
      }
    }
  }
  return base;
}

std::string trace_out_from_args(int argc, char** argv) {
  if (const char* v = arg_value(argc, argv, "--trace-out")) return v;
  if (const char* env = std::getenv("IPSO_TRACE")) return env;
  return {};
}

CliOptions parse_cli_options(int argc, char** argv,
                             sim::FaultModelParams fault_base) {
  CliOptions opts;
  opts.runner = runner_config_from_args(argc, argv);
  opts.faults = fault_params_from_args(argc, argv, fault_base);
  opts.trace_out = trace_out_from_args(argc, argv);
  return opts;
}

std::string FlagError::to_string() const { return flag + ": " + message; }

Expected<std::size_t, FlagError> size_flag_from_args(
    int argc, char** argv, const std::string& flag, std::size_t fallback,
    std::size_t min_value, std::size_t max_value) {
  const char* v = nullptr;
  switch (find_flag(argc, argv, flag, &v)) {
    case FlagState::kAbsent:
      return fallback;
    case FlagState::kMissingValue:
      return FlagError{flag, "missing a value"};
    case FlagState::kHasValue:
      break;
  }
  return parse_size(flag, v, min_value, max_value);
}

Expected<std::vector<std::size_t>, FlagError> size_list_flag_from_args(
    int argc, char** argv, const std::string& flag,
    std::vector<std::size_t> fallback, std::size_t min_value) {
  const char* v = nullptr;
  switch (find_flag(argc, argv, flag, &v)) {
    case FlagState::kAbsent:
      return fallback;
    case FlagState::kMissingValue:
      return FlagError{flag, "missing a value"};
    case FlagState::kHasValue:
      break;
  }
  std::vector<std::size_t> out;
  const std::string list = v;
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = list.find(',', begin);
    const std::string item = list.substr(begin, comma - begin);
    auto n = parse_size(flag, item.c_str(), min_value,
                        std::numeric_limits<std::size_t>::max());
    if (!n.has_value()) return n.error();
    out.push_back(*n);
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

Expected<double, FlagError> double_flag_from_args(
    int argc, char** argv, const std::string& flag, double fallback,
    double min_value, double max_value) {
  const char* v = nullptr;
  switch (find_flag(argc, argv, flag, &v)) {
    case FlagState::kAbsent:
      return fallback;
    case FlagState::kMissingValue:
      return FlagError{flag, "missing a value"};
    case FlagState::kHasValue:
      break;
  }
  double d = 0.0;
  if (!parse_double(v, &d)) {
    return FlagError{flag,
                     "expected a number, got '" + std::string(v) + "'"};
  }
  if (!(d >= min_value && d <= max_value)) {  // NaN fails too
    return FlagError{flag, "value " + std::to_string(d) + " outside [" +
                               std::to_string(min_value) + ", " +
                               std::to_string(max_value) + "]"};
  }
  return d;
}

Expected<std::string, FlagError> string_flag_from_args(
    int argc, char** argv, const std::string& flag, std::string fallback) {
  const char* v = nullptr;
  switch (find_flag(argc, argv, flag, &v)) {
    case FlagState::kAbsent:
      return fallback;
    case FlagState::kMissingValue:
      return FlagError{flag, "missing a value"};
    case FlagState::kHasValue:
      break;
  }
  if (*v == '\0') return FlagError{flag, "expected a non-empty value"};
  return std::string(v);
}

}  // namespace ipso::trace
