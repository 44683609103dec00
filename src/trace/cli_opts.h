#pragma once

#include "core/expected.h"
#include "sim/fault.h"
#include "trace/runner.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

/// \file cli_opts.h
/// Shared CLI flag parsing for the bench/example executables. Every binary
/// historically re-declared the same `--threads` / fault-flag scan; this is
/// the one place those flags (and `--trace-out`) are defined.
///
/// Flags:
///   --threads N            worker threads (0/absent = default)
///   --fail-prob P          per-attempt task failure probability
///   --speculate [F]        speculative execution (optional fraction F)
///   --max-retries K        retry budget before stage rollback
///   --trace-out FILE       enable obs tracing, write Chrome trace JSON to
///                          FILE on exit (IPSO_TRACE env is the fallback)
///   --help / -h            print the flag table and exit
///   --version              print a build-info string and exit
///
/// Malformed or out-of-range values are ignored (the flag keeps its base
/// value) so a typo degrades to defaults instead of aborting a long sweep;
/// --help is how a user discovers the table instead of guessing.
///
/// Long-running daemons want the opposite policy: a typo'd --cache-cap
/// silently running with the default is worse than refusing to start. The
/// *_flag_from_args family below parses a single flag strictly and returns
/// a named FlagError (which flag, what was wrong) instead of degrading;
/// absent flags still yield the fallback.

namespace ipso::trace {

/// The shared flag table, one flag per line (what --help prints).
std::string flag_help();

/// Build-info string, e.g. "ipso 0.5.0 (C++20, gcc 12.2.0)".
std::string version_string();

/// Handles the informational flags every main supports: when argv contains
/// --help/-h the program description (if any), usage line, and flag table
/// are printed to stdout; when it contains --version the build-info string
/// is printed. Returns true when either flag was seen — the caller should
/// then exit 0 immediately.
bool handle_info_flags(int argc, char** argv,
                       std::string_view description = {});

/// Scans argv for "--threads N" / "--threads=N" and returns a RunnerConfig
/// (0 = default when the flag is absent).
RunnerConfig runner_config_from_args(int argc, char** argv);

/// Scans argv for the fault-injection flags and overlays them onto `base`.
sim::FaultModelParams fault_params_from_args(
    int argc, char** argv, sim::FaultModelParams base = {});

/// Resolves the trace output path: "--trace-out FILE" / "--trace-out=FILE",
/// falling back to the IPSO_TRACE environment variable. Empty = tracing
/// stays disabled (pass the result straight to obs::TraceSession).
std::string trace_out_from_args(int argc, char** argv);

/// Everything the shared flags configure, parsed in one call.
struct CliOptions {
  RunnerConfig runner;
  sim::FaultModelParams faults;
  std::string trace_out;
};

/// One-call parse of every shared flag; `fault_base` seeds the fault params
/// the same way fault_params_from_args' `base` does.
CliOptions parse_cli_options(int argc, char** argv,
                             sim::FaultModelParams fault_base = {});

/// Named flag-parse failure: which flag was wrong and why. to_string()
/// renders e.g. `--cache-cap: expected an unsigned integer, got 'lots'`.
struct FlagError {
  std::string flag;
  std::string message;
  [[nodiscard]] std::string to_string() const;
};

/// Strict "--flag N" / "--flag=N" parse. Absent => `fallback`; present
/// with a malformed, negative, or out-of-[min,max] value => FlagError
/// (including a flag with no value at all).
[[nodiscard]] Expected<std::size_t, FlagError> size_flag_from_args(
    int argc, char** argv, const std::string& flag, std::size_t fallback,
    std::size_t min_value = 0,
    std::size_t max_value = std::numeric_limits<std::size_t>::max());

/// Strict comma-separated list ("--flag 1,16,256"), same contract as
/// size_flag_from_args: an empty or malformed entry, or one below
/// `min_value`, is a FlagError naming the flag.
[[nodiscard]] Expected<std::vector<std::size_t>, FlagError>
size_list_flag_from_args(int argc, char** argv, const std::string& flag,
                         std::vector<std::size_t> fallback,
                         std::size_t min_value = 0);

/// Strict double flag, same contract as size_flag_from_args.
[[nodiscard]] Expected<double, FlagError> double_flag_from_args(
    int argc, char** argv, const std::string& flag, double fallback,
    double min_value, double max_value);

/// Strict string flag: absent => `fallback`; present but empty (or with no
/// value) => FlagError.
[[nodiscard]] Expected<std::string, FlagError> string_flag_from_args(
    int argc, char** argv, const std::string& flag, std::string fallback);

/// True when argv holds the switch `flag` itself (e.g. --no-net).
[[nodiscard]] bool has_flag(int argc, char** argv, std::string_view flag);

/// Unwraps a strict flag parse for a program that refuses to start on a
/// bad flag: on a FlagError it prints "<program>: <error>" to stderr and
/// exits with status 1.
template <typename T>
T flag_or_die(const char* program, const Expected<T, FlagError>& parsed) {
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s: %s\n", program,
                 parsed.error().to_string().c_str());
    std::exit(1);
  }
  return *parsed;
}

}  // namespace ipso::trace
