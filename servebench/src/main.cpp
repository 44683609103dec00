/// servebench: the serving-stack benchmark. One run measures one workload
/// over loopback (binary protocol, serve::Client -> TcpServer/Router ->
/// ServeEngine), checks every response, and prints a machine/build info
/// line followed by the result line:
///
///   servebench --workload NAME --seed N --seconds S --trace 0|1
///              --work-dir DIR [--golden FILE] [--trace-out FILE]
///
/// Exit status: 0 = every response correct; 1 = the run finished but
/// something was wrong (the result line says correct:false); 2 = bad
/// arguments or a failed setup (no result line). See README.md.

#include "harness.h"
#include "trace/json.h"
#include "workloads.h"

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

namespace {

std::string json_str(const std::string& s) {
  std::string out(1, '"');
  out += ipso::trace::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // A run that hangs must still end, and end without a result line.
  alarm(175);

  const auto args =
      servebench::parse_args(argc, argv, servebench::workload_names());
  if (!args) {
    std::fprintf(stderr, "servebench: %s\n", args.error().c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args->work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "servebench: cannot create %s\n",
                 args->work_dir.c_str());
    return 2;
  }

  servebench::Outcome out;
  try {
    out = servebench::run_workload(*args, args->work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s failed: %s\n", args->workload.c_str(),
                 e.what());
    return 2;
  }

  std::string info = "{\"info\":{\"workload\":" + json_str(args->workload) +
                     ",\"seed\":" + std::to_string(args->seed) +
                     ",\"seconds\":" + std::to_string(args->seconds) +
                     ",\"trace\":" + (args->trace ? "1" : "0") +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"compiler\":" + json_str(SERVEBENCH_COMPILER) +
                     ",\"build_type\":" + json_str(SERVEBENCH_BUILD_TYPE) +
                     ",\"ipso_sync_stats\":false,\"ipso_contracts\":true" +
#if defined(IPSO_OBS_DISABLED)
                     ",\"obs_compiled\":false" +
#else
                     ",\"obs_compiled\":true" +
#endif
                     "";
  for (const auto& [k, v] : out.info) info += ",\"" + k + "\":" + json_str(v);
  info += ",\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    if (i > 0) info += ',';
    info += json_str(out.errors[i]);
  }
  info += "]}}";
  for (const auto& e : out.errors) {
    std::fprintf(stderr, "servebench: %s: %s\n", args->workload.c_str(),
                 e.c_str());
  }
  const bool correct = out.errors.empty() && out.failed == 0;
  std::printf("%s\n%s\n", info.c_str(),
              servebench::result_line(correct, out.attempted, out.failed,
                                      out.metrics)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
