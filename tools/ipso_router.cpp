/// ipso_router: the sharded serving tier's routing daemon. Speaks the same
/// dual JSON/binary protocol as ipso_serve on its front port and fans
/// requests out to N ipso_serve replicas over pooled binary connections,
/// placing fit-keyed requests with a swappable policy (--placement).
/// SIGTERM/SIGINT trigger a graceful drain — every queued request is
/// answered (by a replica or with upstream_unavailable) before exit 0.
///
/// Usage:
///   ipso_router --replicas HOST:PORT,HOST:PORT,...
///               [--port N] [--host A] [--shards N]
///               [--placement hash|range|affinity]
///               [--conns-per-replica N] [--upstream-batch N]
///               [--trace-out FILE]
///
/// Prints "ipso_router: listening on HOST:PORT" once ready (the smoke test
/// greps this line for the resolved ephemeral port). Malformed flag values
/// are a refusal to start (exit 1 with the flag named on stderr), not a
/// silent fall-through to defaults — the same policy as ipso_serve.

#include "obs/export.h"
#include "serve/router.h"
#include "trace/cli_opts.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr const char* kProgram = "ipso_router";

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

const char kUsage[] =
    "ipso_router: routing front end for a tier of ipso_serve replicas\n"
    "\n"
    "usage: ipso_router --replicas HOST:PORT,... [flags]\n"
    "\n"
    "flags:\n"
    "  --replicas L      comma-separated replica endpoints (required)\n"
    "  --port N          TCP port to listen on (0 = ephemeral; default 0)\n"
    "  --host A          bind address (default 127.0.0.1)\n"
    "  --shards N        epoll event-loop threads (default 1)\n"
    "  --placement P     hash | range | affinity (default hash)\n"
    "  --conns-per-replica N   pooled connections per replica (default 2)\n"
    "  --upstream-batch N      max records per upstream frame (default 64)\n"
    "  --trace-out FILE  write a Chrome trace of the run on exit\n"
    "  --help, -h        this text\n"
    "  --version         build-info string\n";

/// "h1:p1,h2:p2,..." -> endpoints; returns false on any malformed element.
bool parse_replicas(const std::string& list,
                    std::vector<ipso::serve::ReplicaEndpoint>* out) {
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t end = list.find(',', begin);
    if (end == std::string::npos) end = list.size();
    const std::string item = list.substr(begin, end - begin);
    if (!item.empty()) {
      const std::size_t colon = item.rfind(':');
      if (colon == std::string::npos || colon + 1 == item.size()) {
        return false;
      }
      char* endp = nullptr;
      const long port = std::strtol(item.c_str() + colon + 1, &endp, 10);
      if (!endp || *endp != '\0' || port <= 0 || port > 65535) return false;
      out->push_back(ipso::serve::ReplicaEndpoint{
          item.substr(0, colon), static_cast<std::uint16_t>(port)});
    }
    begin = end + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipso;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--version") {
      std::printf("%s\n", trace::version_string().c_str());
      return 0;
    }
  }

  obs::TraceSession trace_session(trace::trace_out_from_args(argc, argv));

  serve::RouterConfig cfg;
  cfg.host = trace::flag_or_die(
      kProgram,
      trace::string_flag_from_args(argc, argv, "--host", "127.0.0.1"));
  cfg.port = static_cast<std::uint16_t>(trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--port", 0, 0, 65535)));
  cfg.shards = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--shards", 1, 1, 64));
  cfg.placement = trace::flag_or_die(
      kProgram,
      trace::string_flag_from_args(argc, argv, "--placement", "hash"));
  cfg.connections_per_replica = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--conns-per-replica",
                                          2, 1, 256));
  cfg.max_upstream_batch = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--upstream-batch", 64,
                                          1, 65536));

  const std::string replicas = trace::flag_or_die(
      kProgram, trace::string_flag_from_args(argc, argv, "--replicas", ""));
  if (replicas.empty() || !parse_replicas(replicas, &cfg.replicas)) {
    std::fprintf(stderr,
                 "ipso_router: --replicas HOST:PORT[,HOST:PORT...] is "
                 "required\n");
    return 1;
  }

  serve::Router router(cfg);
  if (auto started = router.start(); !started.has_value()) {
    std::fprintf(stderr, "ipso_router: %s\n", started.error().message.c_str());
    return 1;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf("ipso_router: listening on %s:%u (replicas=%zu placement=%s "
              "conns-per-replica=%zu)\n",
              cfg.host.c_str(), static_cast<unsigned>(router.port()),
              cfg.replicas.size(), router.placement_name(),
              cfg.connections_per_replica);
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("ipso_router: draining\n");
  std::fflush(stdout);
  router.shutdown();

  const serve::RouterStats s = router.stats();
  const serve::NetStats n = router.net_stats();
  std::printf("ipso_router: drained (received=%zu keyed=%zu keyless=%zu "
              "local=%zu draining=%zu upstream_batches=%zu "
              "upstream_errors=%zu reconnects=%zu)\n",
              s.received, s.routed_keyed, s.routed_keyless, s.answered_local,
              s.rejected_draining, s.upstream_batches, s.upstream_errors,
              s.reconnects);
  std::printf("ipso_router: net (connections=%zu frames_in=%zu "
              "frames_out=%zu requests_in=%zu bytes_in=%zu bytes_out=%zu)\n",
              n.connections_accepted, n.frames_in, n.frames_out,
              n.requests_in, n.bytes_in, n.bytes_out);
  std::fflush(stdout);
  return 0;
}
