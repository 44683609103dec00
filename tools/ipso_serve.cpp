/// ipso_serve: the model-serving daemon. Listens on a TCP port for
/// newline-delimited JSON requests (see src/serve/proto.h for the grammar)
/// and answers them through a ServeEngine: fits are cached and coalesced,
/// admission is bounded, and SIGTERM/SIGINT trigger a graceful drain —
/// every admitted request is answered before the process exits 0.
///
/// Usage:
///   ipso_serve [--port N] [--host A] [--threads N] [--shards N]
///              [--queue-cap N] [--cache-cap N] [--store-dir DIR]
///              [--deadline-ms D] [--trace-out FILE]
///
/// With --store-dir the fit store gains a persistent tier: fits evicted
/// from DRAM spill to checksummed segments under DIR, the drain on
/// SIGTERM flushes the warm set, and a restarted daemon pointed at the
/// same DIR serves those fits byte-identically without re-fitting.
///
/// Prints "ipso_serve: listening on HOST:PORT" once ready (the smoke test
/// greps this line for the resolved ephemeral port). Malformed flag values
/// are a refusal to start (exit 1 with the flag named on stderr), not a
/// silent fall-through to defaults — a daemon that ignored a typo'd
/// --cache-cap would "work" with the wrong capacity for weeks.

#include "obs/export.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "trace/cli_opts.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace {

constexpr const char* kProgram = "ipso_serve";

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

const char kUsage[] =
    "ipso_serve: IPSO model-serving daemon (newline-delimited JSON over "
    "TCP)\n"
    "\n"
    "usage: ipso_serve [flags]\n"
    "\n"
    "flags:\n"
    "  --port N          TCP port to listen on (0 = ephemeral; default 0)\n"
    "  --host A          bind address (default 127.0.0.1)\n"
    "  --threads N       worker threads (0 = hardware default)\n"
    "  --shards N        epoll event-loop threads (default 1)\n"
    "  --queue-cap N     admitted-request bound before 'overloaded'"
    " (default 256)\n"
    "  --cache-cap N     fit-store DRAM capacity in entries (default 128)\n"
    "  --store-dir DIR   persistent fit-store directory (absent = "
    "DRAM-only)\n"
    "  --deadline-ms D   default per-request deadline (0 = none)\n"
    "  --trace-out FILE  write a Chrome trace of the run on exit\n"
    "  --help, -h        this text\n"
    "  --version         build-info string\n";

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

  serve::ServeConfig engine_cfg;
  engine_cfg.threads = trace::flag_or_die(
      kProgram,
      trace::size_flag_from_args(argc, argv, "--threads", 0, 0, 1024));
  engine_cfg.queue_capacity = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--queue-cap", 256, 1));
  engine_cfg.cache_capacity = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--cache-cap", 128, 1));
  engine_cfg.store_dir = trace::flag_or_die(
      kProgram, trace::string_flag_from_args(argc, argv, "--store-dir", ""));
  engine_cfg.default_deadline_ms = trace::flag_or_die(
      kProgram, trace::double_flag_from_args(argc, argv, "--deadline-ms", 0.0,
                                            0.0, 1e9));

  serve::ServerConfig server_cfg;
  server_cfg.host = trace::flag_or_die(
      kProgram,
      trace::string_flag_from_args(argc, argv, "--host", "127.0.0.1"));
  server_cfg.port = static_cast<std::uint16_t>(trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--port", 0, 0, 65535)));
  server_cfg.shards = trace::flag_or_die(
      kProgram, trace::size_flag_from_args(argc, argv, "--shards", 1, 1, 64));

  serve::ServeEngine engine(engine_cfg);
  if (!engine.store_status()) {
    // A broken store directory degrades to DRAM-only serving rather than
    // refusing traffic; the operator sees why on stderr.
    std::fprintf(stderr, "ipso_serve: store: %s (serving DRAM-only)\n",
                 engine.store_status().message.c_str());
  }
  serve::TcpServer server(engine, server_cfg);
  if (auto started = server.start(); !started) {
    std::fprintf(stderr, "ipso_serve: %s\n", started.error().message.c_str());
    return 1;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  const store::TieredStore::Stats boot = engine.store_stats();
  std::printf("ipso_serve: listening on %s:%u (threads=%zu queue-cap=%zu "
              "cache-cap=%zu store=%s)\n",
              server_cfg.host.c_str(), static_cast<unsigned>(server.port()),
              engine.threads(), engine_cfg.queue_capacity,
              engine_cfg.cache_capacity,
              engine_cfg.store_dir.empty() ? "none"
                                           : engine_cfg.store_dir.c_str());
  if (boot.persistent) {
    std::printf("ipso_serve: store recovered (records=%zu segments=%zu "
                "skipped=%zu)\n",
                boot.disk.records, boot.disk.segments,
                boot.disk.skipped_total());
  }
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("ipso_serve: draining\n");
  std::fflush(stdout);
  server.shutdown();

  const serve::ServeStats s = engine.stats();
  const store::TieredStore::Stats st = engine.store_stats();
  const serve::NetStats n = server.net_stats();
  std::printf("ipso_serve: drained (received=%zu completed=%zu "
              "overloaded=%zu draining=%zu deadline=%zu parse_errors=%zu "
              "cache_hits=%zu cache_misses=%zu coalesced=%zu)\n",
              s.received, s.completed, s.overloaded, s.rejected_draining,
              s.deadline_expired, s.parse_errors, st.cache.hits,
              st.cache.misses, st.cache.coalesced);
  std::printf("ipso_serve: net (connections=%zu frames_in=%zu "
              "frames_out=%zu requests_in=%zu bytes_in=%zu bytes_out=%zu "
              "wakeups=%zu stalls=%zu protocol_errors=%zu)\n",
              n.connections_accepted, n.frames_in, n.frames_out,
              n.requests_in, n.bytes_in, n.bytes_out, n.wakeups,
              n.backpressure_stalls, n.protocol_errors);
  if (!engine_cfg.store_dir.empty()) {
    std::printf("ipso_serve: store (records=%zu segments=%zu spilled=%zu "
                "disk_hits=%zu recovered=%zu skipped=%zu)\n",
                st.disk.records, st.disk.segments, st.tier.spilled,
                st.tier.disk_hits, st.disk.recovered,
                st.disk.skipped_total());
  }
  std::fflush(stdout);
  return 0;
}
