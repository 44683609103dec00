/// bench_serve_load: closed-loop load generator for the ipso::serve engine.
/// Three phases against one in-process ServeEngine:
///
///   cold        every request is a distinct fit (cache can only miss);
///   hot         the same requests again (cache can only hit);
///   saturation  a burst far beyond a small admission queue, proving the
///               engine sheds load with `overloaded` instead of queueing
///               without bound.
///
/// Reports throughput and p50/p95/p99 latency per phase, then enforces the
/// serving-layer contracts and exits 1 on violation:
///
///   C1  hot-phase (cached) fits are >= 10x faster than cold at the median;
///   C2  hot responses are byte-identical to their cold counterparts;
///   C3  saturation produces `overloaded` rejections and the peak queue
///       depth never exceeds the configured capacity;
///   C4  peak RSS stays bounded (VmHWM under a generous ceiling), i.e.
///       saturation sheds load instead of buffering it.
///
/// A fourth phase drives the epoll front end over real sockets: a sweep of
/// connection count x batch size x wire protocol (JSON lines vs binary
/// batched frames), closed-loop, every response validated. Two more
/// contracts:
///
///   C5  the event loop sustains the largest configured connection count
///       (default 1024) with every response correct and in order;
///   C6  the binary batched protocol beats JSON lines on aggregate req/s
///       across the batch >= 16 cells (the batching win is real, not
///       serialization trivia). Each such cell runs three times per
///       protocol, alternating which goes first; the contract compares the
///       sums of the per-cell medians.
///
/// `--router` switches to the sharded-tier sweep instead: replica count x
/// placement policy x Zipf-skewed key popularity, every request flowing
/// through an in-process Router fronting N ServeEngine replicas. The tier's
/// own (n, throughput) curve is then fed through the repo's fit_factors —
/// the serving tier is itself a fixed-size workload in the IPSO taxonomy —
/// with Gunther's USL fitted on the same q(n) series as a cross-check.
///
///   C7  at >= 3 replicas, every placement and both wire protocols return
///       responses byte-identical to a single standalone engine;
///   C8  fit_factors succeeds on every placement's throughput curve and
///       prints (delta, gamma, class).
///
/// A warm-restart phase exercises the persistent fit store (src/store):
/// one engine fits the corpus cold into a --store-dir, drains (flushing
/// the warm set to disk), and a second engine on the same directory
/// replays the corpus. Cold vs warm p50 fit latency is reported, and:
///
///   C9  the restarted engine serves every response byte-identical to the
///       pre-restart engine with zero fits performed (all disk hits);
///   C10 after a byte of a persisted segment is flipped, a restart skips
///       the corrupted record (skipped counter > 0), re-fits it, and
///       still answers the full corpus byte-identically -- corruption
///       degrades to recomputation, never to a crash or a wrong answer.
///
/// A model-zoo phase drives the serve-protocol `compare` op on synthetic
/// speedup curves of known shape:
///
///   C11 zoo selection is shape-driven -- Gunther's USL is selected over
///       Amdahl on a contention-shaped q(n) curve, IPSO is selected on an
///       Eq. 16 fixed-time series shaped like the paper's Fig. 9 curves,
///       and a perfectly linear curve resolves deterministically to
///       Amdahl via the registry-order tie-break.
///
/// Flags: --requests N, --points N (observations per series), --threads N,
///        --conns LIST, --batch LIST, --net-requests N, --no-net,
///        --store-dir DIR (default: fresh temp dir), --no-store,
///        --router, --router-requests N, --router-points N, --router-keys N,
///        --router-replicas LIST, --router-conns N, --router-batch N,
///        --zipf S, --trace-out FILE.

#include "core/classify.h"
#include "core/fit.h"
#include "core/sync.h"
#include "models/usl.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/server.h"
#include "stats/random.h"
#include "stats/series.h"
#include "store/segment.h"
#include "trace/cli_opts.h"
#include "trace/json.h"
#include "obs/export.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// A fit request whose observations depend on `seed`, so distinct seeds are
/// distinct cache keys and equal seeds are byte-identical request lines.
/// `points` observations per factor series model a production trace (one
/// point per completed run); the IN series has a changepoint at n/2, so the
/// fit pays for the O(points^2) segmented changepoint search the cache is
/// there to amortize.
std::string fit_request(int seed, int points) {
  const double t1 = 100.0 + seed;
  const double knee = 1.0 + points / 2.0;
  std::ostringstream os;
  os << "{\"op\":\"fit\",\"workload\":\"fixed-time\",\"eta\":0.99,\"ex\":[";
  for (int i = 0; i < points; ++i) {
    const double n = 1.0 + i;
    if (i) os << ",";
    os << "[" << n << "," << ipso::trace::json_double(t1 / n + 0.5) << "]";
  }
  os << "],\"in\":[";
  for (int i = 0; i < points; ++i) {
    const double n = 1.0 + i;
    const double in = n <= knee ? 0.4 + 0.6 * n : 0.4 + 0.6 * knee +
                                                      2.5 * (n - knee);
    if (i) os << ",";
    os << "[" << n << "," << ipso::trace::json_double(in) << "]";
  }
  os << "]}";
  return os.str();
}

struct PhaseResult {
  std::vector<double> latencies_ms;  // sorted on return
  std::vector<std::string> responses;
  double elapsed_s = 0.0;
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Closed loop: issue every request, measure each wall latency.
PhaseResult run_phase(ipso::serve::ServeEngine& engine,
                      const std::vector<std::string>& requests) {
  PhaseResult result;
  result.latencies_ms.reserve(requests.size());
  result.responses.reserve(requests.size());
  const Clock::time_point start = Clock::now();
  for (const std::string& req : requests) {
    const Clock::time_point t0 = Clock::now();
    result.responses.push_back(engine.handle(req));
    result.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  result.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  return result;
}

void print_phase(const char* name, const PhaseResult& r) {
  const double n = static_cast<double>(r.responses.size());
  std::printf("%-12s %6zu req  %8.1f req/s  p50 %8.4f ms  p95 %8.4f ms  "
              "p99 %8.4f ms\n",
              name, r.responses.size(),
              r.elapsed_s > 0 ? n / r.elapsed_s : 0.0,
              percentile(r.latencies_ms, 0.50),
              percentile(r.latencies_ms, 0.95),
              percentile(r.latencies_ms, 0.99));
}

/// Peak resident set (VmHWM) in MiB from /proc/self/status; 0 if absent.
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

/// Per-named-mutex hold/contention table — the baseline for lock-splitting
/// work (which locks are fought over, e.g. the per-shard serve.engine mutex
/// vs the store tiers). Counters exist only under -DIPSO_SYNC_STATS=ON;
/// default builds print the one-line notice so the absence is visible in
/// archived bench output rather than ambiguous.
void print_mutex_profile() {
  using ipso::sync::MutexProfile;
  if (!ipso::sync::stats_compiled_in()) {
    std::printf("\nmutex profile: compiled out "
                "(rebuild with -DIPSO_SYNC_STATS=ON)\n");
    return;
  }
  // profile() yields one row per mutex *instance* (each shard engine is its
  // own "serve.engine" row); fold per capability name and report the
  // instance count so per-shard structure stays visible without a
  // hundred-row table.
  struct Agg {
    std::uint64_t instances = 0, acquisitions = 0, contended = 0,
                  hold_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const MutexProfile& p : ipso::sync::profile()) {
    Agg& a = by_name[p.name];
    ++a.instances;
    a.acquisitions += p.acquisitions;
    a.contended += p.contended;
    a.hold_ns += p.hold_ns;
  }
  std::printf("\nmutex profile (IPSO_SYNC_STATS):\n");
  std::printf("  %-24s %9s %12s %12s %10s %9s\n", "capability", "instances",
              "acquisitions", "contended", "hold_ms", "contend%");
  for (const auto& [name, a] : by_name) {
    if (a.acquisitions == 0) continue;
    std::printf("  %-24s %9llu %12llu %12llu %10.2f %8.2f%%\n", name.c_str(),
                static_cast<unsigned long long>(a.instances),
                static_cast<unsigned long long>(a.acquisitions),
                static_cast<unsigned long long>(a.contended),
                static_cast<double>(a.hold_ns) / 1e6,
                100.0 * static_cast<double>(a.contended) /
                    static_cast<double>(a.acquisitions));
  }
}

constexpr const char* kProgram = "bench_serve_load";

/// Strict "--flag N" whose minimum is the smallest shape the bench runs;
/// a malformed or out-of-range value exits 1 naming the flag.
std::size_t size_flag(int argc, char** argv, const char* flag,
                      std::size_t fallback, std::size_t min_value) {
  return ipso::trace::flag_or_die(
      kProgram, ipso::trace::size_flag_from_args(
                    argc, argv, flag, fallback, min_value,
                    std::numeric_limits<int>::max()));
}

/// Strict "--flag 1,16,256" of positive counts.
std::vector<std::size_t> list_flag(int argc, char** argv, const char* flag,
                                   std::vector<std::size_t> fallback) {
  return ipso::trace::flag_or_die(
      kProgram, ipso::trace::size_list_flag_from_args(
                    argc, argv, flag, std::move(fallback), 1));
}

/// Raises RLIMIT_NOFILE toward `want` fds; returns the resulting soft
/// limit. The 1024-connection sweep cell needs ~2x that in fds (client +
/// server end of every socket live in this one process).
std::size_t raise_fd_limit(std::size_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < want && lim.rlim_cur < lim.rlim_max) {
    rlimit raised = lim;
    raised.rlim_cur =
        lim.rlim_max == RLIM_INFINITY
            ? want
            : std::min<rlim_t>(lim.rlim_max, static_cast<rlim_t>(want));
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return lim.rlim_cur == RLIM_INFINITY ? want
                                       : static_cast<std::size_t>(lim.rlim_cur);
}

/// json/binary pairs run per batch >= 16 socket-sweep cell; C6 compares
/// the protocols on the sum of the per-cell medians.
constexpr int kC6Pairs = 3;

/// One sweep cell: `conns` closed-loop connections, each keeping one
/// request batch of `batch` pings in flight, driven by up to 8 client
/// threads. Returns req/s; 0 on any transport or correctness failure.
struct NetCell {
  double reqs_per_s = 0.0;
  std::size_t requests = 0;
  bool ok = false;
};

NetCell run_net_cell(ipso::serve::Proto proto, std::size_t conns,
                     std::size_t batch, std::size_t total_requests,
                     std::size_t threads) {
  using namespace ipso;
  NetCell cell;

  serve::ServeConfig engine_cfg;
  engine_cfg.threads = threads;
  // Closed loop: every connection has at most one batch admitted, so size
  // the queue for exactly that plus slack — an `overloaded` response here
  // would be a correctness failure, not load shedding.
  engine_cfg.queue_capacity = conns * batch + 64;
  serve::ServeEngine engine(engine_cfg);

  serve::ServerConfig server_cfg;
  server_cfg.listen_backlog = static_cast<int>(std::max<std::size_t>(
      conns, 128));
  serve::TcpServer server(engine, server_cfg);
  if (auto started = server.start(); !started) {
    std::fprintf(stderr, "net: server start failed: %s\n",
                 started.error().message.c_str());
    return cell;
  }
  const std::uint16_t port = server.port();

  const std::size_t rounds =
      std::max<std::size_t>(1, total_requests / (conns * batch));
  cell.requests = rounds * conns * batch;

  const std::vector<std::string> records(batch, "{\"op\":\"ping\"}");
  const std::size_t workers = std::min<std::size_t>(conns, 8);
  std::atomic<std::size_t> failures{0};

  std::vector<std::unique_ptr<serve::Client>> clients;
  clients.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    clients.push_back(std::make_unique<serve::Client>(proto));
  }

  // Connect everything before timing starts: the cell measures steady-state
  // throughput at `conns` live connections, not connection setup.
  for (std::size_t i = 0; i < conns; ++i) {
    if (auto c = clients[i]->connect("127.0.0.1", port); !c) {
      std::fprintf(stderr, "net: connect %zu/%zu failed: %s\n", i, conns,
                   c.error().message.c_str());
      return cell;
    }
  }

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      // Worker w owns connections [lo, hi): pipeline one batch onto each,
      // then collect each batch — so all of a worker's connections have a
      // frame in flight concurrently.
      const std::size_t lo = w * conns / workers;
      const std::size_t hi = (w + 1) * conns / workers;
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (auto sent = clients[i]->send_batch(records); !sent) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
        for (std::size_t i = lo; i < hi; ++i) {
          auto got = clients[i]->recv_batch(batch);
          if (!got || got->size() != batch) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          for (const std::string& response : *got) {
            if (response.find("\"pong\":true") == std::string::npos) {
              failures.fetch_add(1, std::memory_order_relaxed);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  clients.clear();
  server.shutdown();

  if (failures.load() != 0) return cell;
  cell.ok = true;
  cell.reqs_per_s =
      elapsed > 0 ? static_cast<double>(cell.requests) / elapsed : 0.0;
  return cell;
}

// ---------------------------------------------------------------------------
// Router sweep (--router): replica count x placement x Zipf key popularity.
// ---------------------------------------------------------------------------

/// N in-process ServeEngine replicas, each behind its own TcpServer, plus
/// the endpoint list a Router needs to front them.
struct ReplicaTier {
  std::vector<std::unique_ptr<ipso::serve::ServeEngine>> engines;
  std::vector<std::unique_ptr<ipso::serve::TcpServer>> servers;
  std::vector<ipso::serve::ReplicaEndpoint> endpoints;

  bool start(std::size_t replicas, std::size_t cache_capacity) {
    using namespace ipso;
    for (std::size_t i = 0; i < replicas; ++i) {
      serve::ServeConfig cfg;
      cfg.threads = 1;
      cfg.queue_capacity = 4096;
      cfg.cache_capacity = cache_capacity;
      engines.push_back(std::make_unique<serve::ServeEngine>(cfg));
      servers.push_back(
          std::make_unique<serve::TcpServer>(*engines.back(),
                                             serve::ServerConfig{}));
      if (auto started = servers.back()->start(); !started) {
        std::fprintf(stderr, "router: replica %zu start failed: %s\n", i,
                     started.error().message.c_str());
        return false;
      }
      endpoints.push_back({"127.0.0.1", servers.back()->port()});
    }
    return true;
  }

  void shutdown() {
    for (auto& s : servers) s->shutdown();
  }
};

/// Zipf(s) sampling schedule over `keys` ranks: schedule[i] is the key index
/// of the i-th request. Deterministic (seeded Rng + precomputed CDF), so
/// every sweep cell replays the identical popularity-skewed stream.
std::vector<std::size_t> zipf_schedule(std::size_t total, std::size_t keys,
                                       double skew, std::uint64_t seed) {
  std::vector<double> cdf(keys);
  double mass = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    mass += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = mass;
  }
  ipso::stats::Rng rng(seed);
  std::vector<std::size_t> schedule(total);
  for (std::size_t i = 0; i < total; ++i) {
    const double u = rng.uniform() * mass;
    schedule[i] = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (schedule[i] >= keys) schedule[i] = keys - 1;
  }
  return schedule;
}

/// One tier cell: `replicas` engines behind a Router with `placement`,
/// driven closed-loop over the binary protocol by `conns` connections each
/// pipelining `batch`-record frames drawn from the Zipf schedule.
NetCell run_router_cell(const std::string& placement, std::size_t replicas,
                        const std::vector<std::string>& keyspace,
                        const std::vector<std::size_t>& schedule,
                        std::size_t conns, std::size_t batch) {
  using namespace ipso;
  NetCell cell;

  ReplicaTier tier;
  if (!tier.start(replicas, keyspace.size() + 8)) return cell;

  serve::RouterConfig rcfg;
  rcfg.replicas = tier.endpoints;
  rcfg.placement = placement;
  rcfg.max_upstream_batch = batch;
  serve::Router router(rcfg);
  if (auto started = router.start(); !started) {
    std::fprintf(stderr, "router: start failed: %s\n",
                 started.error().message.c_str());
    tier.shutdown();
    return cell;
  }
  const std::uint16_t port = router.port();

  const std::size_t rounds =
      std::max<std::size_t>(1, schedule.size() / (conns * batch));
  cell.requests = rounds * conns * batch;

  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t i = 0; i < conns; ++i) {
    clients.push_back(
        std::make_unique<serve::Client>(serve::Proto::kBinary));
    if (auto c = clients.back()->connect("127.0.0.1", port); !c) {
      std::fprintf(stderr, "router: connect failed: %s\n",
                   c.error().message.c_str());
      router.shutdown();
      tier.shutdown();
      return cell;
    }
  }

  const std::size_t workers = std::min<std::size_t>(conns, 4);
  std::atomic<std::size_t> failures{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      const std::size_t lo = w * conns / workers;
      const std::size_t hi = (w + 1) * conns / workers;
      std::vector<std::string> records(batch);
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t b = 0; b < batch; ++b) {
            const std::size_t pos =
                ((r * conns + i) * batch + b) % schedule.size();
            records[b] = keyspace[schedule[pos]];
          }
          if (auto sent = clients[i]->send_batch(records); !sent) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          auto got = clients[i]->recv_batch(batch);
          if (!got || got->size() != batch) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          for (const std::string& response : *got) {
            if (response.find("\"ok\":true") == std::string::npos) {
              failures.fetch_add(1, std::memory_order_relaxed);
              return;
            }
          }
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  clients.clear();
  router.shutdown();
  tier.shutdown();

  if (failures.load() != 0) return cell;
  cell.ok = true;
  cell.reqs_per_s =
      elapsed > 0 ? static_cast<double>(cell.requests) / elapsed : 0.0;
  return cell;
}

/// C7: replays a deterministic corpus (keyed fits, repeats, ping, a parse
/// error) through a 3-replica tier under every placement and both wire
/// protocols, comparing every response to a standalone engine byte for
/// byte. The `stats` op is the one legitimate divergence, so it is checked
/// structurally instead: the router must answer it locally with its
/// placement name.
bool run_router_identity(const std::vector<std::string>& placements,
                         int points) {
  using namespace ipso;
  std::vector<std::string> corpus;
  corpus.push_back("{\"op\":\"ping\"}");
  for (int i = 0; i < 6; ++i) corpus.push_back(fit_request(i, points));
  corpus.push_back(fit_request(2, points));  // repeat: cache + affinity pin
  corpus.push_back("this is not json");
  corpus.push_back("{\"op\":\"ping\"}");

  serve::ServeConfig ref_cfg;
  ref_cfg.threads = 1;
  serve::ServeEngine reference(ref_cfg);
  std::vector<std::string> expected;
  for (const std::string& req : corpus) expected.push_back(reference.handle(req));

  bool identical = true;
  for (const std::string& placement : placements) {
    ReplicaTier tier;
    if (!tier.start(3, 64)) return false;
    serve::RouterConfig rcfg;
    rcfg.replicas = tier.endpoints;
    rcfg.placement = placement;
    serve::Router router(rcfg);
    if (auto started = router.start(); !started) {
      std::fprintf(stderr, "router: start failed: %s\n",
                   started.error().message.c_str());
      tier.shutdown();
      return false;
    }
    for (const serve::Proto proto :
         {serve::Proto::kJson, serve::Proto::kBinary}) {
      serve::Client client(proto);
      if (auto c = client.connect("127.0.0.1", router.port()); !c) {
        identical = false;
        continue;
      }
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto got = client.call(corpus[i]);
        if (!got.has_value() || *got != expected[i]) {
          std::printf("  mismatch [%s/%s] request %zu\n", placement.c_str(),
                      serve::to_string(proto), i);
          identical = false;
        }
      }
      const auto stats = client.call("{\"op\":\"stats\"}");
      if (!stats.has_value() ||
          stats->find("\"router\":true") == std::string::npos ||
          stats->find("\"placement\":\"" + placement + "\"") ==
              std::string::npos) {
        std::printf("  stats op not answered by the router [%s/%s]\n",
                    placement.c_str(), serve::to_string(proto));
        identical = false;
      }
    }
    router.shutdown();
    tier.shutdown();
  }
  return identical;
}

/// One C11 case: drives the serve-protocol `compare` op with an inline
/// observation set and checks which model the zoo selected.
bool zoo_selects(ipso::serve::ServeEngine& engine, const char* label,
                 const std::string& request, const char* expect) {
  const std::string response = engine.handle(request);
  const std::string needle =
      "\"winner\":\"" + std::string(expect) + "\"";
  if (response.find("\"ok\":true") != std::string::npos &&
      response.find(needle) != std::string::npos) {
    std::printf("  %-28s -> %s\n", label, expect);
    return true;
  }
  std::printf("CONTRACT VIOLATION (C11): %s: expected winner '%s', got: "
              "%s\n",
              label, expect, response.c_str());
  return false;
}

/// C11: model selection is shape-driven. The zoo, asked over the serving
/// protocol, must pick Gunther's USL on a contention-shaped q(n) curve
/// (where Amdahl's single parameter cannot express the n*(n-1) term), and
/// IPSO on an Eq. 16 fixed-time series shaped like the paper's Fig. 9
/// curves (sublinear power-law compute scaling plus growing overhead,
/// which neither USL nor the unified model reproduces). A perfectly
/// linear curve must resolve deterministically to Amdahl via the
/// registry-order tie-break (every model fits it exactly).
bool run_zoo_contract() {
  using namespace ipso;
  std::printf("\n# model zoo: serve-protocol compare on synthetic "
              "curves\n");
  serve::ServeEngine engine;
  bool ok = true;

  const auto series_field = [](const stats::Series& s) {
    std::string out = "\"observations\":[";
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i) out += ",";
      out += "[";
      out += trace::json_double(s[i].x) + "," + trace::json_double(s[i].y) +
             "]";
    }
    return out + "]";
  };
  const std::vector<double> ns{1, 2, 4, 8, 16, 24, 32, 48, 64};

  // Contention-shaped q(n): exactly USL's sigma*(n-1) + kappa*n*(n-1).
  {
    stats::Series s("S(n)");
    const double sigma = 0.05, kappa = 0.002;
    for (const double n : ns) {
      s.add(n, n / (1.0 + sigma * (n - 1.0) + kappa * n * (n - 1.0)));
    }
    ok = zoo_selects(engine, "contention q(n)",
                     "{\"op\":\"compare\",\"workload\":\"fixed-size\"," +
                         series_field(s) + "}",
                     "usl") &&
         ok;
  }

  // Fig. 9-shaped fixed-time curve: IPSO Eq. 16 with a sublinear compute
  // exponent and a growing overhead term (eta=0.95, delta=0.5,
  // beta=0.005, gamma=1.3).
  {
    stats::Series s("S(n)");
    const double eta = 0.95, delta = 0.5, beta = 0.005, gamma = 1.3;
    for (const double n : ns) {
      const double num = eta * std::pow(n, delta) + 1.0 - eta;
      const double den =
          eta * std::pow(n, delta - 1.0) * (1.0 + beta * std::pow(n, gamma)) +
          1.0 - eta;
      s.add(n, num / den);
    }
    ok = zoo_selects(engine, "fig9 fixed-time Eq.16",
                     "{\"op\":\"compare\",\"workload\":\"fixed-time\","
                     "\"eta\":0.95," +
                         series_field(s) + "}",
                     "ipso") &&
         ok;
  }

  // Perfect linear speedup: every model is exact; registry order decides.
  {
    stats::Series s("S(n)");
    for (const double n : {1.0, 2.0, 4.0, 8.0, 16.0}) s.add(n, n);
    ok = zoo_selects(engine, "linear speedup (tie)",
                     "{\"op\":\"compare\",\"workload\":\"fixed-size\"," +
                         series_field(s) + "}",
                     "amdahl") &&
         ok;
  }

  if (ok) {
    std::printf("C11: zoo selection is shape-driven (usl on contention, "
                "ipso on Eq. 16, amdahl on the exact tie)\n");
  }
  return ok;
}

/// The --router mode: sweep, C7 byte-identity, C8 IPSO fit of the tier.
int run_router_bench(int argc, char** argv) {
  using namespace ipso;

  const std::size_t total =
      size_flag(argc, argv, "--router-requests", 2400, 64);
  const int points =
      static_cast<int>(size_flag(argc, argv, "--router-points", 96, 8));
  const std::size_t keys = size_flag(argc, argv, "--router-keys", 48, 4);
  const double skew = trace::flag_or_die(
      kProgram,
      trace::double_flag_from_args(argc, argv, "--zipf", 1.2, 0.0,
                                   std::numeric_limits<double>::max()));
  const std::vector<std::size_t> replica_axis =
      list_flag(argc, argv, "--router-replicas", {1, 2, 3});
  const std::size_t conns = size_flag(argc, argv, "--router-conns", 4, 1);
  const std::size_t batch = size_flag(argc, argv, "--router-batch", 16, 1);
  const std::vector<std::string> placements = {"hash", "range", "affinity"};

  std::printf("# bench_serve_load --router: %zu requests over %zu keys "
              "(zipf %.2f), %d observations per series, %zu conns x "
              "batch %zu\n\n",
              total, keys, skew, points, conns, batch);

  std::vector<std::string> keyspace;
  keyspace.reserve(keys);
  for (std::size_t k = 0; k < keys; ++k) {
    keyspace.push_back(fit_request(static_cast<int>(k), points));
  }
  const std::vector<std::size_t> schedule =
      zipf_schedule(total, keys, skew, 0x1b50u);

  bool ok = true;

  // --- C7: the tier is invisible -------------------------------------
  std::printf("byte-identity: 3 replicas x {hash, range, affinity} x "
              "{json, binary} vs a standalone engine\n");
  if (run_router_identity(placements, std::min(points, 64))) {
    std::printf("C7: every routed response byte-identical to single-node\n");
  } else {
    std::printf("CONTRACT VIOLATION (C7): routed responses diverge from a "
                "standalone engine\n");
    ok = false;
  }

  // --- throughput sweep + C8 fit ------------------------------------
  std::printf("\n%-10s %9s %12s %10s\n", "placement", "replicas", "req/s",
              "requests");
  for (const std::string& placement : placements) {
    stats::Series q("q(n)");
    stats::Series ex("EX(n)");
    double t1 = 0.0;
    bool cells_ok = true;
    for (const std::size_t n : replica_axis) {
      const NetCell cell =
          run_router_cell(placement, n, keyspace, schedule, conns, batch);
      std::printf("%-10s %9zu %12.1f %10zu%s\n", placement.c_str(), n,
                  cell.reqs_per_s, cell.requests, cell.ok ? "" : "  FAILED");
      if (!cell.ok || cell.reqs_per_s <= 0.0) {
        cells_ok = false;
        continue;
      }
      if (n == replica_axis.front()) t1 = cell.reqs_per_s;
      if (t1 > 0.0) {
        const double nn = static_cast<double>(n);
        const double speedup = cell.reqs_per_s / t1;
        ex.add(nn, 1.0);
        q.add(nn, speedup > 0.0 ? nn / speedup - 1.0 : 0.0);
      }
    }
    if (!cells_ok || q.size() < replica_axis.size()) {
      std::printf("CONTRACT VIOLATION (C8): %s sweep produced no usable "
                  "throughput curve\n", placement.c_str());
      ok = false;
      continue;
    }

    // The tier itself is a fixed-size IPSO workload: the request stream is
    // constant while n grows, all added cost is scale-out-induced, so the
    // whole curve lands in the q(n) = beta*n^gamma term (delta = 0 by
    // construction for fixed-size — exactly the paper's Section IV).
    FactorMeasurements m;
    m.eta = 1.0;
    m.ex = ex;
    m.q = q;
    const Expected<FactorFits> fits =
        fit_factors(WorkloadType::kFixedSize, m);
    if (!fits.has_value()) {
      std::printf("CONTRACT VIOLATION (C8): fit_factors failed for %s "
                  "(%s)\n", placement.c_str(), to_string(fits.error()));
      ok = false;
      continue;
    }
    const Classification cls = classify(fits->params);
    std::printf("  IPSO fit [%s]: delta=%.3f gamma=%.3f beta=%.3f "
                "class=%.*s\n",
                placement.c_str(), fits->params.delta, fits->params.gamma,
                fits->params.beta,
                static_cast<int>(to_string(cls.type).size()),
                to_string(cls.type).data());
    // Gunther's USL on the same q(n) series, now through the model zoo's
    // shared implementation (src/models/usl.h) instead of a bench-local
    // copy of the normal equations.
    if (const auto usl = models::UslModel::fit_from_q(q); usl.has_value()) {
      std::printf("  USL cross-check [%s]: sigma=%.3f kappa=%.3f (same "
                  "q(n) series)\n",
                  placement.c_str(), usl->sigma, usl->kappa);
    } else {
      std::printf("  USL cross-check [%s]: degenerate series (%s)\n",
                  placement.c_str(), to_string(usl.error()));
    }
  }
  if (ok) {
    std::printf("\nC8: fit_factors succeeded on every placement's "
                "throughput curve\n");
  }

  const double rss = peak_rss_mib();
  std::printf("peak RSS: %.1f MiB\n", rss);
  if (rss > 512.0) {
    std::printf("CONTRACT VIOLATION (C4): peak RSS %.1f MiB exceeds the "
                "512 MiB ceiling\n", rss);
    ok = false;
  }

  std::printf("\n%s\n", ok ? "all serving contracts hold"
                           : "SERVING CONTRACT VIOLATIONS -- see above");
  return ok ? 0 : 1;
}

/// The warm-restart phase: one engine fits the corpus cold into a
/// persistent store directory and drains (flushing the warm set); a second
/// engine on the same directory replays the corpus. Enforces C9 (warm
/// responses byte-identical, zero fits performed) and C10 (a flipped byte
/// in a persisted segment is skipped with a counter and re-fit, never a
/// crash or a wrong answer). Returns false on contract violation.
bool run_store_phase(const std::vector<std::string>& workload,
                     std::size_t threads, std::string store_dir) {
  namespace fs = std::filesystem;
  using namespace ipso;

  bool own_dir = false;
  if (store_dir.empty()) {
    std::string tmpl =
        (fs::temp_directory_path() / "bench_store_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::printf("store: mkdtemp failed; skipping warm-restart phase\n");
      return true;
    }
    store_dir = tmpl;
    own_dir = true;
  }

  std::printf("\n# warm restart: persistent fit store at %s\n",
              store_dir.c_str());

  serve::ServeConfig cfg;
  cfg.threads = threads;
  cfg.cache_capacity = workload.size();
  cfg.store_dir = store_dir;

  bool ok = true;
  PhaseResult cold;
  {
    serve::ServeEngine engine(cfg);
    if (!engine.store_status()) {
      std::printf("CONTRACT VIOLATION (C9): store failed to open: %s\n",
                  engine.store_status().message.c_str());
      return false;
    }
    cold = run_phase(engine, workload);
    engine.drain();  // the SIGTERM path: flushes the warm set to disk
  }

  PhaseResult warm;
  std::size_t warm_fits = 0, disk_hits = 0, recovered = 0;
  {
    serve::ServeEngine engine(cfg);
    recovered = engine.store_stats().disk.records;
    warm = run_phase(engine, workload);
    warm_fits = engine.fits_performed();
    disk_hits = engine.store_stats().tier.disk_hits;
  }
  print_phase("cold-start", cold);
  print_phase("warm-start", warm);
  const double cold_p50 = percentile(cold.latencies_ms, 0.50);
  const double warm_p50 = percentile(warm.latencies_ms, 0.50);
  std::printf("\nwarm-restart fit latency: cold p50 %.3f ms vs warm p50 "
              "%.3f ms (%.1fx); recovered=%zu disk_hits=%zu\n",
              cold_p50, warm_p50, warm_p50 > 0 ? cold_p50 / warm_p50 : 1e9,
              recovered, disk_hits);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    if (cold.responses[i] != warm.responses[i]) ++mismatches;
  }
  if (mismatches != 0 || warm_fits != 0) {
    std::printf("CONTRACT VIOLATION (C9): warm restart must serve "
                "byte-identical responses without re-fitting "
                "(mismatches=%zu fits_performed=%zu)\n",
                mismatches, warm_fits);
    ok = false;
  } else {
    std::printf("C9: %zu/%zu warm responses byte-identical, 0 fits "
                "performed after restart\n",
                workload.size(), workload.size());
  }

  // --- C10: flip one persisted byte, restart, expect a graceful skip ---
  std::string victim;
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    if (entry.path().extension() == ".seg" &&
        (victim.empty() || entry.path().string() < victim)) {
      victim = entry.path().string();
    }
  }
  std::string img;
  if (!victim.empty()) {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    img = os.str();
  }
  // Past the segment header and the first record's header: lands in the
  // first record's key/value bytes, which its checksum covers.
  const std::size_t corrupt_at =
      store::kSegmentHeaderBytes + store::kRecordHeaderBytes + 48;
  if (img.size() <= corrupt_at) {
    std::printf("CONTRACT VIOLATION (C10): no persisted segment large "
                "enough to corrupt\n");
    ok = false;
  } else {
    img[corrupt_at] = static_cast<char>(img[corrupt_at] ^ 0x20);
    std::ofstream(victim, std::ios::binary | std::ios::trunc)
        .write(img.data(), static_cast<std::streamsize>(img.size()));

    serve::ServeEngine engine(cfg);
    const std::size_t skipped = engine.store_stats().disk.skipped_total();
    const PhaseResult replay = run_phase(engine, workload);
    std::size_t replay_mismatches = 0;
    for (std::size_t i = 0; i < workload.size(); ++i) {
      if (cold.responses[i] != replay.responses[i]) ++replay_mismatches;
    }
    const std::size_t refits = engine.fits_performed();
    if (skipped == 0 || refits == 0 || replay_mismatches != 0) {
      std::printf("CONTRACT VIOLATION (C10): corrupted record must be "
                  "skipped (skipped=%zu), re-fit (re-fits=%zu), and still "
                  "answered byte-identically (mismatches=%zu)\n",
                  skipped, refits, replay_mismatches);
      ok = false;
    } else {
      std::printf("C10: corruption skipped gracefully (skipped=%zu "
                  "re-fits=%zu, all %zu responses still byte-identical)\n",
                  skipped, refits, workload.size());
    }
  }

  if (own_dir) {
    std::error_code ec;
    fs::remove_all(store_dir, ec);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ipso;

  if (trace::handle_info_flags(
          argc, argv,
          "bench_serve_load: closed-loop load generator for ipso::serve\n"
          "(cold/hot/saturation phases; enforces the cache-speedup,\n"
          "byte-identity, and bounded-backpressure contracts; plus a\n"
          "socket sweep of connections x batch x protocol over the epoll\n"
          "front end). --router switches to the sharded-tier sweep:\n"
          "replicas x placement x Zipf key skew through an in-process\n"
          "Router, with the tier's own throughput curve fitted by\n"
          "fit_factors (C7 byte-identity, C8 successful IPSO fit).\n"
          "A warm-restart phase persists fits to a store dir, restarts,\n"
          "and replays (C9 byte-identical warm serving without re-fits,\n"
          "C10 graceful skip of corrupted records). A model-zoo phase\n"
          "drives the compare op on synthetic curves (C11 shape-driven\n"
          "selection: usl on contention, ipso on Eq. 16, amdahl on the\n"
          "exact tie).\n"
          "Extra flags: --requests N, --points N, --conns LIST,\n"
          "--batch LIST, --net-requests N, --no-net, --store-dir DIR,\n"
          "--no-store, --router,\n"
          "--router-requests N, --router-points N, --router-keys N,\n"
          "--router-replicas LIST, --router-conns N, --router-batch N,\n"
          "--zipf S")) {
    return 0;
  }

  obs::TraceSession trace_session(trace::trace_out_from_args(argc, argv));
  if (trace::has_flag(argc, argv, "--router")) {
    return run_router_bench(argc, argv);
  }
  // Default shape: few distinct fits, each over a long observation trace.
  // The changepoint search is O(points^2) while request parsing is
  // O(points), so large traces are exactly the workload the fit cache is
  // built to amortize.
  const int requests =
      static_cast<int>(size_flag(argc, argv, "--requests", 20, 8));
  const int points =
      static_cast<int>(size_flag(argc, argv, "--points", 4096, 8));
  std::vector<std::size_t> conns_axis =
      list_flag(argc, argv, "--conns", {1, 16, 256, 1024});
  const std::vector<std::size_t> batch_axis =
      list_flag(argc, argv, "--batch", {1, 16, 64});
  const std::size_t net_requests =
      size_flag(argc, argv, "--net-requests", 16384, 1);
  const std::string store_dir = trace::flag_or_die(
      kProgram, trace::string_flag_from_args(argc, argv, "--store-dir", ""));
  const std::size_t threads =
      trace::runner_config_from_args(argc, argv).threads;

  std::printf("# bench_serve_load: %d distinct fits, %d observations per "
              "factor series, threads=%zu\n\n",
              requests, points, threads);

  std::vector<std::string> workload;
  workload.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    workload.push_back(fit_request(i, points));
  }

  bool ok = true;

  // --- cold vs hot: the fit cache -------------------------------------
  serve::ServeConfig cfg;
  cfg.threads = threads;
  cfg.cache_capacity = static_cast<std::size_t>(requests);
  {
    serve::ServeEngine engine(cfg);
    const PhaseResult cold = run_phase(engine, workload);
    const PhaseResult hot = run_phase(engine, workload);
    print_phase("cold", cold);
    print_phase("hot", hot);

    const double cold_p50 = percentile(cold.latencies_ms, 0.50);
    const double hot_p50 = percentile(hot.latencies_ms, 0.50);
    const double speedup = hot_p50 > 0 ? cold_p50 / hot_p50 : 1e9;
    std::printf("\ncache speedup (cold p50 / hot p50): %.1fx\n", speedup);
    if (speedup < 10.0) {
      std::printf("CONTRACT VIOLATION (C1): cached fits only %.1fx faster "
                  "than cold (need >= 10x)\n", speedup);
      ok = false;
    }

    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cold.responses.size(); ++i) {
      if (cold.responses[i] != hot.responses[i]) ++mismatches;
    }
    if (mismatches) {
      std::printf("CONTRACT VIOLATION (C2): %zu/%zu cached responses differ "
                  "from their cold counterparts\n",
                  mismatches, cold.responses.size());
      ok = false;
    } else {
      std::printf("byte-identity: %zu/%zu hot responses identical to cold\n",
                  cold.responses.size(), cold.responses.size());
    }

    const store::CacheStats c = engine.store_stats().cache;
    std::printf("cache: hits=%zu misses=%zu (fits performed: %zu)\n",
                c.hits, c.misses, engine.fits_performed());
  }

  // --- warm restart: the persistent tier ------------------------------
  if (!trace::has_flag(argc, argv, "--no-store")) {
    if (!run_store_phase(workload, threads, store_dir)) ok = false;
  }

  // --- model zoo: C11 shape-driven selection --------------------------
  if (!run_zoo_contract()) ok = false;

  // --- saturation: bounded admission ----------------------------------
  std::printf("\n");
  serve::ServeConfig sat_cfg;
  sat_cfg.threads = threads;
  sat_cfg.queue_capacity = 8;
  sat_cfg.cache_capacity = 4;
  {
    serve::ServeEngine engine(sat_cfg);
    // Open-loop burst: fire every request without waiting, far beyond the
    // queue capacity, then collect.
    std::vector<std::future<std::string>> inflight;
    inflight.reserve(workload.size());
    const Clock::time_point start = Clock::now();
    for (const std::string& req : workload) {
      inflight.push_back(engine.submit(req));
    }
    std::size_t answered = 0, overloaded = 0;
    for (auto& f : inflight) {
      const std::string response = f.get();
      ++answered;
      if (response.find("\"error\":\"overloaded\"") != std::string::npos) {
        ++overloaded;
      }
    }
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const serve::ServeStats s = engine.stats();
    std::printf("saturation   %6zu req  %8.1f req/s  answered=%zu "
                "overloaded=%zu peak_queue=%zu (cap %zu)\n",
                inflight.size(), elapsed > 0 ? answered / elapsed : 0.0,
                answered, overloaded, s.peak_queue_depth,
                sat_cfg.queue_capacity);
    if (overloaded == 0) {
      std::printf("CONTRACT VIOLATION (C3): burst of %zu over capacity %zu "
                  "produced no overloaded rejections\n",
                  inflight.size(), sat_cfg.queue_capacity);
      ok = false;
    }
    if (s.peak_queue_depth > sat_cfg.queue_capacity) {
      std::printf("CONTRACT VIOLATION (C3): peak queue depth %zu exceeds "
                  "capacity %zu\n",
                  s.peak_queue_depth, sat_cfg.queue_capacity);
      ok = false;
    }
  }

  // --- socket sweep: connections x batch x protocol -------------------
  if (!trace::has_flag(argc, argv, "--no-net")) {
    const std::size_t max_conns =
        *std::max_element(conns_axis.begin(), conns_axis.end());
    const std::size_t fd_limit = raise_fd_limit(2 * max_conns + 256);
    if (fd_limit < 2 * max_conns + 64) {
      // Both socket ends live in this process; drop cells the fd budget
      // cannot hold rather than fail on EMFILE mid-sweep.
      std::vector<std::size_t> kept;
      for (std::size_t c : conns_axis) {
        if (2 * c + 64 <= fd_limit) kept.push_back(c);
      }
      std::printf("\nnet: fd limit %zu; dropping connection counts above "
                  "%zu\n", fd_limit, (fd_limit - 64) / 2);
      conns_axis = kept;
    }

    std::printf("\n# socket sweep: closed-loop pings over the epoll front "
                "end (req/s; batch >= 16 cells: median of %d runs)\n",
                kC6Pairs);
    std::printf("%-8s %8s %8s %12s %10s\n", "proto", "conns", "batch",
                "req/s", "requests");

    double json_batched = 0.0, binary_batched = 0.0;
    bool c5_held = conns_axis.empty();  // vacuous only if sweep is empty
    const std::size_t c5_conns =
        conns_axis.empty()
            ? 0
            : *std::max_element(conns_axis.begin(), conns_axis.end());
    for (const std::size_t conns : conns_axis) {
      for (const std::size_t batch : batch_axis) {
        // C6 compares the protocols on the batch >= 16 cells, so each of
        // those runs as kC6Pairs json/binary pairs, alternating which
        // protocol goes first: one noisy run on a loaded host cannot
        // decide the contract, and neither protocol always runs warm.
        const int pairs = batch >= 16 ? kC6Pairs : 1;
        std::array<std::vector<NetCell>, 2> runs;  // [json, binary]
        for (int pair = 0; pair < pairs; ++pair) {
          const bool binary_first = pair % 2 == 1;
          for (const bool binary : {binary_first, !binary_first}) {
            runs[binary].push_back(run_net_cell(
                binary ? serve::Proto::kBinary : serve::Proto::kJson, conns,
                batch, net_requests, threads));
          }
        }
        for (const bool binary : {false, true}) {
          std::vector<NetCell>& cells = runs[binary];
          const serve::Proto proto =
              binary ? serve::Proto::kBinary : serve::Proto::kJson;
          const bool cell_ok =
              std::all_of(cells.begin(), cells.end(),
                          [](const NetCell& c) { return c.ok; });
          std::sort(cells.begin(), cells.end(),
                    [](const NetCell& a, const NetCell& b) {
                      return a.reqs_per_s < b.reqs_per_s;
                    });
          const NetCell& median = cells[cells.size() / 2];
          std::printf("%-8s %8zu %8zu %12.1f %10zu%s\n",
                      serve::to_string(proto), conns, batch,
                      median.reqs_per_s, median.requests,
                      cell_ok ? "" : "  FAILED");
          if (!cell_ok) ok = false;
          if (batch >= 16) {
            (binary ? binary_batched : json_batched) += median.reqs_per_s;
          }
          if (binary && conns == c5_conns && cell_ok) c5_held = true;
        }
      }
    }

    if (!c5_held) {
      std::printf("CONTRACT VIOLATION (C5): binary protocol failed to "
                  "sustain %zu concurrent connections\n", c5_conns);
      ok = false;
    } else if (c5_conns > 0) {
      std::printf("\nC5: binary protocol sustained %zu concurrent "
                  "connections with every response correct\n", c5_conns);
    }
    if (binary_batched > 0.0 || json_batched > 0.0) {
      std::printf("C6: summed per-cell median req/s at batch >= 16: "
                  "binary %.1f vs json %.1f (%.2fx)\n",
                  binary_batched, json_batched,
                  json_batched > 0 ? binary_batched / json_batched : 0.0);
      if (binary_batched <= json_batched) {
        std::printf("CONTRACT VIOLATION (C6): binary batched protocol "
                    "does not beat JSON lines at batch >= 16\n");
        ok = false;
      }
    }
  }

  print_mutex_profile();

  const double rss = peak_rss_mib();
  std::printf("peak RSS: %.1f MiB\n", rss);
  if (rss > 512.0) {
    std::printf("CONTRACT VIOLATION (C4): peak RSS %.1f MiB exceeds the "
                "512 MiB ceiling\n", rss);
    ok = false;
  }

  std::printf("\n%s\n", ok ? "all serving contracts hold"
                           : "SERVING CONTRACT VIOLATIONS -- see above");
  return ok ? 0 : 1;
}
