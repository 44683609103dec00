#include "serve/router.h"

#include "store/tiered_store.h"

#include <sstream>
#include <utility>

namespace ipso::serve {

Router::Router(RouterConfig cfg)
    : cfg_(std::move(cfg)),
      loop_(
          [this](std::string record, std::function<void(std::string)> done) {
            route(std::move(record), std::move(done));
          },
          cfg_) {
  if (cfg_.connections_per_replica == 0) cfg_.connections_per_replica = 1;
  if (cfg_.max_upstream_batch == 0) cfg_.max_upstream_batch = 1;
}

Router::~Router() { shutdown(); }

Expected<bool, NetError> Router::start() {
  if (cfg_.replicas.empty()) {
    return NetError{"router needs at least one replica endpoint"};
  }
  placement_ = make_placement(cfg_.placement, cfg_.replicas.size());
  if (!placement_) {
    return NetError{"unknown placement '" + cfg_.placement +
                    "' (expected hash, range, or affinity)"};
  }
  {
    sync::MutexLock lock(stats_mu_);
    stats_.per_replica.assign(cfg_.replicas.size(), 0);
  }
  conn_cursor_.clear();
  for (std::size_t r = 0; r < cfg_.replicas.size(); ++r) {
    conn_cursor_.push_back(std::make_unique<std::atomic<std::size_t>>(0));
    for (std::size_t c = 0; c < cfg_.connections_per_replica; ++c) {
      auto up = std::make_unique<Upstream>();
      up->replica = r;
      upstreams_.push_back(std::move(up));
    }
  }
  for (auto& up : upstreams_) {
    up->worker = std::thread([this, raw = up.get()] { upstream_loop(*raw); });
  }
  auto started = loop_.start();
  if (!started.has_value()) {
    for (auto& up : upstreams_) {
      {
        sync::MutexLock lock(up->mu);
        up->stop = true;
      }
      up->cv.notify_all();
      if (up->worker.joinable()) up->worker.join();
    }
    upstreams_.clear();
    return started.error();
  }
  started_ = true;
  return true;
}

void Router::shutdown() {
  if (shut_down_.exchange(true)) return;
  // Mirror TcpServer::shutdown(): stop intake first so the set of pending
  // upstream records is final, answer all of them (workers drain their
  // queues before exiting), then flush and close the front end.
  loop_.begin_drain();
  stopping_.store(true, std::memory_order_release);
  for (auto& up : upstreams_) {
    {
      sync::MutexLock lock(up->mu);
      up->stop = true;
    }
    up->cv.notify_all();
  }
  for (auto& up : upstreams_) {
    if (up->worker.joinable()) up->worker.join();
  }
  loop_.finish();
}

const char* Router::placement_name() const noexcept {
  return placement_ ? placement_->name() : cfg_.placement.c_str();
}

RouterStats Router::stats() const {
  sync::MutexLock lock(stats_mu_);
  return stats_;
}

void Router::route(std::string record,
                   std::function<void(std::string)> done) {
  {
    sync::MutexLock lock(stats_mu_);
    ++stats_.received;
  }

  // Parse locally only to route; the record itself is forwarded verbatim so
  // a replica sees exactly the bytes a directly-connected client would have
  // sent and produces byte-identical responses.
  auto parsed = parse_request(record);
  if (!parsed.has_value()) {
    // Unparseable records round-robin like other keyless traffic: the
    // replica's parse_error response matches a single node's bytes (the
    // router deliberately does not answer parse errors itself, so error
    // text never forks between tiers).
    if (stopping_.load(std::memory_order_acquire)) {
      {
        sync::MutexLock lock(stats_mu_);
        ++stats_.rejected_draining;
      }
      done(error_response({}, Op::kUnknown, "parse_error", parsed.error()));
      return;
    }
  } else if (parsed->op == Op::kStats) {
    // Answered locally: a single replica's counters would describe one
    // shard of the tier, not the tier.
    std::string response = local_stats_response(parsed->id);
    {
      sync::MutexLock lock(stats_mu_);
      ++stats_.answered_local;
    }
    done(std::move(response));
    return;
  } else if (stopping_.load(std::memory_order_acquire)) {
    {
      sync::MutexLock lock(stats_mu_);
      ++stats_.rejected_draining;
    }
    done(error_response(parsed->id, parsed->op, "draining",
                        "server is draining; not accepting new requests"));
    return;
  }

  std::size_t replica = 0;
  std::string id;
  Op op = Op::kUnknown;
  const bool window_keyed =
      parsed.has_value() && !parsed->workload_key.empty() &&
      (parsed->op == Op::kObserve || parsed->op == Op::kCompare);
  if (window_keyed) {
    // Observation-window traffic is sticky by workload key: every observe
    // and keyed compare for one key must land on the replica that holds
    // that key's window, or the window (and the responses derived from it)
    // would fragment across the tier. The "W:" namespace keeps these
    // placement keys disjoint from canonical fit keys, whose first byte is
    // a format version.
    replica = placement_->replica_for("W:" + parsed->workload_key);
    id = parsed->id;
    op = parsed->op;
    sync::MutexLock lock(stats_mu_);
    ++stats_.routed_keyed;
    ++stats_.per_replica[replica];
  } else if (parsed.has_value() && parsed->has_observations()) {
    // Keyed: the same canonical bytes the replica's fit cache will key on,
    // so placement and caching agree about key identity by construction.
    const std::string key = store::canonical_fit_key(
        parsed->workload, parsed->eta, parsed->ex, parsed->in, parsed->q);
    replica = placement_->replica_for(key);
    id = parsed->id;
    op = parsed->op;
    sync::MutexLock lock(stats_mu_);
    ++stats_.routed_keyed;
    ++stats_.per_replica[replica];
  } else {
    replica = round_robin_.fetch_add(1, std::memory_order_relaxed) %
              cfg_.replicas.size();
    if (parsed.has_value()) {
      id = parsed->id;
      op = parsed->op;
    }
    sync::MutexLock lock(stats_mu_);
    ++stats_.routed_keyless;
    ++stats_.per_replica[replica];
  }

  const std::size_t conn =
      conn_cursor_[replica]->fetch_add(1, std::memory_order_relaxed) %
      cfg_.connections_per_replica;
  Upstream& up = *upstreams_[replica * cfg_.connections_per_replica + conn];
  bool enqueued = false;
  {
    sync::MutexLock lock(up.mu);
    if (!up.stop) {
      up.queue.push_back(
          Upstream::Pending{std::move(record), id, op, std::move(done)});
      enqueued = true;
    }
  }
  if (enqueued) {
    up.cv.notify_one();
    return;
  }
  // The worker may already have drained and exited; answering here keeps
  // the "every record gets a response" invariant.
  {
    sync::MutexLock lock(stats_mu_);
    ++stats_.rejected_draining;
  }
  done(error_response(id, op, "draining",
                      "server is draining; not accepting new requests"));
}

void Router::upstream_loop(Upstream& up) {
  const ReplicaEndpoint& endpoint = cfg_.replicas[up.replica];
  for (;;) {
    std::vector<Upstream::Pending> batch;
    {
      sync::MutexLock lock(up.mu);
      up.cv.wait(up.mu,
                 [&]() IPSO_REQUIRES(up.mu) {
                   return up.stop || !up.queue.empty();
                 });
      if (up.queue.empty()) return;  // stop && drained
      while (!up.queue.empty() && batch.size() < cfg_.max_upstream_batch) {
        batch.push_back(std::move(up.queue.front()));
        up.queue.pop_front();
      }
    }

    bool ok = up.client.connected();
    if (!ok) {
      auto connected = up.client.connect(endpoint.host, endpoint.port);
      ok = connected.has_value();
      if (ok) {
        sync::MutexLock lock(stats_mu_);
        ++stats_.reconnects;
      }
    }
    if (ok) {
      std::vector<std::string> records;
      records.reserve(batch.size());
      for (const Upstream::Pending& p : batch) records.push_back(p.record);
      auto responses = up.client.call_batch(records);
      // A short frame can only be a server-side error frame (recv_batch
      // verifies the count otherwise); either way the positional request →
      // response match is broken, so the whole batch fails over to error
      // responses and the connection is abandoned.
      if (responses.has_value() && responses->size() == batch.size()) {
        {
          sync::MutexLock lock(stats_mu_);
          ++stats_.upstream_batches;
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch[i].done(std::move((*responses)[i]));
        }
        continue;
      }
      up.client.close();
    }

    {
      sync::MutexLock lock(stats_mu_);
      stats_.upstream_errors += batch.size();
    }
    const std::string detail = "replica " + endpoint.host + ":" +
                               std::to_string(endpoint.port) +
                               " unreachable or dropped mid-batch";
    for (Upstream::Pending& p : batch) {
      p.done(error_response(p.id, p.op, "upstream_unavailable", detail));
    }
  }
}

std::string Router::local_stats_response(const std::string& id) const {
  RouterStats s = stats();
  Request req;
  req.op = Op::kStats;
  req.id = id;
  std::ostringstream os;
  os << "{\"router\":true,\"placement\":\"" << placement_name()
     << "\",\"replicas\":" << cfg_.replicas.size()
     << ",\"connections_per_replica\":" << cfg_.connections_per_replica
     << ",\"received\":" << s.received
     << ",\"routed_keyed\":" << s.routed_keyed
     << ",\"routed_keyless\":" << s.routed_keyless
     << ",\"answered_local\":" << s.answered_local
     << ",\"rejected_draining\":" << s.rejected_draining
     << ",\"upstream_batches\":" << s.upstream_batches
     << ",\"upstream_errors\":" << s.upstream_errors
     << ",\"reconnects\":" << s.reconnects << ",\"per_replica\":[";
  for (std::size_t i = 0; i < s.per_replica.size(); ++i) {
    if (i != 0) os << ",";
    os << s.per_replica[i];
  }
  os << "]}";
  return ok_response(req, os.str());
}

}  // namespace ipso::serve
