#include "serve/server.h"

#include <utility>

namespace ipso::serve {

TcpServer::TcpServer(ServeEngine& engine, ServerConfig cfg)
    : engine_(engine),
      loop_(
          [&engine](std::string line, std::function<void(std::string)> done) {
            engine.submit_async(std::move(line), std::move(done));
          },
          cfg) {}

TcpServer::~TcpServer() { shutdown(); }

Expected<bool, NetError> TcpServer::start() { return loop_.start(); }

void TcpServer::shutdown() {
  if (shut_down_.exchange(true)) return;
  // Order matters: stop intake first so the engine drain below sees the
  // final set of admitted requests, drain so every response exists, then
  // flush and close. finish() returns only after the shard threads join.
  loop_.begin_drain();
  engine_.drain();
  loop_.finish();
}

}  // namespace ipso::serve
