// The emulator as a network service (the way DevOps tooling consumes
// LocalStack): any CloudBackend behind a small JSON-over-HTTP protocol.
//
//   POST /invoke    {"Action": "CreateVpc", "Params": {"cidr_block": "..."}}
//     -> 200 {"Data": {...}}                     on success
//     -> 400 {"Error": {"Code": ..., "Message": ...}}  on API failure
//     -> 429 / 500 for injected throttles / InternalError (also the
//        server's answer when a handler throws)
//   GET  /health    -> {"status":"ok","backend":...,"layers":[...]}
//   GET  /metrics   -> {"total", "per_api"} from the MetricsLayer (404 when
//                      the backend stack has no metrics layer), plus
//                      "server": the front end's HttpServerStats
//   GET  /snapshot  -> full mock-cloud state
//   POST /reset     -> fresh account
//   POST /admin/snapshot -> durable snapshot + epoch rotation (404 when
//                      the endpoint runs without a data dir)
//   GET  /admin/persist  -> durability status: epoch, WAL records/bytes
//   POST /admin/tick     -> {"Ticks": N} advances the virtual clock (404
//                      unless the endpoint runs with virtual time)
//
// Cross-cutting invoke-path concerns (thread-safety, id re-tagging,
// metrics, fault injection, recording, read caching) live in lce::stack;
// the endpoint just builds a LayerStack from a StackConfig and routes HTTP
// onto it. The "layers" health field and /metrics are served whenever the
// backend IS a LayerStack (which EmulatorEndpoint guarantees).
#pragma once

#include <memory>
#include <string>

#include "common/api.h"
#include "server/http.h"
#include "stack/config.h"

namespace lce::persist {
class PersistManager;
}  // namespace lce::persist

namespace lce::server {

/// Wire-format id heuristic, re-exported from the stack's validate layer
/// (ids travel as plain JSON strings and are re-tagged before dispatch).
using stack::looks_like_resource_id;

/// Translate one HTTP request into a backend call (exposed separately so
/// tests can exercise routing without sockets). When `backend` is a
/// stack::LayerStack the chain-aware endpoints (/metrics, the /health
/// "layers" field) light up. `persist` (may be null) serves the
/// /admin/snapshot and /admin/persist durability routes. `server` (may be
/// null) adds the front-end counters — accepted connections, keep-alive
/// reuses, reaps, rejections, internal errors — under "server" in the
/// /metrics body. `virtual_time` lights up
/// POST /admin/tick ({"Ticks": N}, default 1), which pushes an
/// _AdvanceClock call through the stack so the journal logs the advance
/// like any other write.
HttpResponse handle_emulator_request(CloudBackend& backend, const HttpRequest& req,
                                     persist::PersistManager* persist = nullptr,
                                     const HttpServer* server = nullptr,
                                     bool virtual_time = false);

/// A running emulator endpoint; owns the server thread and the layer stack
/// built around the backend (default: serialize + validate + metrics), not
/// the backend itself.
class EmulatorEndpoint {
 public:
  /// `persist` (optional, caller-owned, must outlive the endpoint) makes
  /// the endpoint durable: a JournalLayer is installed in the stack (the
  /// config's journal hook is overwritten) and the /admin routes light up.
  /// `http` tunes the serving front end (io threads, idle timeout,
  /// per-connection request cap, parser limits). `virtual_time` lights
  /// up POST /admin/tick (the CLI wires it from --virtual-time).
  explicit EmulatorEndpoint(CloudBackend& backend, stack::StackConfig config = {},
                            persist::PersistManager* persist = nullptr,
                            HttpServerOptions http = {},
                            bool virtual_time = false);

  /// Bind and serve; returns the port (0 = failure).
  std::uint16_t start(std::uint16_t port = 0);
  void stop();
  std::uint16_t port() const { return server_.port(); }

  /// The layer stack requests flow through (for pulling metrics, recorded
  /// traces, or fault counters out of a live endpoint).
  stack::LayerStack& stack() { return stack_; }

  /// Front-end counters (also served under "server" in /metrics).
  HttpServerStats server_stats() const { return server_.stats(); }
  int io_threads() const { return server_.io_threads(); }

 private:
  stack::LayerStack stack_;
  persist::PersistManager* persist_;
  bool virtual_time_;
  HttpServer server_;
};

/// Client-side helper: invoke an action over HTTP and decode the reply
/// into an ApiResponse (for driving a remote emulator from tests). Opens
/// a fresh Connection: close socket per call.
ApiResponse invoke_over_http(std::uint16_t port, const std::string& action,
                             const Value::Map& params);

/// Same decode over a persistent keep-alive client — the load generator's
/// fast path, where one TCP connection carries the whole request stream.
ApiResponse invoke_over_client(HttpClient& client, const std::string& action,
                               const Value::Map& params, bool keep_alive = true);

/// Pipelining split of invoke_over_client: queue the invoke without
/// waiting, then collect replies in order. The load generator keeps a
/// window of these in flight per connection so the server's corked
/// single-write drain actually gets bursts to cork.
bool send_invoke(HttpClient& client, const std::string& action,
                 const Value::Map& params, bool keep_alive = true);
ApiResponse read_invoke_response(HttpClient& client);

}  // namespace lce::server
