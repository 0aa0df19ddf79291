// A deliberately small HTTP/1.1 implementation over loopback TCP — enough
// to serve the emulator the way LocalStack serves DevOps tools, with no
// external dependencies. The server is a multi-threaded epoll event loop
// (DESIGN.md "Serving front end"): N io threads each own an epoll
// instance, accepted connections are distributed across them, and each
// connection runs an incremental parser state machine, so keep-alive
// clients pay one TCP handshake for thousands of requests. Content-Length
// framing only.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace lce::server {

struct HttpRequest {
  std::string method;  // "GET" / "POST"
  std::string path;    // "/invoke"
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
  int version_minor = 1;  // HTTP/1.0 vs 1.1 (keep-alive default differs)
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::string body;
};

/// Borrowed view of one parsed request: method/path/header/body views point
/// into the connection parser's input buffer and stay valid only until the
/// parser's next feed()/reset() (DESIGN.md "Wire fast path"). Header names
/// are lower-cased (in place in the buffer); pairs keep arrival order. The
/// vector is the only owning member, so a reused RequestView parses with
/// zero allocations once its capacity has warmed up.
struct RequestView {
  std::string_view method;
  std::string_view path;
  std::string_view body;
  std::vector<std::pair<std::string_view, std::string_view>> headers;
  int version_minor = 1;

  /// Last occurrence wins, matching the historical map's duplicate-header
  /// overwrite; nullptr when absent (distinct from present-but-empty).
  const std::string_view* find_header(std::string_view name) const {
    const std::string_view* found = nullptr;
    for (const auto& [k, v] : headers) {
      if (k == name) found = &v;
    }
    return found;
  }
};

/// Renders one response directly into a connection's reusable output
/// buffer: head in place, body appended behind it, Content-Length
/// backpatched to minimal digits in finish(). The digit field is reserved
/// at the connection's predicted width (`cl_width_hint`, fed back after
/// every response), so a steady stream of similar-sized responses patches
/// the digits in place without moving a single byte. Byte-identical to
/// serialize_http_response for the header sets the service emits (none, or
/// exactly content-type: application/json) — pinned by the differential
/// suite.
class ResponseWriter {
 public:
  ResponseWriter(std::string& out, int& cl_width_hint)
      : out_(out), hint_(cl_width_hint) {}

  /// Emit the head. `json_body` adds the content-type header. Call once,
  /// then append the body to body(), then finish().
  void begin(int status, bool keep_alive, bool json_body);
  /// The buffer to append body bytes to; valid between begin() and finish().
  std::string& body() { return out_; }
  void finish();

 private:
  std::string& out_;
  int& hint_;
  std::size_t cl_pos_ = 0;   // offset of the first Content-Length digit
  std::size_t body_pos_ = 0; // offset of the first body byte
  int reserved_ = 0;         // digits reserved at begin()
};

/// Parse a full HTTP/1.1 request out of `raw` (headers + body). Returns
/// nullopt on malformed input or when the body is shorter than
/// Content-Length (callers accumulate and retry). One-shot convenience
/// over HttpParser (server/http_parser.h), which is the incremental form
/// the event loop uses.
std::optional<HttpRequest> parse_http_request(const std::string& raw);

/// Serialize a response with Content-Length and a Connection header
/// matching `keep_alive`. The one-argument form closes (the historical
/// contract every one-shot caller relies on).
std::string serialize_http_response(const HttpResponse& resp, bool keep_alive);
std::string serialize_http_response(const HttpResponse& resp);

/// Reason phrase for the handful of statuses the service uses.
std::string_view status_text(int status);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Zero-copy handler form: reads the borrowed request, renders the
/// response through the writer (begin/body/finish). `keep_alive` is the
/// server's verdict (client wish ∩ server policy) and must be passed to
/// ResponseWriter::begin unchanged.
using WireHandler = std::function<void(const RequestView&, bool keep_alive,
                                       ResponseWriter&)>;

struct HttpServerOptions {
  /// Event-loop threads; 0 = one per core, capped at 8.
  int io_threads = 0;
  /// A connection is reaped when no REQUEST COMPLETES on it for this long
  /// — receiving bytes does not extend the deadline, so both silent and
  /// one-byte-per-interval slow-loris connections die on schedule while
  /// genuinely idle keep-alive connections get the full window. 0 = never.
  int idle_timeout_ms = 30000;
  /// Close (Connection: close on the final response) after this many
  /// requests on one connection; 0 = unlimited.
  int max_requests_per_conn = 0;
  /// Parser limits: oversized headers draw 431, oversized bodies 413.
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 16 * 1024 * 1024;
  /// Serve through the zero-copy wire path (borrowed request views, arena
  /// JSON decode, single-buffer rendering) when the service installed a
  /// wire handler. Off (`--no-wire-fastpath`) falls back to the heap
  /// HttpRequest/HttpResponse path — the byte-identical reference.
  bool wire_fastpath = true;
};

/// Monotonic counters for the life of the server (across start/stop
/// cycles). Exposed under "server" in the endpoint's /metrics.
struct HttpServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_served = 0;
  /// Requests beyond the first on their connection — the keep-alive win.
  std::uint64_t keepalive_reuses = 0;
  std::uint64_t idle_reaped = 0;
  std::uint64_t rejected_400 = 0;
  std::uint64_t rejected_413 = 0;
  std::uint64_t rejected_431 = 0;
  /// Requests whose handler threw; each was answered 500 InternalError.
  std::uint64_t internal_errors = 0;
  /// Successful write() syscalls. A pipelined burst that corks N responses
  /// into one flush counts 1 here (what the corking tests assert). Not
  /// exported via /metrics: kernel read chunking makes it nondeterministic
  /// across runs.
  std::uint64_t write_calls = 0;
};

/// Loopback HTTP server. start() binds 127.0.0.1 (port 0 = ephemeral),
/// spawns the io threads, and returns the bound port. stop() is
/// deterministic: it closes the listen socket, wakes every event loop,
/// aborts in-flight connections, and joins — no detached threads survive.
class HttpServer {
 public:
  explicit HttpServer(HttpHandler handler, HttpServerOptions opts = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Install the zero-copy handler; served instead of the HttpHandler when
  /// opts.wire_fastpath holds. Call before start() — the event loops read
  /// it unsynchronized.
  void set_wire_handler(WireHandler handler) { wire_handler_ = std::move(handler); }

  /// Returns the bound port, or 0 on failure.
  std::uint16_t start(std::uint16_t port = 0);
  void stop();
  bool running() const { return running_.load(); }
  std::uint16_t port() const { return port_; }
  int io_threads() const { return static_cast<int>(loops_.size()); }
  HttpServerStats stats() const;

 private:
  struct Loop;

  void run_loop(Loop& loop);
  void accept_new(Loop& loop);
  void handle_conn_event(Loop& loop, int fd, std::uint32_t events);
  void reap_idle(Loop& loop);

  HttpHandler handler_;
  WireHandler wire_handler_;
  HttpServerOptions opts_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Loop>> loops_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> reused_{0};
  std::atomic<std::uint64_t> reaped_{0};
  std::atomic<std::uint64_t> rej400_{0};
  std::atomic<std::uint64_t> rej413_{0};
  std::atomic<std::uint64_t> rej431_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
  std::atomic<std::uint64_t> writes_{0};
};

/// Client side of keep-alive: one persistent loopback connection, one
/// request at a time. Reconnects transparently when the server closed the
/// previous connection (idle reap, max-requests, Connection: close), so
/// callers just see request() succeed.
class HttpClient {
 public:
  explicit HttpClient(std::uint16_t port) : port_(port) {}
  ~HttpClient() { disconnect(); }

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Send one request; with keep_alive the connection is reused for the
  /// next call. Returns nullopt on connection or protocol failure.
  std::optional<HttpResponse> request(const std::string& method, const std::string& path,
                                      const std::string& body = "",
                                      bool keep_alive = true);

  /// Pipelining split of request(): queue a request without waiting, then
  /// collect responses in order with read_response(). No transparent
  /// retry — a pipelined caller owns the failure handling (the load
  /// generator re-dials). Mixing with request() is fine as long as every
  /// sent request has been read back first.
  bool send_request(const std::string& method, const std::string& path,
                    const std::string& body = "", bool keep_alive = true);
  std::optional<HttpResponse> read_response();

  /// Dial now instead of lazily on the first request, so connection setup
  /// happens outside a measured phase. No-op when already connected.
  bool preconnect() { return ensure_connected(); }

  void disconnect();
  bool connected() const { return fd_ >= 0; }
  /// TCP connections dialed over this client's lifetime (1 = full reuse).
  int connections_opened() const { return opens_; }

 private:
  bool ensure_connected();
  std::optional<HttpResponse> read_response_internal(bool* got_bytes);

  std::uint16_t port_;
  int fd_ = -1;
  int opens_ = 0;
  /// Receive buffer: responses are consumed by advancing `inpos_` and the
  /// dead prefix is compacted periodically — front-erasing per response is
  /// quadratic at high pipelining depth.
  std::string inbuf_;
  std::size_t inpos_ = 0;
};

/// Blocking HTTP client for tests/examples: one request over a fresh
/// Connection: close socket. Returns nullopt on failure.
std::optional<HttpResponse> http_request(std::uint16_t port, const std::string& method,
                                         const std::string& path,
                                         const std::string& body = "");

}  // namespace lce::server
