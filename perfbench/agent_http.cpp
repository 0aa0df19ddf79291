// Workload agent-http (README.md): agents drive the emulator the way
// `lce serve` exposes it. Two closed-loop clients, each on one keep-alive
// connection, replay sessions (sessions.h) against an in-process
// EmulatorEndpoint with two io threads in the default serving configuration
// (validate + metrics, sharded interpreter, wire fast path). A transport
// error, a 5xx or an outcome other than the session's recorded one is a
// failed op.
//
// The endpoint accepts each connection on whichever io loop wakes first, so
// two connections dialed one after the other often share a loop. Every
// start redials the second client until the two sit on different loops
// (found with a warm-up read through ThreadProbe), so each run measures the
// same two-loop split.
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/arena.h"
#include "common/interned.h"
#include "harness.h"
#include "pipeline.h"
#include "server/http_parser.h"
#include "server/json.h"
#include "server/service.h"
#include "sessions.h"
#include "spans.h"
#include "stack/config.h"

namespace perfbench {

namespace {

using lce::ApiRequest;
using lce::ApiResponse;
using lce::Value;

constexpr std::size_t kSessionPool = 2048;
constexpr int kClients = 2;
constexpr int kIoThreads = 2;
static_assert(kClients == 2 && kIoThreads == 2, "connect_clients() splits two clients over two loops");
// Redials of the second client before a run gives up on the two-loop split.
constexpr int kMaxRedials = 64;
// Requests per client whose wire bytes the traced run keeps for the
// parser / decoder / renderer measurements.
constexpr std::size_t kCapturePerClient = 2048;
constexpr double kWindowS = 0.2;
// Set-up takes tens of milliseconds, so each scratch slot repeats it.
constexpr int kSetupReps = 3;

std::uint64_t request_fingerprint(const std::string& api, const Value::Map& args) {
  return fnv1a(lce::server::to_json(Value(args)), fnv1a(api));
}

std::string request_body(const ApiRequest& req) {
  Value::Map doc;
  doc["Action"] = Value(req.api);
  doc["Params"] = Value(req.args);
  return lce::server::to_json(Value(std::move(doc)));
}

/// Forwards every invoke. While armed it records the calling thread, which
/// is the io loop that owns the request's connection (the endpoint runs
/// handlers on the loop), so the benchmark can see which loop serves which
/// client. Disarmed, it costs one relaxed load per request.
class ThreadProbe final : public lce::CloudBackend {
 public:
  explicit ThreadProbe(lce::CloudBackend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  ApiResponse invoke(const ApiRequest& req) override {
    if (armed_.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      last_ = std::this_thread::get_id();
    }
    return inner_.invoke(req);
  }
  void reset() override { inner_.reset(); }
  bool supports(const std::string& api) const override { return inner_.supports(api); }
  Value snapshot() const override { return inner_.snapshot(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

  void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
  std::thread::id last() {
    std::lock_guard<std::mutex> lock(mu_);
    return last_;
  }

 private:
  lce::CloudBackend& inner_;
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::thread::id last_;  // guarded by mu_
};

/// Dial one keep-alive connection per client and find the io loop serving
/// each with a warm-up read. Every loop polls the listen socket with
/// EPOLLEXCLUSIVE, and the kernel wakes the first idle one, so the second
/// client is dialed while the first client's loop is busy with a pipelined
/// burst of warm-up reads, and redialed until the two loops differ. Returns
/// the redials it took; -1 when the split never came.
int connect_clients(std::uint16_t port, ThreadProbe& probe, const std::string& warmup,
                    std::vector<std::unique_ptr<lce::server::HttpClient>>& clients) {
  constexpr int kBurst = 64;
  // Only a transport failure stops the run: under --break-backend some
  // warm-ups fail on purpose, and the probe has seen their loop anyway.
  auto fail = [] {
    std::fprintf(stderr, "agent-http: no reply to a warm-up request\n");
    std::exit(1);
  };
  auto serving_loop = [&](lce::server::HttpClient& client) {
    probe.arm(true);
    auto resp = client.request("POST", "/invoke", warmup, true);
    probe.arm(false);
    if (!resp) fail();
    return probe.last();
  };
  clients.clear();
  clients.push_back(std::make_unique<lce::server::HttpClient>(port));
  clients[0]->preconnect();
  std::thread::id first = serving_loop(*clients[0]);
  int redial = 0;
  for (;; ++redial) {
    for (int i = 0; i < kBurst; ++i) {
      if (!clients[0]->send_request("POST", "/invoke", warmup, true)) fail();
    }
    auto second = std::make_unique<lce::server::HttpClient>(port);
    second->preconnect();
    for (int i = 0; i < kBurst; ++i) {
      if (!clients[0]->read_response()) fail();
    }
    bool split = serving_loop(*second) != first;
    if (split || redial == kMaxRedials) {
      clients.push_back(std::move(second));
      return split ? redial : -1;
    }
  }
}

/// The served stack of the traced endpoint, wrapped in the span
/// "stack.invoke". The request id is provisionally the request's
/// fingerprint; finish() re-keys it to the client's request id.
class FingerprintedStack final : public lce::CloudBackend {
 public:
  explicit FingerprintedStack(lce::CloudBackend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  ApiResponse invoke(const ApiRequest& req) override {
    std::uint64_t fp = request_fingerprint(req.api, req.args);
    SpanScope span("stack.invoke", fp);
    return inner_.invoke(req);
  }
  void reset() override { inner_.reset(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

 private:
  lce::CloudBackend& inner_;
};

struct Capture {
  std::uint64_t rid = 0;
  std::string request_body;
  int status = 0;
  std::string response_body;
};

struct ClientState {
  std::size_t session_seq = 0;  // sessions started by this client
  std::size_t step = 0;
  std::vector<ApiResponse> prior;
  std::uint64_t request_seq = 0;
  Histogram untraced, traced;
  std::optional<Windows> windows;  // the current untraced chunk's
  std::uint64_t attempted = 0, failed = 0;
  ClassCounts sent;
  std::string first_failure;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rid_fp;  // traced requests
  std::vector<Capture> captures;
};

/// One endpoint with its clients; only one runs at a time.
struct Served {
  std::unique_ptr<lce::server::EmulatorEndpoint> endpoint;
  std::vector<std::unique_ptr<lce::server::HttpClient>> clients;
};

class AgentHttp final : public Workload {
 public:
  void prepare(const Options& opts, Result& out) override;
  double setup_live() override;
  std::vector<double> setup_scratch() override;
  void measure(double seconds, bool traced) override;
  void finish(const Options& opts, Result& out) override;
  ThreadSplit threads() const override { return {kClients, kIoThreads, 0, 0}; }
  void describe_inputs(Result& out) override;

 private:
  void start(Served& which);
  void client_loop(int c);
  void wire_layer_metrics(Result& out);

  Options opts_;
  SessionPool pool_;
  std::string warmup_;  // body of the warm-up read

  std::unique_ptr<lce::interp::Interpreter> live_;
  std::unique_ptr<BrokenBackend> broken_;
  std::unique_ptr<ThreadProbe> probe_;
  std::unique_ptr<SpanBackend> interp_span_;
  std::optional<lce::stack::LayerStack> traced_stack_;
  std::unique_ptr<FingerprintedStack> traced_outer_;
  Served plain_, traced_;
  Served* running_ = nullptr;
  std::vector<ClientState> clients_{kClients};
  bool chunk_traced_ = false;  // the current chunk's settings, written before crew_.run()
  std::int64_t deadline_ = 0;

  std::vector<double> window_rates_;
  std::uint64_t allocs_ = 0, served_ = 0, writes_ = 0;  // untraced chunks of the plain endpoint
  std::vector<double> io_threads_used_;  // per traced chunk: io threads its requests ran on
  std::vector<int> redials_;             // per endpoint start; -1 = no split

  Crew crew_{kClients, [this](int c) { client_loop(c); }};  // last: uses everything above
};

void AgentHttp::prepare(const Options& opts, Result& out) {
  opts_ = opts;
  auto planner = build_aws_emulator();
  pool_.build(*planner, opts.seed, kSessionPool);
  warmup_ = request_body(pool_.look_request(0));
  ClassCounts mix;
  for (const Session& s : pool_.sessions()) {
    for (OpClass c : s.classes) mix.add(c);
  }
  out.note("account: the corpus replayed once, " + std::to_string(pool_.account_size()) +
           " resources; " + std::to_string(pool_.sessions().size()) + " sessions (of " +
           std::to_string(pool_.draws()) + " draws) over " + std::to_string(pool_.corpus_size()) +
           " corpus traces; session pool mix: " + mix.shares());
}

void AgentHttp::describe_inputs(Result& out) {
  std::size_t steps = 0, errors = 0;
  for (const Session& s : pool_.sessions()) {
    steps += s.steps.size();
    for (const auto& e : s.expected) errors += e.empty() ? 0 : 1;
  }
  out.note("inputs digest: " + std::to_string(fnv1a(pool_.digest_text())));
  out.set("inputs.account_resources", static_cast<double>(pool_.account_size()), "count");
  out.set("inputs.session_steps", static_cast<double>(steps), "count");
  out.set("inputs.expected_errors", static_cast<double>(errors), "count");
}

void AgentHttp::start(Served& which) {
  if (running_ == &which) return;
  if (running_ != nullptr) running_->endpoint->stop();
  running_ = &which;
  std::uint16_t port = which.endpoint->start(0);
  redials_.push_back(connect_clients(port, *probe_, warmup_, which.clients));
}

double AgentHttp::setup_live() {
  std::int64_t t0 = now_ns();
  live_ = build_aws_emulator();
  {
    SpanScope span("setup.prepopulate");
    pool_.prepopulate(*live_);
  }
  lce::CloudBackend* base = live_.get();
  if (opts_.break_backend) {
    broken_ = std::make_unique<BrokenBackend>(*live_);
    base = broken_.get();
  }
  // The probe sits first below the stack, so it sees every request's loop,
  // broken or not.
  probe_ = std::make_unique<ThreadProbe>(*base);
  lce::server::HttpServerOptions http;
  http.io_threads = kIoThreads;
  plain_.endpoint = std::make_unique<lce::server::EmulatorEndpoint>(
      *probe_, lce::stack::StackConfig{}, nullptr, http);
  start(plain_);
  double seconds = static_cast<double>(now_ns() - t0) / 1e9;

  if (opts_.trace) {
    // The same chain built from outside so each piece can carry a span:
    // stack.invoke around validate + metrics, interp.invoke around the
    // interpreter. The endpoint's own stack is left empty.
    interp_span_ = std::make_unique<SpanBackend>("interp.invoke", *probe_);
    traced_stack_.emplace(lce::stack::build_stack(*interp_span_, lce::stack::StackConfig{}));
    traced_outer_ = std::make_unique<FingerprintedStack>(*traced_stack_);
    lce::stack::StackConfig bare;
    bare.validate = false;
    bare.metrics = false;
    traced_.endpoint = std::make_unique<lce::server::EmulatorEndpoint>(*traced_outer_, bare,
                                                                        nullptr, http);
  }
  return seconds;
}

std::vector<double> AgentHttp::setup_scratch() {
  std::vector<double> out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::int64_t t0 = now_ns();
    auto scratch = build_aws_emulator();
    {
      SpanScope span("setup.prepopulate");
      pool_.prepopulate(*scratch);
    }
    ThreadProbe probe(*scratch);
    lce::server::HttpServerOptions http;
    http.io_threads = kIoThreads;
    lce::server::EmulatorEndpoint endpoint(probe, lce::stack::StackConfig{}, nullptr, http);
    std::vector<std::unique_ptr<lce::server::HttpClient>> clients;
    connect_clients(endpoint.start(0), probe, warmup_, clients);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    clients.clear();
    endpoint.stop();
  }
  return out;
}

void AgentHttp::client_loop(int c) {
  exclude_thread_from_alloc_count();
  ClientState& st = clients_[c];
  lce::server::HttpClient& client = *running_->clients[c];
  const auto& sessions = pool_.sessions();
  const bool traced = chunk_traced_;
  const std::int64_t deadline = deadline_;
  while (now_ns() < deadline) {
    const Session& s = sessions[(c + st.session_seq * kClients) % sessions.size()];
    if (st.step == 0) st.prior.assign(pool_.trace_calls(s), ApiResponse{});
    const Step& step = s.steps[st.step];
    ApiRequest req = pool_.request(s, step, st.prior);
    std::string body = request_body(req);
    std::uint64_t rid = (static_cast<std::uint64_t>(c + 1) << 48) | ++st.request_seq;
    if (traced) st.rid_fp.emplace_back(rid, request_fingerprint(req.api, req.args));

    std::optional<lce::server::HttpResponse> resp;
    std::int64_t t0 = now_ns();
    {
      SpanScope span("http.request", rid);
      resp = client.request("POST", "/invoke", body, true);
    }
    std::int64_t t1 = now_ns();
    if (traced) {
      st.traced.add(t1 - t0);
    } else {
      st.untraced.add(t1 - t0);
      st.windows->add(t1);
      st.sent.add(s.classes[st.step]);
    }
    ++st.attempted;

    ApiResponse got = ApiResponse::failure("TransportError", "no response");
    if (resp) {
      auto parsed = lce::server::parse_json(resp->body);
      const Value* data = parsed ? parsed->get("Data") : nullptr;
      const Value* err = parsed ? parsed->get("Error") : nullptr;
      if (resp->status == 200 && data != nullptr) {
        got = ApiResponse::success(*data);
      } else if (err != nullptr) {
        got = ApiResponse::failure(std::string(err->get_or("Code", Value("")).as_str()), "");
      }
      if (traced && st.captures.size() < kCapturePerClient) {
        st.captures.push_back(Capture{rid, body, resp->status, resp->body});
      }
    }
    std::string outcome = got.ok ? "" : got.code;
    if (!resp || resp->status >= 500 || outcome != s.expected[st.step]) {
      ++st.failed;
      if (st.first_failure.empty()) {
        st.first_failure = req.api + ": got '" + outcome + "' (status " +
                           std::to_string(resp ? resp->status : 0) + "), expected '" +
                           s.expected[st.step] + "'";
      }
    }
    if (step.kind == Step::Kind::kCall) st.prior[step.index] = std::move(got);
    if (++st.step == s.steps.size()) {
      st.step = 0;
      ++st.session_seq;
    }
  }
}

void AgentHttp::measure(double seconds, bool traced) {
  start(traced ? traced_ : plain_);
  spans::set_enabled(traced);
  lce::server::HttpServerStats before = running_->endpoint->server_stats();
  std::uint64_t allocs_before = counted_allocs();
  chunk_traced_ = traced;
  const std::int64_t begin = now_ns();
  deadline_ = begin + static_cast<std::int64_t>(seconds * 1e9);
  for (ClientState& st : clients_) st.windows.emplace(begin, deadline_, kWindowS);
  crew_.run();
  spans::set_enabled(false);

  if (traced) {
    std::set<std::uint64_t> slots;  // span id >> 40 is the recording thread
    for (const Span& s : spans::collect()) {
      if (s.start_ns >= begin && std::string_view(s.name) == "stack.invoke") slots.insert(s.id >> 40);
    }
    io_threads_used_.push_back(static_cast<double>(slots.size()));
  } else {
    lce::server::HttpServerStats after = running_->endpoint->server_stats();
    allocs_ += counted_allocs() - allocs_before;
    served_ += after.requests_served - before.requests_served;
    writes_ += after.write_calls - before.write_calls;
    Windows all(begin, deadline_, kWindowS);
    for (const ClientState& st : clients_) all.merge(*st.windows);
    for (double r : all.rates()) window_rates_.push_back(r);
  }
}

// Server-layer numbers from the traced chunks: spans paired with the client
// requests that caused them, and the parser, decoder and renderer timed on
// the captured wire stream.
void AgentHttp::wire_layer_metrics(Result& out) {
  std::vector<Span> all = spans::collect();
  std::vector<std::int64_t> self = spans::self_times(all);

  std::unordered_map<std::uint64_t, std::vector<std::size_t>> server_by_fp;
  std::unordered_map<std::uint64_t, std::size_t> index_by_id;
  std::unordered_map<std::uint64_t, std::size_t> client_by_rid;
  std::vector<double> stack_self_us, interp_us;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    index_by_id[s.id] = i;
    if (std::string_view(s.name) == "stack.invoke") {
      server_by_fp[s.rid].push_back(i);
      stack_self_us.push_back(static_cast<double>(self[i]) / 1e3);
    } else if (std::string_view(s.name) == "interp.invoke") {
      interp_us.push_back(static_cast<double>(s.dur()) / 1e3);
    } else if (std::string_view(s.name) == "http.request") {
      client_by_rid[s.rid] = i;
    }
  }
  // Pair each traced request with the server span of the same fingerprint
  // that lies inside it, and re-key that span (and its child) to the
  // client's request id.
  std::vector<double> wire_us;
  std::vector<char> used(all.size(), 0);
  std::size_t requests = 0;
  for (const ClientState& st : clients_) {
    for (const auto& [rid, fp] : st.rid_fp) {
      auto c = client_by_rid.find(rid);
      auto cand = server_by_fp.find(fp);
      if (c == client_by_rid.end()) continue;
      ++requests;
      if (cand == server_by_fp.end()) continue;
      const Span& cs = all[c->second];
      for (std::size_t si : cand->second) {
        const Span& ss = all[si];
        if (used[si] || ss.start_ns < cs.start_ns || ss.end_ns > cs.end_ns) continue;
        used[si] = 1;
        wire_us.push_back(static_cast<double>(cs.dur() - ss.dur()) / 1e3);
        all[si].rid = rid;
        break;
      }
    }
  }
  for (Span& s : all) {
    auto p = index_by_id.find(s.parent);
    if (p != index_by_id.end() && used[p->second]) s.rid = all[p->second].rid;
  }
  out.note("traced requests paired with their server span: " + std::to_string(wire_us.size()) +
           " of " + std::to_string(requests));

  // Wire stream: the parser, decoder and renderer the fast path runs, called
  // on the captured bytes. Each call is repeated kReps times per request to
  // amortize the clock reads.
  constexpr int kReps = 8;
  std::vector<double> parse_ns, decode_ns, render_ns;
  lce::Arena arena;
  std::string out_buf;
  int cl_hint = 1;
  std::int64_t base = now_ns();
  auto add_span = [&](const char* name, std::uint64_t rid, double ns) {
    Span s;
    s.name = name;
    s.id = (std::uint64_t{0xFFFFF} << 40) | (all.size() + 1);
    s.rid = rid;
    s.start_ns = base;
    s.end_ns = base + static_cast<std::int64_t>(ns);
    all.push_back(s);
  };
  for (const ClientState& st : clients_) {
    for (const Capture& cap : st.captures) {
      std::string raw = "POST /invoke HTTP/1.1\r\nhost: 127.0.0.1\r\n"
                        "content-type: application/json\r\ncontent-length: " +
                        std::to_string(cap.request_body.size()) +
                        "\r\nconnection: keep-alive\r\n\r\n" + cap.request_body;
      lce::server::HttpParser parser;
      lce::server::RequestView view;
      std::int64_t t0 = now_ns();
      for (int r = 0; r < kReps; ++r) {
        parser.feed(raw);
        parser.next_view(view);
      }
      double ns = static_cast<double>(now_ns() - t0) / kReps;
      parse_ns.push_back(ns);
      add_span("server.parse", cap.rid, ns);

      t0 = now_ns();
      for (int r = 0; r < kReps; ++r) {
        lce::ArenaScope scope(arena);
        { auto doc = lce::server::parse_json(cap.request_body); }
        arena.reset();
      }
      ns = static_cast<double>(now_ns() - t0) / kReps;
      decode_ns.push_back(ns);
      add_span("server.decode", cap.rid, ns);

      auto body = lce::server::parse_json(cap.response_body);
      if (!body) continue;
      t0 = now_ns();
      for (int r = 0; r < kReps; ++r) {
        out_buf.clear();
        lce::server::ResponseWriter writer(out_buf, cl_hint);
        writer.begin(cap.status, true, true);
        lce::server::append_json(*body, writer.body());
        writer.finish();
      }
      ns = static_cast<double>(now_ns() - t0) / kReps;
      render_ns.push_back(ns);
      add_span("server.render", cap.rid, ns);
    }
  }

  out.set("server.wire_us_p50", median(wire_us), "us");
  out.set("server.parse_ns", median(parse_ns), "ns");
  out.set("server.decode_ns", median(decode_ns), "ns");
  out.set("server.render_ns", median(render_ns), "ns");
  double threads_used = 0;
  for (double n : io_threads_used_) threads_used += n / static_cast<double>(io_threads_used_.size());
  out.set("server.io_threads_used", threads_used, "count");
  out.set("stack.self_us_p50", median(stack_self_us), "us");
  out.set("interp.invoke_us_p50", median(interp_us), "us");

  std::string path = opts_.out_dir + "/spans-agent-http-seed" + std::to_string(opts_.seed) + ".csv";
  if (spans::write_csv(path, all)) out.note("span dump: " + path);
}

void AgentHttp::finish(const Options& opts, Result& out) {
  if (running_ != nullptr) running_->endpoint->stop();
  running_ = nullptr;

  Histogram untraced, traced;
  for (const ClientState& st : clients_) {
    untraced.merge(st.untraced);
    traced.merge(st.traced);
    out.attempted += st.attempted;
    out.failed += st.failed;
    if (!st.first_failure.empty()) out.note("first failed op: " + st.first_failure);
  }
  out.correct = out.failed == 0;
  if (live_->store().size() != pool_.account_size()) {
    out.note("account holds " + std::to_string(live_->store().size()) +
             " resources after the run (stated size " + std::to_string(pool_.account_size()) +
             "; sessions cut at a chunk end leave theirs behind)");
  }
  ClassCounts sent;
  for (const ClientState& st : clients_) sent.merge(st.sent);
  out.note("measured mix (untraced requests): " + sent.shares());
  std::string starts;
  bool split = true;
  for (int r : redials_) {
    starts += (starts.empty() ? "" : ", ") + std::to_string(r);
    split = split && r >= 0;
  }
  out.note(std::string("io loops serving the ") + std::to_string(kClients) + " clients: " +
           (split ? std::to_string(kIoThreads) : std::string("not split on every start")) +
           " (redials per endpoint start: " + starts + ")");
  if (!split) {
    out.correct = false;
    out.note("the clients could not be put on separate io loops; the run is not comparable");
  }
  out.note("time layer not reached: the AWS corpus has no `after` clauses");

  double p50 = untraced.median();
  out.set("latency_p50_us", p50 / 1e3, "us");
  out.set("latency_p99_us", untraced.percentile(99) / 1e3, "us");
  out.set("ops_s", median(window_rates_), "1/s");
  out.note("untraced ops: " + std::to_string(untraced.count()) + ", windows of " +
           std::to_string(kWindowS) + " s: " + std::to_string(window_rates_.size()));
  if (opts.trace) {
    out.set("trace_overhead_pct", (traced.median() / p50 - 1) * 100, "%");
    if (served_ > 0) {
      out.set("server.allocs_per_req", static_cast<double>(allocs_) / served_, "count");
      out.set("server.write_calls_per_req", static_cast<double>(writes_) / served_, "count");
    }
    wire_layer_metrics(out);
    // Interning happens per distinct key spelling, so the table size says
    // whether served traffic grows process-wide state.
    out.set("common.keytable_size", static_cast<double>(lce::KeyTable::instance().size()),
            "count");
  }
}

}  // namespace

std::unique_ptr<Workload> make_agent_http() { return std::make_unique<AgentHttp>(); }

}  // namespace perfbench
