// The serve-path benchmark driver behind both `bench_serve_throughput`
// and `lce bench serve`: a closed-loop concurrency sweep comparing the
// serialized invoke path (SerializeLayer forced ON — the pre-sharding
// default) against the sharded path (gate OFF — the interpreter's own
// striped locks), followed by an open-loop latency run at a fixed arrival
// rate. Results print as a table and optionally land in BENCH_serve.json.
//
// A third "wal" configuration measures the durable serve path: the
// sharded stack plus a JournalLayer appending every write to a real
// write-ahead log (group commit, sync mode per --wal-sync).
//
// Exit-code contract (the CI bench-smoke gate): when enforcement is on,
// the run fails unless (a) sharded throughput beats serialized throughput
// by `min_speedup` at the highest measured concurrency >= 4, and (b) the
// WAL-on path stays within `max_wal_overhead` of WAL-off (sharded /
// wal <= 1.5x by default). Enforcement is skipped on single-core
// machines, where no concurrent speedup exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lce::bench {

struct ServeBenchOptions {
  /// Smaller op counts for CI smoke runs.
  bool quick = false;
  /// Where to write the JSON report; "" = don't.
  std::string json_path = "BENCH_serve.json";
  /// Closed-loop sweep points; empty = {1, 2, 4, 8} ({1, 4} in quick mode).
  std::vector<int> concurrency;
  /// Ops per measured run; 0 = default (20000; 3000 in quick mode).
  std::size_t ops = 0;
  /// Open-loop arrival rate in ops/sec; 0 = derive from the sharded
  /// closed-loop result (60% of its peak — enough to queue on the
  /// serialized path, comfortable for the sharded one).
  double open_loop_rate = 0;
  std::uint64_t seed = 42;
  /// Fail the process when the sharded path is not >= min_speedup x the
  /// serialized path at the top concurrency >= 4.
  bool enforce = true;
  double min_speedup = 1.0;
  /// Data dir for the WAL ("wal" sweep config). "" = a scratch dir under
  /// the system temp dir, recreated per run.
  std::string data_dir;
  /// fdatasync per group-commit batch ("batch") instead of page-cache
  /// writes ("none", the default — matching `lce serve`).
  bool wal_sync_batch = false;
  /// Gate: sharded (WAL-off) throughput must not exceed wal (WAL-on)
  /// throughput by more than this factor at the gate concurrency.
  double max_wal_overhead = 1.5;
  /// HTTP front-end sweep: drive the sharded stack through the epoll
  /// server over real loopback sockets, keep-alive vs Connection: close,
  /// then an open-loop latency run over keep-alive. --no-http disables.
  bool http_sweep = true;
  /// Event-loop threads for the front-end sweep; 0 = server default.
  int io_threads = 0;
  /// Gate: keep-alive throughput must be >= this factor over close-per-
  /// request at the sweep concurrency. Self-skips under sanitizers and on
  /// single-core machines (no reuse win exists without parallel loops).
  double min_keepalive_speedup = 1.0;
  /// Pipelining depth for the wire fast-path comparison: requests kept in
  /// flight per keep-alive connection, so wire CPU (not per-request RTT)
  /// dominates — the regime the zero-copy path is gated in.
  int http_pipeline = 8;
  /// Gate: the zero-copy wire fast path must reach this factor over the
  /// --no-wire-fastpath heap path on the pipelined keep-alive point.
  /// Self-skips under sanitizers and on single-core machines.
  double min_http_speedup = 1.5;
  /// Gate: steady-state heap allocations per request served through the
  /// fast path over a pipelined keep-alive burst (client side of the probe
  /// is allocation-free, so this counts the serve path alone). The
  /// zero-copy path measures ~4 (the interpreter's result tree, built
  /// outside the arena by design); the heap path ~33. 0 disables.
  double max_serve_allocs = 16.0;
  /// Process-wide allocation counter, installed by bench_serve_throughput's
  /// operator-new hook. nullptr (`lce bench serve`, sanitizer builds — the
  /// hook is compiled out there) self-skips the allocs/request gate with
  /// the reason recorded in the report's gate_skips.
  std::uint64_t (*alloc_counter)() = nullptr;
};

/// Parse bench flags (--quick, --json FILE, --ops N, --concurrency a,b,c,
/// --rate R, --seed N, --min-speedup X, --no-enforce, --no-json,
/// --data-dir DIR, --wal-sync none|batch, --max-wal-overhead X,
/// --no-http, --io-threads N, --min-keepalive-speedup X,
/// --http-pipeline N, --min-http-speedup X, --max-serve-allocs N) into
/// `out`. Returns false (and prints to stderr) on unknown flags.
bool parse_serve_bench_args(int argc, char** argv, ServeBenchOptions& out);

/// Run the benchmark; returns the process exit code (0 = pass).
int run_serve_bench(const ServeBenchOptions& opts);

}  // namespace lce::bench
