// lce_perfbench: the repository benchmark (README.md). One run measures one
// workload for a fixed time, checks its outputs, and prints a machine
// fingerprint, notes, and as the last line one JSON result object:
//
//   lce_perfbench --workload agent-http|durable-writes|align-loop
//                 --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Test hooks: --inputs-only prints the generated inputs' digest and exact
// counts instead of measuring; --break-backend makes the measured backend
// fail every 50th invoke, which the checks must report as failed ops.
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <thread>

#include "harness.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter behind server.allocs_per_req: every operator new
// in this binary bumps a per-thread-slot counter unless the thread opted
// out (the benchmark's own client threads do), so the count is the serving
// threads' allocations. Compiled out under sanitizers, which intercept
// new/delete themselves.

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZED 1
#else
#define PERFBENCH_SANITIZED 0
#endif

namespace {

struct alignas(64) AllocSlot {
  std::atomic<std::uint64_t> n{0};
};
constexpr int kAllocSlots = 64;
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_alloc_slot = -1;  // -2 = excluded

inline void count_alloc() {
  int s = t_alloc_slot;
  if (s == -2) return;
  if (s < 0) {
    s = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kAllocSlots;
    t_alloc_slot = s;
  }
  g_alloc_slots[s].n.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace perfbench {

std::uint64_t counted_allocs() {
  std::uint64_t total = 0;
  for (const auto& s : g_alloc_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

void exclude_thread_from_alloc_count() { t_alloc_slot = -2; }

}  // namespace perfbench

#if !PERFBENCH_SANITIZED
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  count_alloc();
  std::size_t al = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(al, (n + al - 1) / al * al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) { return ::operator new(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#endif

namespace {

int usage() {
  std::cerr << "usage: lce_perfbench --workload agent-http|durable-writes|align-loop\n"
               "                     --seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "                     [--inputs-only] [--break-backend]\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::char_traits<char>::length(s);
  auto [p, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && p == end;
}

std::string json_number(double v) {
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, p) : "0";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    std::uint64_t n = 0;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], n)) {
      opts.seed = n;
      have_seed = true;
      ++i;
    } else if (arg == "--seconds" && has_value && parse_u64(argv[i + 1], n) && n > 0 &&
               n <= 3600) {
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
      ++i;
    } else if (arg == "--trace" && has_value && parse_u64(argv[i + 1], n) && n <= 1) {
      opts.trace = n == 1;
      have_trace = true;
      ++i;
    } else if (arg == "--out-dir" && has_value) {
      opts.out_dir = argv[++i];
    } else if (arg == "--inputs-only") {
      opts.inputs_only = true;
    } else if (arg == "--break-backend") {
      opts.break_backend = true;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();

  std::unique_ptr<perfbench::Workload> workload;
  if (opts.workload == "agent-http") {
    workload = perfbench::make_agent_http();
  } else if (opts.workload == "durable-writes") {
    workload = perfbench::make_durable_writes();
  } else if (opts.workload == "align-loop") {
    workload = perfbench::make_align_loop();
  } else {
    return usage();
  }

  perfbench::exclude_thread_from_alloc_count();
  perfbench::Result result = perfbench::run(*workload, opts);

  for (const auto& line : result.notes) std::cout << "note: " << line << "\n";
  perfbench::ThreadSplit split = workload->threads();
  std::string sanitizer = PERFBENCH_SANITIZE;
  std::cout << "fingerprint: {\"cores\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"sanitizer\": " << json_string(sanitizer.empty() ? "none" : sanitizer)
            << ", \"workload\": " << json_string(opts.workload) << ", \"seed\": " << opts.seed
            << ", \"seconds\": " << json_number(opts.seconds)
            << ", \"trace\": " << (opts.trace ? 1 : 0)
            << ", \"client_threads\": " << split.client_threads
            << ", \"io_threads\": " << split.io_threads
            << ", \"align_workers\": " << split.align_workers
            << ", \"writers\": " << split.writers << "}\n";

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    line += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return result.correct ? 0 : 1;
}
