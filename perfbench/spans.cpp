#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct ThreadSpans {
  std::uint64_t slot = 0;
  std::uint64_t seq = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  // indices of spans begun but not ended
};

std::atomic<bool> g_enabled{false};

// Buffers outlive their threads (server io threads exit at endpoint stop,
// before the spans are collected), so the registry owns them.
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_buffers;  // guarded by g_mu

ThreadSpans& local() {
  thread_local ThreadSpans* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadSpans>();
    owned->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(g_mu);
    owned->slot = g_buffers.size() + 1;
    buf = owned.get();
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

namespace spans {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& b : g_buffers) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& all) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) index.emplace(all[i].id, i);
  std::vector<std::int64_t> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) self[i] = all[i].dur();
  for (const Span& s : all) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it != index.end()) self[it->second] -= s.dur();
  }
  return self;
}

bool write_csv(const std::string& path, const std::vector<Span>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,id,parent,rid,start_ns,end_ns\n");
  for (const Span& s : all) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.rid),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace spans

SpanScope::SpanScope(const char* name, std::uint64_t rid) {
  if (!spans::enabled()) return;
  ThreadSpans& t = local();
  Span s;
  s.name = name;
  s.id = (t.slot << 40) | ++t.seq;
  if (!t.open.empty()) {
    const Span& p = t.spans[t.open.back()];
    s.parent = p.id;
    if (rid == 0) rid = p.rid;
  }
  s.rid = rid;
  index_ = t.spans.size();
  t.open.push_back(index_);
  buf_ = &t;
  s.start_ns = now_ns();
  t.spans.push_back(s);
}

SpanScope::~SpanScope() {
  if (buf_ == nullptr) return;
  auto& t = *static_cast<ThreadSpans*>(buf_);
  t.spans[index_].end_ns = now_ns();
  t.open.pop_back();
}

lce::ApiResponse SpanBackend::invoke(const lce::ApiRequest& req) {
  SpanScope span(span_);
  return inner_.invoke(req);
}

lce::ApiResponse SpanLayer::invoke(const lce::ApiRequest& req) {
  SpanScope span(span_);
  return inner().invoke(req);
}

}  // namespace perfbench
