// In-memory span recorder for the traced run (README.md "Tracing").
//
// Every span is recorded by the benchmark's own code around a call into one
// module's public interface; nothing inside src/ is instrumented. A span
// carries a name, start, end, the span that was open on the same thread when
// it began (its parent) and a request id shared by the spans of one request.
// Spans stay in per-thread buffers until the run ends and are written once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/api.h"
#include "stack/layer.h"

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

struct Span {
  const char* name = "";      // static string: "<layer>.<call>"
  std::uint64_t id = 0;       // (thread slot << 40) | per-thread sequence; never 0
  std::uint64_t parent = 0;   // 0 = root on its thread
  std::uint64_t rid = 0;      // request id; 0 = not part of a request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dur() const { return end_ns - start_ns; }
};

namespace spans {

/// Recording switch; off by default, so a SpanScope costs one load.
void set_enabled(bool on);
bool enabled();

/// Every span recorded so far, across all threads (buffers of exited
/// threads included), in per-thread order. Call only while no thread is
/// recording.
std::vector<Span> collect();

/// Self time of each span: its duration minus the durations of its direct
/// children. Index-aligned with `all`.
std::vector<std::int64_t> self_times(const std::vector<Span>& all);

/// Write `all` as CSV (name,id,parent,rid,start_ns,end_ns); false on I/O error.
bool write_csv(const std::string& path, const std::vector<Span>& all);

}  // namespace spans

/// RAII span on the calling thread. `rid` 0 inherits the enclosing span's
/// request id.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t rid = 0);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void* buf_ = nullptr;
  std::size_t index_ = 0;
};

/// A CloudBackend that records one span around every invoke of the backend
/// it forwards to. Used as the base under a stack (span "interp.invoke") or
/// around a whole stack (span "stack.invoke").
class SpanBackend final : public lce::CloudBackend {
 public:
  SpanBackend(const char* span, lce::CloudBackend& inner) : span_(span), inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  lce::ApiResponse invoke(const lce::ApiRequest& req) override;
  void reset() override { inner_.reset(); }
  bool supports(const std::string& api) const override { return inner_.supports(api); }
  lce::Value snapshot() const override { return inner_.snapshot(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

 private:
  const char* span_;
  lce::CloudBackend& inner_;
};

/// The same span as a stack layer, for timing one layer of a LayerStack
/// from the outside (pushed directly above the layer it measures).
class SpanLayer final : public lce::stack::BackendLayer {
 public:
  explicit SpanLayer(const char* span) : span_(span) {}

  std::string layer_name() const override { return std::string("span:") + span_; }
  lce::ApiResponse invoke(const lce::ApiRequest& req) override;

 protected:
  std::unique_ptr<lce::stack::BackendLayer> clone_detached() const override {
    return std::make_unique<SpanLayer>(span_);
  }

 private:
  const char* span_;
};

}  // namespace perfbench
