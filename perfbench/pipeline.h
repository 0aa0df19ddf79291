// What the benchmark builds around the emulator: the synthesis pipeline,
// driven stage by stage so each stage gets its own span, plus the helpers
// the workloads share for replaying traces and breaking a backend on
// purpose.
#pragma once

#include <atomic>
#include <memory>

#include "common/api.h"
#include "interp/interpreter.h"

namespace perfbench {

/// Render the AWS catalog, with `rate` documentation defects drawn from
/// `defect_seed` (none when rate is 0), synthesize with default options and
/// build the interpreter the way `lce serve` does — the same calls
/// core::LearnedEmulator::from_docs makes. Spans: docs.render (catalog,
/// defects, rendering), synth.synthesize, spec.checks (an extra pass of the
/// consistency checks, made only while tracing — the synthesizer's own
/// checks run inside its span) and interp.compile (construction, which
/// compiles the execution plan).
std::unique_ptr<lce::interp::Interpreter> build_aws_emulator(double rate = 0,
                                                             std::uint64_t defect_seed = 0);

/// Invoke every call of `trace` on `backend` from its current state,
/// resolving "$k.field" placeholders against the earlier replies.
void replay(lce::CloudBackend& backend, const lce::Trace& trace);

/// Fails every 50th invoke without reaching the backend it wraps
/// (--break-backend), so the workload's checks must report failed ops.
class BrokenBackend final : public lce::CloudBackend {
 public:
  explicit BrokenBackend(lce::CloudBackend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  lce::ApiResponse invoke(const lce::ApiRequest& req) override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) % 50 == 49) {
      return lce::ApiResponse::failure("InternalError", "broken backend (test hook)");
    }
    return inner_.invoke(req);
  }
  void reset() override { inner_.reset(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

 private:
  lce::CloudBackend& inner_;
  std::atomic<std::uint64_t> calls_{0};
};

}  // namespace perfbench
