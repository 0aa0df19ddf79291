// The six stock layers (see layer.h for the decorator machinery and
// config.h for the canonical ordering):
//
//   SerializeLayer  mutex gate so single-threaded backends survive
//                   concurrent callers (replaces server::SerializedBackend)
//   ValidateLayer   wire-format normalization: id-shaped strings re-tagged
//                   as refs (moved out of server/service.cpp)
//   MetricsLayer    per-API call/error counters + latency histograms,
//                   snapshotable as a Value (GET /metrics)
//   FaultLayer      seeded, deterministic injection of throttling, internal
//                   errors and delays — cloud-realistic chaos for clients
//   RecordLayer     captures live calls into a replayable Trace (corpus
//                   growth from real traffic)
//   ReadCacheLayer  memoizes read-only describe calls, invalidated by any
//                   write — repeated describes skip the backend entirely
//
// Every stateful layer is internally thread-safe (its own mutex), because
// layers above SerializeLayer see concurrent callers.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "stack/layer.h"

namespace lce::stack {

/// True when `s` has our resource-id shape ("vpc-00000001"): a lowercase
/// dashed prefix followed by exactly 8 digits.
bool looks_like_resource_id(std::string_view s);

/// Re-tag id-shaped strings as refs, recursively through lists and maps.
Value retag_refs(const Value& v);

/// The normalization ValidateLayer applies: every id-shaped string in the
/// args (and the target) becomes a ref, mirroring how real cloud SDKs pass
/// ids as plain strings on the wire.
ApiRequest normalize_request(const ApiRequest& req);

/// Serializes every CloudBackend operation — including supports(), which
/// the old server::SerializedBackend left unlocked — behind one mutex.
class SerializeLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "serialize"; }

  std::string name() const override;
  ApiResponse invoke(const ApiRequest& req) override;
  void reset() override;
  bool supports(const std::string& api) const override;
  Value snapshot() const override;
  /// The gate's whole point: everything below it is serialized, so the
  /// chain from here down is safe for concurrent callers.
  bool thread_safe() const override { return true; }

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  mutable std::mutex mu_;
};

/// Stateless arg normalization (see normalize_request above).
class ValidateLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "validate"; }
  ApiResponse invoke(const ApiRequest& req) override;

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;
};

/// Per-API counters and latency histogram for one API (or the total row).
struct ApiMetrics {
  static constexpr std::size_t kBuckets = 6;  // le_100us .. le_1s, inf
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;       // responses with !ok (incl. injected faults)
  std::uint64_t total_us = 0;     // summed wall latency
  std::array<std::uint64_t, kBuckets> histogram{};

  void record(bool ok, std::uint64_t us);
  void merge(const ApiMetrics& o);
  Value to_value() const;
};

class MetricsLayer final : public BackendLayer {
 public:
  /// The one per_api row every action the backend does not support() is
  /// counted under. The layer sits above validate, so it sees raw client
  /// action names; a row per name would let a client grow the map (and
  /// the key table /metrics renders through) without limit.
  static constexpr std::string_view kUnsupportedApi = "(unsupported)";

  std::string layer_name() const override { return "metrics"; }
  ApiResponse invoke(const ApiRequest& req) override;

  /// {"total": {...}, "per_api": {"CreateVpc": {...}, ...}} — each entry
  /// carries calls / errors / total_us / histogram{le_100us..inf}.
  Value metrics() const;

  std::uint64_t calls() const;
  std::uint64_t errors() const;

  /// Fold another layer's counters into this one (the parallel alignment
  /// executor aggregates per-worker metrics this way; summed counts are
  /// deterministic even though per-worker interleaving is not).
  void merge_from(const MetricsLayer& other);

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  mutable std::mutex mu_;
  ApiMetrics total_;
  std::map<std::string, ApiMetrics> by_api_;
};

/// Fault-injection knobs. With one uniform draw per invoke, the decision
/// sequence is a pure function of (seed, invoke index), which is what the
/// determinism tests pin down.
struct FaultConfig {
  double throttle_rate = 0.05;  // P(RequestLimitExceeded)
  double error_rate = 0.02;     // P(InternalError)
  double delay_rate = 0.0;      // P(response delayed by delay_ms)
  int delay_ms = 5;
};

class FaultLayer final : public BackendLayer {
 public:
  explicit FaultLayer(std::uint64_t seed, FaultConfig cfg = {});

  std::string layer_name() const override { return "fault"; }
  ApiResponse invoke(const ApiRequest& req) override;
  /// reset() rewinds the fault sequence to the seed (a fresh account gets
  /// a fresh, but identical, run of luck) and forwards.
  void reset() override;

  std::uint64_t injected() const;

 protected:
  /// Clones carry the RNG *position*, so a cloned stack continues the
  /// exact fault sequence its original would have produced.
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  std::uint64_t seed_;
  FaultConfig cfg_;
  mutable std::mutex mu_;
  Rng rng_;
  std::uint64_t injected_ = 0;
};

/// Captures every request that reaches it into a Trace replayable via
/// run_trace / print_trace_script. Sits below ValidateLayer (records
/// normalized calls) and above ReadCacheLayer (records cache hits too).
/// Ids of resources created earlier in the recording are rewritten to
/// "$k.id" placeholders, so the captured trace is backend-portable (the
/// script format has no concrete-ref syntax; replays mint their own ids).
class RecordLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "record"; }
  ApiResponse invoke(const ApiRequest& req) override;
  /// reset() starts a fresh recording: the captured trace always replays
  /// from a reset backend, which is what run_trace assumes.
  void reset() override;

  Trace trace() const;
  std::size_t recorded() const;
  void clear_trace();

  /// Responses index-aligned with trace().calls (a call that is still in
  /// flight holds a default-constructed slot). Together with the trace
  /// this is everything `lce trace export` writes into a record file.
  std::vector<ApiResponse> responses() const;

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  mutable std::mutex mu_;
  Trace trace_;
  std::vector<ApiResponse> responses_;  // index-aligned with trace_.calls
  /// id string -> index of the recorded call whose response minted it.
  std::map<std::string, std::size_t, std::less<>> minted_ids_;
};

/// Memoizes read-only calls (Describe*/Get*/List* by API-name convention,
/// matching the corpus naming). ANY other API is treated as a write and
/// invalidates the whole cache. A generation counter closes the lookup/
/// fill race: a read that raced a write must not install its stale reply.
class ReadCacheLayer final : public BackendLayer {
 public:
  std::string layer_name() const override { return "read_cache"; }
  ApiResponse invoke(const ApiRequest& req) override;
  void reset() override;

  static bool is_read_api(const std::string& api);

  std::uint64_t hits() const;
  std::uint64_t misses() const;

 protected:
  std::unique_ptr<BackendLayer> clone_detached() const override;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ApiResponse> cache_;
  std::uint64_t generation_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace lce::stack
