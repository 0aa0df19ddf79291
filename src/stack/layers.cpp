#include "stack/layers.h"

#include <cctype>
#include <chrono>
#include <thread>
#include <utility>

#include "common/errors.h"
#include "common/strings.h"

namespace lce::stack {

bool looks_like_resource_id(std::string_view s) {
  std::size_t dash = s.rfind('-');
  if (dash == std::string_view::npos || dash == 0 || dash + 9 != s.size()) return false;
  for (std::size_t i = 0; i < dash; ++i) {
    char c = s[i];
    if (!std::islower(static_cast<unsigned char>(c)) && c != '-' && c != '_') return false;
  }
  for (std::size_t i = dash + 1; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

Value retag_refs(const Value& v) {
  if (v.is_str() && looks_like_resource_id(v.as_str())) return Value::ref(v.as_str());
  if (v.is_list()) {
    Value::List out;
    for (const auto& e : v.as_list()) out.push_back(retag_refs(e));
    return Value(std::move(out));
  }
  if (v.is_map()) {
    Value::Map out;
    for (const auto& [k, e] : v.as_map()) out.emplace(k, retag_refs(e));
    return Value(std::move(out));
  }
  return v;
}

ApiRequest normalize_request(const ApiRequest& req) {
  ApiRequest out;
  out.api = req.api;
  out.target = req.target;
  for (const auto& [k, v] : req.args) out.args[k] = retag_refs(v);
  return out;
}

// ---------------------------------------------------------------- serialize

std::string SerializeLayer::name() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().name();
}

ApiResponse SerializeLayer::invoke(const ApiRequest& req) {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().invoke(req);
}

void SerializeLayer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  inner().reset();
}

bool SerializeLayer::supports(const std::string& api) const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().supports(api);
}

Value SerializeLayer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inner().snapshot();
}

std::unique_ptr<BackendLayer> SerializeLayer::clone_detached() const {
  return std::make_unique<SerializeLayer>();  // fresh mutex, no shared state
}

// ----------------------------------------------------------------- validate

ApiResponse ValidateLayer::invoke(const ApiRequest& req) {
  return inner().invoke(normalize_request(req));
}

std::unique_ptr<BackendLayer> ValidateLayer::clone_detached() const {
  return std::make_unique<ValidateLayer>();
}

// ------------------------------------------------------------------ metrics

void ApiMetrics::record(bool ok, std::uint64_t us) {
  ++calls;
  if (!ok) ++errors;
  total_us += us;
  std::size_t bucket = 0;
  for (std::uint64_t bound = 100; bucket + 1 < kBuckets && us >= bound;
       bound *= 10) {
    ++bucket;  // 100us, 1ms, 10ms, 100ms, 1s boundaries
  }
  ++histogram[bucket];
}

void ApiMetrics::merge(const ApiMetrics& o) {
  calls += o.calls;
  errors += o.errors;
  total_us += o.total_us;
  for (std::size_t i = 0; i < kBuckets; ++i) histogram[i] += o.histogram[i];
}

Value ApiMetrics::to_value() const {
  static constexpr const char* kBucketNames[kBuckets] = {
      "le_100us", "le_1ms", "le_10ms", "le_100ms", "le_1s", "inf"};
  Value::Map hist;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    hist[kBucketNames[i]] = Value(static_cast<std::int64_t>(histogram[i]));
  }
  Value::Map out;
  out["calls"] = Value(static_cast<std::int64_t>(calls));
  out["errors"] = Value(static_cast<std::int64_t>(errors));
  out["total_us"] = Value(static_cast<std::int64_t>(total_us));
  out["latency_histogram"] = Value(std::move(hist));
  return Value(std::move(out));
}

ApiResponse MetricsLayer::invoke(const ApiRequest& req) {
  auto t0 = std::chrono::steady_clock::now();
  ApiResponse resp = inner().invoke(req);
  auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  std::unique_lock<std::mutex> lock(mu_);
  total_.record(resp.ok, us);
  auto it = by_api_.find(req.api);
  if (it == by_api_.end()) {
    // First call under this name: only supported actions get their own
    // row. supports() runs unlocked — it may take locks further in.
    lock.unlock();
    bool supported = inner().supports(req.api);
    lock.lock();
    it = supported ? by_api_.try_emplace(req.api).first
                   : by_api_.try_emplace(std::string(kUnsupportedApi)).first;
  }
  it->second.record(resp.ok, us);
  return resp;
}

Value MetricsLayer::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  Value::Map per_api;
  for (const auto& [api, m] : by_api_) per_api[api] = m.to_value();
  Value::Map out;
  out["total"] = total_.to_value();
  out["per_api"] = Value(std::move(per_api));
  return Value(std::move(out));
}

std::uint64_t MetricsLayer::calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_.calls;
}

std::uint64_t MetricsLayer::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_.errors;
}

void MetricsLayer::merge_from(const MetricsLayer& other) {
  // Copy out first: locking both in one scope risks deadlock by ordering.
  ApiMetrics other_total;
  std::map<std::string, ApiMetrics> other_by_api;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    other_total = other.total_;
    other_by_api = other.by_api_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  total_.merge(other_total);
  for (const auto& [api, m] : other_by_api) by_api_[api].merge(m);
}

std::unique_ptr<BackendLayer> MetricsLayer::clone_detached() const {
  auto copy = std::make_unique<MetricsLayer>();
  std::lock_guard<std::mutex> lock(mu_);
  copy->total_ = total_;
  copy->by_api_ = by_api_;
  return copy;
}

// -------------------------------------------------------------------- fault

FaultLayer::FaultLayer(std::uint64_t seed, FaultConfig cfg)
    : seed_(seed), cfg_(cfg), rng_(seed) {}

ApiResponse FaultLayer::invoke(const ApiRequest& req) {
  // Exactly one draw per invoke: the fault sequence is indexed by invoke
  // count, independent of API name or argument content.
  double u;
  {
    std::lock_guard<std::mutex> lock(mu_);
    u = rng_.unit();
    if (u < cfg_.throttle_rate + cfg_.error_rate) ++injected_;
  }
  if (u < cfg_.throttle_rate) {
    return ApiResponse::failure(
        std::string(errc::kRequestLimitExceeded),
        ErrorRegistry::instance().render_message(errc::kRequestLimitExceeded,
                                                 {{"api", req.api}}));
  }
  if (u < cfg_.throttle_rate + cfg_.error_rate) {
    return ApiResponse::failure(
        std::string(errc::kInternalError),
        ErrorRegistry::instance().render_message(errc::kInternalError, {}));
  }
  if (u < cfg_.throttle_rate + cfg_.error_rate + cfg_.delay_rate) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.delay_ms));
  }
  return inner().invoke(req);
}

void FaultLayer::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    rng_ = Rng(seed_);
    injected_ = 0;
  }
  inner().reset();
}

std::uint64_t FaultLayer::injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

std::unique_ptr<BackendLayer> FaultLayer::clone_detached() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto copy = std::make_unique<FaultLayer>(seed_, cfg_);
  copy->rng_ = rng_;
  copy->injected_ = injected_;
  return copy;
}

// ------------------------------------------------------------------- record

namespace {

/// Replace every string/ref matching a previously minted id with that
/// call's "$k.id" placeholder (recursively through lists and maps).
Value portabilize(const Value& v,
                  const std::map<std::string, std::size_t, std::less<>>& minted) {
  if (v.is_str() || v.is_ref()) {
    auto it = minted.find(v.as_str());
    if (it != minted.end()) return Value(strf("$", it->second, ".id"));
    return v;
  }
  if (v.is_list()) {
    Value::List out;
    for (const auto& e : v.as_list()) out.push_back(portabilize(e, minted));
    return Value(std::move(out));
  }
  if (v.is_map()) {
    Value::Map out;
    for (const auto& [k, e] : v.as_map()) out.emplace(k, portabilize(e, minted));
    return Value(std::move(out));
  }
  return v;
}

}  // namespace

ApiResponse RecordLayer::invoke(const ApiRequest& req) {
  std::size_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ApiRequest recorded = req;
    for (auto& [k, v] : recorded.args) v = portabilize(v, minted_ids_);
    if (auto it = minted_ids_.find(recorded.target); it != minted_ids_.end()) {
      recorded.target = strf("$", it->second, ".id");
    }
    index = trace_.calls.size();
    trace_.calls.push_back(std::move(recorded));
    responses_.emplace_back();  // slot filled once the call completes
  }
  ApiResponse resp = inner().invoke(req);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A concurrent reset()/clear_trace() may have dropped our slot.
    if (index < responses_.size()) responses_[index] = resp;
    if (resp.ok) {
      const Value* id = resp.data.get("id");
      if (id != nullptr && (id->is_str() || id->is_ref())) {
        minted_ids_.emplace(id->as_str(), index);
      }
    }
  }
  return resp;
}

void RecordLayer::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    trace_.calls.clear();
    responses_.clear();
    minted_ids_.clear();
  }
  inner().reset();
}

Trace RecordLayer::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

std::size_t RecordLayer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.calls.size();
}

void RecordLayer::clear_trace() {
  std::lock_guard<std::mutex> lock(mu_);
  trace_.calls.clear();
  responses_.clear();
  minted_ids_.clear();
}

std::vector<ApiResponse> RecordLayer::responses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return responses_;
}

std::unique_ptr<BackendLayer> RecordLayer::clone_detached() const {
  auto copy = std::make_unique<RecordLayer>();
  std::lock_guard<std::mutex> lock(mu_);
  copy->trace_ = trace_;
  copy->responses_ = responses_;
  copy->minted_ids_ = minted_ids_;
  return copy;
}

// --------------------------------------------------------------- read cache

bool ReadCacheLayer::is_read_api(const std::string& api) {
  return api.rfind("Describe", 0) == 0 || api.rfind("Get", 0) == 0 ||
         api.rfind("List", 0) == 0;
}

namespace {

std::string cache_key(const ApiRequest& req) {
  // Value::Map is ordered, so to_text() is a canonical rendering.
  return strf(req.api, "\x1f", req.target, "\x1f", Value(req.args).to_text());
}

}  // namespace

ApiResponse ReadCacheLayer::invoke(const ApiRequest& req) {
  if (!is_read_api(req.api)) {
    ApiResponse resp = inner().invoke(req);
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    ++generation_;
    return resp;
  }
  std::string key = cache_key(req);
  std::uint64_t gen_at_lookup;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    gen_at_lookup = generation_;
  }
  ApiResponse resp = inner().invoke(req);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Install only if no write invalidated the cache while we were reading;
    // otherwise this reply may describe pre-write state.
    if (generation_ == gen_at_lookup) cache_.emplace(key, resp);
  }
  return resp;
}

void ReadCacheLayer::reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
    ++generation_;
  }
  inner().reset();
}

std::uint64_t ReadCacheLayer::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ReadCacheLayer::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::unique_ptr<BackendLayer> ReadCacheLayer::clone_detached() const {
  auto copy = std::make_unique<ReadCacheLayer>();
  std::lock_guard<std::mutex> lock(mu_);
  copy->cache_ = cache_;
  copy->generation_ = generation_;
  copy->hits_ = hits_;
  copy->misses_ = misses_;
  return copy;
}

}  // namespace lce::stack
