#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "spans.h"

namespace perfbench {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(sample.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sample[std::min(idx, sample.size() - 1)];
}

double median(std::vector<double> sample) { return percentile(std::move(sample), 50); }

void Histogram::add(std::int64_t ns) {
  auto v = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
  std::size_t idx;
  if (v < (2u << kSubBits)) {
    idx = static_cast<std::size_t>(v);
  } else {
    int shift = 63 - __builtin_clzll(v) - kSubBits;  // v >> shift is in [512, 1024)
    idx = (2u << kSubBits) + static_cast<std::size_t>(shift - 1) * (1u << kSubBits) +
          static_cast<std::size_t>((v >> shift) - (1u << kSubBits));
  }
  ++counts_[std::min(idx, kBuckets - 1)];
  ++total_;
}

void Histogram::merge(const Histogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double Histogram::percentile(double p) const {
  if (total_ == 0) return 0;
  double rank = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0 || static_cast<double>(seen + counts_[i]) < rank) {
      seen += counts_[i];
      continue;
    }
    double lo, width;
    if (i < (2u << kSubBits)) {
      lo = static_cast<double>(i);
      width = 1;
    } else {
      std::size_t j = i - (2u << kSubBits);
      int shift = static_cast<int>(j >> kSubBits) + 1;
      lo = std::ldexp(static_cast<double>((j & ((1u << kSubBits) - 1)) + (1u << kSubBits)), shift);
      width = std::ldexp(1.0, shift);
    }
    double within = (rank - static_cast<double>(seen) - 0.5) / static_cast<double>(counts_[i]);
    return lo + width * within;
  }
  return 0;
}

Windows::Windows(std::int64_t begin, std::int64_t end, double window_s)
    : begin_(begin), window_ns_(static_cast<std::int64_t>(window_s * 1e9)) {
  counts_.resize(static_cast<std::size_t>(std::max<std::int64_t>(0, (end - begin) / window_ns_)));
}

void Windows::merge(const Windows& o) {
  for (std::size_t i = 0; i < counts_.size() && i < o.counts_.size(); ++i) counts_[i] += o.counts_[i];
}

std::vector<double> Windows::rates() const {
  std::vector<double> out;
  for (std::uint64_t c : counts_) out.push_back(static_cast<double>(c) * 1e9 / static_cast<double>(window_ns_));
  return out;
}

Crew::Crew(int n, std::function<void(int)> job) : job_(std::move(job)) {
  for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { loop(i); });
}

Crew::~Crew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Crew::run() {
  std::unique_lock<std::mutex> lock(mu_);
  ++generation_;
  running_ = static_cast<int>(threads_.size());
  cv_.notify_all();
  cv_.wait(lock, [this] { return running_ == 0; });
}

void Crew::loop(int i) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    job_(i);
    std::lock_guard<std::mutex> lock(mu_);
    if (--running_ == 0) cv_.notify_all();
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// The metric lists of BENCHMARK.json: every result line carries all of one
// list, so a workload that never reaches a layer reports 0 and says why.
const char* const kEndToEnd[][2] = {
    {"setup_s", "s"},
    {"ops_s", "1/s"},
    {"latency_p50_us", "us"},
    {"peak_rss_mb", "MB"},
};

const char* const kPerLayer[][2] = {
    {"latency_p99_us", "us"},
    {"trace_overhead_pct", "%"},
    {"server.wire_us_p50", "us"},
    {"server.parse_ns", "ns"},
    {"server.decode_ns", "ns"},
    {"server.render_ns", "ns"},
    {"server.allocs_per_req", "count"},
    {"server.write_calls_per_req", "count"},
    {"server.io_threads_used", "count"},
    {"stack.self_us_p50", "us"},
    {"interp.invoke_us_p50", "us"},
    {"interp.plan_compile_ms", "ms"},
    {"persist.recover_ms", "ms"},
    {"persist.recovered_records", "count"},
    {"persist.journal_us_p50", "us"},
    {"persist.wal_bytes_per_write", "B"},
    {"persist.snapshot_ms_p50", "ms"},
    {"persist.snapshot_ms_max", "ms"},
    {"persist.snapshots", "count"},
    {"align.tracegen_ms", "ms"},
    {"align.diff_ms", "ms"},
    {"align.diff_traces_per_s", "1/s"},
    {"align.shrink_ms", "ms"},
    {"align.repair_ms", "ms"},
    {"align.rounds", "count"},
    {"align.traces", "count"},
    {"align.discrepancies", "count"},
    {"align.repairs", "count"},
    {"docs.render_ms", "ms"},
    {"synth.synthesize_ms", "ms"},
    {"spec.checks_ms", "ms"},
    {"common.keytable_size", "count"},
};

// Keep exactly one list in the result; fill what the workload did not reach.
void select_metrics(Result& out, bool trace) {
  std::map<std::string, Metric> kept;
  std::vector<std::string> unreached;
  auto take = [&](const char* const (&list)[2]) {
    auto it = out.metrics.find(list[0]);
    if (it != out.metrics.end() && !std::isfinite(it->second.value)) {
      out.correct = false;
      out.note(std::string(list[0]) + " is not a finite number");
      it->second.value = 0;
    }
    if (it != out.metrics.end()) {
      kept[list[0]] = it->second;
    } else {
      kept[list[0]] = Metric{0, list[1]};
      unreached.push_back(list[0]);
    }
  };
  if (trace) {
    for (const auto& m : kPerLayer) take(m);
  } else {
    for (const auto& m : kEndToEnd) take(m);
  }
  out.metrics = std::move(kept);
  if (!unreached.empty()) {
    std::string line = "not reached by this workload (reported as 0):";
    for (const auto& n : unreached) line += " " + n;
    out.note(line);
  }
}

}  // namespace

Result run(Workload& w, const Options& opts) {
  Result out;
  w.prepare(opts, out);
  if (opts.inputs_only) {
    w.describe_inputs(out);
    return out;
  }
  // Set-up spans (docs, synth, spec, plan compile, recovery) belong to the
  // traced run's per-layer numbers.
  spans::set_enabled(opts.trace);
  std::vector<double> setups{w.setup_live()};
  spans::set_enabled(false);

  // Measurement in chunks with a set-up repetition after each, so that a
  // slow stretch of the machine lands on a minority of the set-up samples.
  // A traced run splits every chunk into an untraced and a traced half;
  // the pair sits close in time, which keeps the tracing overhead estimate
  // free of drift.
  constexpr int kChunks = 8;
  const double chunk_s = opts.seconds / kChunks;
  for (int c = 0; c < kChunks; ++c) {
    if (opts.trace) {
      w.measure(chunk_s / 2, false);
      w.measure(chunk_s / 2, true);
    } else {
      w.measure(chunk_s, false);
    }
    spans::set_enabled(opts.trace);
    std::vector<double> more = w.setup_scratch();
    setups.insert(setups.end(), more.begin(), more.end());
    spans::set_enabled(false);
  }
  // Peak memory of set-up and measurement; the checks in finish() (a whole
  // second recovery for durable-writes) are the benchmark's, not the load's.
  const double rss_mb = peak_rss_mb();
  w.finish(opts, out);
  if (opts.trace) {
    // Pipeline stages every workload's set-up runs (pipeline.h).
    std::map<std::string, std::vector<double>> ms;
    for (const Span& s : spans::collect()) ms[s.name].push_back(static_cast<double>(s.dur()) / 1e6);
    for (const char* name : {"docs.render", "synth.synthesize", "spec.checks"}) {
      if (!ms[name].empty()) out.set(std::string(name) + "_ms", median(ms[name]), "ms");
    }
    if (!ms["interp.compile"].empty()) {
      out.set("interp.plan_compile_ms", median(ms["interp.compile"]), "ms");
    }
  }
  out.set("setup_s", median(setups), "s");
  out.set("peak_rss_mb", rss_mb, "MB");
  out.note("setup samples: " + std::to_string(setups.size()));
  select_metrics(out, opts.trace);
  return out;
}

}  // namespace perfbench
