// What the three workloads share (README.md): options, sample statistics,
// the chunked measurement schedule and the result line.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where span dumps go (created when missing).
  std::string out_dir = ".";
  /// Test hook: wrap the measured backend in a layer that fails every
  /// 50th invoke, so the checks must report failed ops.
  bool break_backend = false;
  /// Test hook: generate the inputs, print their digest and exact counts
  /// as the result metrics, and skip the measurement.
  bool inputs_only = false;
};

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Thread budget of a workload, printed in the fingerprint.
struct ThreadSplit {
  int client_threads = 0;
  int io_threads = 0;
  int align_workers = 0;
  int writers = 0;
};

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> sample, double p);
double median(std::vector<double> sample);

/// Op latency histogram in fixed memory: log-linear buckets 1/512 of an
/// octave wide (0.2%), so the benchmark's own bookkeeping costs the same
/// memory however many ops a run completes and peak_rss_mb stays the
/// program's. Percentiles interpolate within the bucket.
class Histogram {
 public:
  void add(std::int64_t ns);
  void merge(const Histogram& o);
  std::uint64_t count() const { return total_; }
  /// Nearest-rank percentile in ns (p in [0, 100]); 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50); }

 private:
  static constexpr int kSubBits = 9;
  static constexpr std::size_t kBuckets = (2u << kSubBits) + 40 * (1u << kSubBits);
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// Ops completed in each full window of a measured chunk [begin, end).
class Windows {
 public:
  Windows(std::int64_t begin, std::int64_t end, double window_s);
  void add(std::int64_t done_ns) {
    if (done_ns < begin_) return;
    auto w = static_cast<std::size_t>((done_ns - begin_) / window_ns_);
    if (w < counts_.size()) ++counts_[w];
  }
  void merge(const Windows& o);
  /// Ops per second in each window.
  std::vector<double> rates() const;

 private:
  std::int64_t begin_;
  std::int64_t window_ns_;
  std::vector<std::uint64_t> counts_;
};

/// Threads that live for the whole run and run `job(i)` once per call to
/// run(), so measured chunks neither pay thread start-up nor leave a fresh
/// per-thread heap arena behind each (which would grow peak_rss_mb with the
/// number of chunks rather than with the program's state).
class Crew {
 public:
  Crew(int n, std::function<void(int)> job);
  ~Crew();
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  /// Run the job once on every thread; returns when all have finished.
  void run();

 private:
  void loop(int i);

  std::function<void(int)> job_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;  // guarded by mu_
  int running_ = 0;               // guarded by mu_
  bool stop_ = false;             // guarded by mu_
  std::vector<std::thread> threads_;  // last: started after the state above
};

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Heap allocations counted by main.cpp's operator new on threads that
/// have not called exclude_thread_from_alloc_count().
std::uint64_t counted_allocs();
void exclude_thread_from_alloc_count();

// -------------------------------------------------------------- schedule --

/// A workload as run() sees it. run() calls setup_live() once, then
/// alternates measure() chunks with setup_scratch() repetitions, so
/// set-up samples are spread over the run instead of bunched at its start.
struct Workload {
  virtual ~Workload() = default;
  /// Generate every input from the seed (not timed).
  virtual void prepare(const Options& opts, Result& out) = 0;
  /// The set-up the measured ops run on; returns its wall seconds.
  virtual double setup_live() = 0;
  /// Identical set-ups in throwaway instances; returns their wall seconds
  /// (one sample, or several when one set-up takes only milliseconds).
  virtual std::vector<double> setup_scratch() = 0;
  /// Run load for `seconds`; `traced` records spans.
  virtual void measure(double seconds, bool traced) = 0;
  /// Correctness checks and metrics, after the last chunk.
  virtual void finish(const Options& opts, Result& out) = 0;
  virtual ThreadSplit threads() const = 0;
  /// Inputs-only mode: digest and exact counts of the generated inputs.
  virtual void describe_inputs(Result& out) = 0;
};

/// Run `w` per `opts` and return the result.
Result run(Workload& w, const Options& opts);

/// FNV-1a over `text`, for input digests.
std::uint64_t fnv1a(const std::string& text, std::uint64_t h = 1469598103934665603ull);

/// Per-workload factories (agent_http.cpp, durable_writes.cpp, align_loop.cpp).
std::unique_ptr<Workload> make_agent_http();
std::unique_ptr<Workload> make_durable_writes();
std::unique_ptr<Workload> make_align_loop();

}  // namespace perfbench
