// Workload durable-writes (README.md): three closed-loop writer threads
// replay the agent sessions of sessions.h in process through the default
// durable stack — validate + metrics + persist::JournalLayer over the
// sharded interpreter, WAL sync policy kNone — with no server at all. A
// writer sends a session's corpus calls and its teardown; the agent's
// look-around and observe reads are agent-http's side. The benchmark
// itself takes a snapshot every kSnapshotEvery journaled records, the
// cadence `lce serve --data-dir` defaults to.
//
// Set-up is PersistManager::open, into a fresh interpreter, recovering a
// seeded data dir: a snapshot of the account plus a WAL tail one record
// short of the next snapshot, the longest tail a restart under that cadence
// finds. The tail is the start of the writers' own session streams, so the
// measured run continues them on the recovered state.
//
// Correctness: every op's outcome must equal the session's recorded one,
// and after the run a fresh interpreter recovered from the data dir must
// hold the live state — every acknowledged write survives a restart (see
// finish()).
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <optional>

#include "common/interned.h"
#include "harness.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "pipeline.h"
#include "sessions.h"
#include "spans.h"
#include "stack/config.h"
#include "stack/layers.h"

namespace perfbench {

namespace {

using lce::ApiRequest;
using lce::ApiResponse;
using lce::Value;
namespace fs = std::filesystem;

constexpr int kWriters = 3;
constexpr std::size_t kSessionPool = 2048;
// tools/lce_cli.cpp: `lce serve --data-dir` snapshots every 10000 records.
constexpr std::uint64_t kSnapshotEvery = 10000;
constexpr std::uint64_t kSeedWalRecords = kSnapshotEvery - 1;
constexpr double kWindowS = 0.2;
// Scratch recoveries per measured chunk (each takes most of a second).
constexpr int kSetupReps = 1;

/// One writer's position in its session stream: sessions w, w + kWriters,
/// w + 2 kWriters, ... of the pool, each from its first step.
struct Writer {
  std::size_t session_seq = 0;
  std::size_t step = 0;
  std::vector<ApiResponse> prior;
};

bool writes(const Step& step) {
  return step.kind == Step::Kind::kCall || step.kind == Step::Kind::kTeardown;
}

class DurableWrites final : public Workload {
 public:
  ~DurableWrites() override;
  void prepare(const Options& opts, Result& out) override;
  double setup_live() override;
  std::vector<double> setup_scratch() override;
  void measure(double seconds, bool traced) override;
  void finish(const Options& opts, Result& out) override;
  ThreadSplit threads() const override { return {0, 0, 0, kWriters}; }
  void describe_inputs(Result& out) override;

 private:
  lce::persist::PersistOptions persist_options(const std::string& dir) const;
  /// The writer's next op: its session, the step, the request.
  const Session& next(int wi, const Step*& step, ApiRequest& req);
  /// Record the reply and advance the writer past the step.
  void advance(int wi, const Session& s, const Step& step, ApiResponse resp);
  void writer_loop(int w);

  Options opts_;
  std::string root_, seed_dir_, live_dir_, scratch_dir_;
  SessionPool pool_;
  Writer writers_[kWriters];
  std::string input_text_;  // inputs-only digest source

  std::unique_ptr<lce::interp::Interpreter> empty_;  // cloned for each scratch recovery
  std::unique_ptr<lce::interp::Interpreter> live_;
  std::unique_ptr<lce::persist::PersistManager> mgr_;
  std::unique_ptr<BrokenBackend> broken_;
  std::optional<lce::stack::LayerStack> plain_stack_, traced_stack_;
  std::unique_ptr<SpanBackend> interp_span_;
  std::uint64_t recovered_records_ = 0;

  bool chunk_traced_ = false;  // the current chunk's settings, written before crew_.run()
  std::int64_t deadline_ = 0;
  std::atomic<std::uint64_t> records_{0};  // journaled records since the seed snapshot
  std::uint64_t op_seq_[kWriters] = {};    // per-writer request ids, across chunks
  std::mutex mu_;  // guards everything below
  Histogram untraced_, traced_;
  std::optional<Windows> windows_;  // the current untraced chunk's, merged under mu_
  std::vector<double> window_rates_, snapshot_ms_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  ClassCounts sent_;
  std::string first_failure_;
  std::uint64_t wal_bytes_ = 0, wal_records_ = 0;  // summed over rotated epochs

  Crew crew_{kWriters, [this](int w) { writer_loop(w); }};  // last: uses everything above
};

DurableWrites::~DurableWrites() {
  mgr_.reset();
  if (!root_.empty()) {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
}

lce::persist::PersistOptions DurableWrites::persist_options(const std::string& dir) const {
  lce::persist::PersistOptions p;
  p.data_dir = dir;
  p.sync = lce::persist::WalSync::kNone;
  p.snapshot_every = 0;  // the benchmark takes them on its own cadence
  return p;
}

const Session& DurableWrites::next(int wi, const Step*& step, ApiRequest& req) {
  Writer& w = writers_[wi];
  const auto& sessions = pool_.sessions();
  for (;;) {
    const Session& s = sessions[(wi + w.session_seq * kWriters) % sessions.size()];
    if (w.step == 0) w.prior.assign(pool_.trace_calls(s), ApiResponse{});
    for (; w.step < s.steps.size(); ++w.step) {
      if (writes(s.steps[w.step])) {
        step = &s.steps[w.step];
        req = pool_.request(s, *step, w.prior);
        return s;
      }
    }
    w.step = 0;
    ++w.session_seq;
  }
}

void DurableWrites::advance(int wi, const Session& s, const Step& step, ApiResponse resp) {
  Writer& w = writers_[wi];
  if (step.kind == Step::Kind::kCall) w.prior[step.index] = std::move(resp);
  if (++w.step == s.steps.size()) {
    w.step = 0;
    ++w.session_seq;
  }
}

void DurableWrites::prepare(const Options& opts, Result& out) {
  opts_ = opts;
  empty_ = build_aws_emulator();
  {
    auto planner = build_aws_emulator();
    pool_.build(*planner, opts.seed, kSessionPool);
  }
  input_text_ = pool_.digest_text();

  // The seeded data dir: the account in a snapshot, then the first
  // kSeedWalRecords journaled records of the writers' streams.
  root_ = fs::absolute(opts.out_dir).string() + "/durable-" + std::to_string(::getpid());
  seed_dir_ = root_ + "/seed";
  live_dir_ = root_ + "/live";
  scratch_dir_ = root_ + "/scratch";
  fs::remove_all(root_);
  fs::create_directories(root_);
  auto seeded = build_aws_emulator();
  std::string error;
  auto seeder = lce::persist::PersistManager::open(*seeded, persist_options(seed_dir_), &error);
  if (seeder == nullptr) {
    out.correct = false;
    out.note("cannot create the seeded data dir: " + error);
    return;
  }
  lce::stack::StackConfig config;
  config.journal = [m = seeder.get()] { return std::make_unique<lce::persist::JournalLayer>(m); };
  lce::stack::LayerStack seed_stack = lce::stack::build_stack(*seeded, config);
  pool_.prepopulate(seed_stack);
  if (!seeder->take_snapshot(&error)) out.note("seed snapshot failed: " + error);
  std::size_t seed_failures = 0;
  for (int wi = 0; seeder->status().wal_records < kSeedWalRecords; wi = (wi + 1) % kWriters) {
    const Step* step = nullptr;
    ApiRequest req;
    const Session& s = next(wi, step, req);
    ApiResponse resp = seed_stack.invoke(req);
    seed_failures += (resp.ok ? "" : resp.code) == s.expected[writers_[wi].step] ? 0 : 1;
    input_text_ += req.to_text();
    advance(wi, s, *step, std::move(resp));
  }
  records_ = seeder->status().wal_records;
  if (seed_failures != 0) {
    out.correct = false;
    out.note(std::to_string(seed_failures) + " seeding op(s) differed from the recorded outcome");
  }
  out.note("data dir: snapshot of the account (the corpus replayed once, " +
           std::to_string(pool_.account_size()) + " resources) + WAL tail of " +
           std::to_string(records_.load()) + " records; " + std::to_string(pool_.sessions().size()) +
           " sessions");
}

void DurableWrites::describe_inputs(Result& out) {
  out.note("inputs digest: " + std::to_string(fnv1a(input_text_)));
  out.set("inputs.account_resources", static_cast<double>(pool_.account_size()), "count");
  out.set("inputs.wal_records", static_cast<double>(records_.load()), "count");
}

double DurableWrites::setup_live() {
  fs::copy(seed_dir_, live_dir_, fs::copy_options::recursive);
  live_ = build_aws_emulator();
  std::string error;
  lce::persist::RecoveryResult recovery;
  std::int64_t t0 = now_ns();
  {
    SpanScope span("persist.open");
    mgr_ = lce::persist::PersistManager::open(*live_, persist_options(live_dir_), &error,
                                              &recovery);
  }
  double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  if (mgr_ == nullptr) {
    std::fprintf(stderr, "durable-writes: cannot open the data dir: %s\n", error.c_str());
    std::exit(1);
  }
  recovered_records_ = recovery.wal_records;

  lce::CloudBackend* base = live_.get();
  if (opts_.break_backend) {
    broken_ = std::make_unique<BrokenBackend>(*live_);
    base = broken_.get();
  }
  lce::stack::StackConfig config;
  config.journal = [m = mgr_.get()] { return std::make_unique<lce::persist::JournalLayer>(m); };
  plain_stack_.emplace(lce::stack::build_stack(*base, config));
  if (opts_.trace) {
    // The same chain pushed by hand (config.h order, inner to outer) with
    // spans around the interpreter and the journal layer.
    interp_span_ = std::make_unique<SpanBackend>("interp.invoke", *base);
    traced_stack_.emplace(*interp_span_);
    traced_stack_->push(std::make_unique<lce::persist::JournalLayer>(mgr_.get()));
    traced_stack_->push(std::make_unique<SpanLayer>("persist.journal"));
    traced_stack_->push(std::make_unique<lce::stack::ValidateLayer>());
    traced_stack_->push(std::make_unique<lce::stack::MetricsLayer>());
  }
  return seconds;
}

std::vector<double> DurableWrites::setup_scratch() {
  std::vector<double> out;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // A fresh interpreter, like setup_live's; cloning it is not timed.
    std::unique_ptr<lce::CloudBackend> fresh = empty_->clone();
    auto& interp = static_cast<lce::interp::Interpreter&>(*fresh);
    fs::remove_all(scratch_dir_);
    fs::copy(seed_dir_, scratch_dir_, fs::copy_options::recursive);
    std::string error;
    std::int64_t t0 = now_ns();
    std::unique_ptr<lce::persist::PersistManager> mgr;
    {
      SpanScope span("persist.open");
      mgr = lce::persist::PersistManager::open(interp, persist_options(scratch_dir_), &error);
    }
    out.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  fs::remove_all(scratch_dir_);
  return out;
}

void DurableWrites::writer_loop(int wi) {
  const bool traced = chunk_traced_;
  lce::stack::LayerStack& stack = traced ? *traced_stack_ : *plain_stack_;
  Histogram samples;
  Windows windows = *windows_;
  std::vector<double> snapshots;
  std::uint64_t attempted = 0, failed = 0, wal_bytes = 0, wal_records = 0;
  ClassCounts sent;
  std::string first_failure;
  const std::int64_t deadline = deadline_;
  while (now_ns() < deadline) {
    const Step* step = nullptr;
    ApiRequest req;
    const Session& s = next(wi, step, req);
    const OpClass cls = s.classes[writers_[wi].step];
    std::int64_t t0 = now_ns();
    ApiResponse resp;
    {
      SpanScope span("stack.invoke", (static_cast<std::uint64_t>(wi + 1) << 48) | ++op_seq_[wi]);
      resp = stack.invoke(req);
    }
    // The journal logs every call that is not a read, ok or not.
    if (cls != OpClass::kRead &&
        (records_.fetch_add(1, std::memory_order_relaxed) + 1) % kSnapshotEvery == 0) {
      lce::persist::PersistStatus st = mgr_->status();
      wal_bytes += st.wal_bytes;
      wal_records += st.wal_records;
      std::string error;
      std::int64_t s0 = now_ns();
      bool ok;
      {
        SpanScope span("persist.snapshot");
        ok = mgr_->take_snapshot(&error);
      }
      snapshots.push_back(static_cast<double>(now_ns() - s0) / 1e6);
      if (!ok && first_failure.empty()) first_failure = "snapshot failed: " + error;
      failed += ok ? 0 : 1;
    }
    std::int64_t t1 = now_ns();
    samples.add(t1 - t0);
    if (!traced) {
      windows.add(t1);
      sent.add(cls);
    }
    ++attempted;
    std::string outcome = resp.ok ? "" : resp.code;
    const std::string& expected = s.expected[writers_[wi].step];
    if (outcome != expected) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = req.api + ": got '" + outcome + "', expected '" + expected + "'";
      }
    }
    advance(wi, s, *step, std::move(resp));
  }
  std::lock_guard<std::mutex> lock(mu_);
  (traced ? traced_ : untraced_).merge(samples);
  windows_->merge(windows);
  snapshot_ms_.insert(snapshot_ms_.end(), snapshots.begin(), snapshots.end());
  attempted_ += attempted;
  failed_ += failed;
  sent_.merge(sent);
  wal_bytes_ += wal_bytes;
  wal_records_ += wal_records;
  if (first_failure_.empty()) first_failure_ = first_failure;
}

void DurableWrites::measure(double seconds, bool traced) {
  spans::set_enabled(traced);
  chunk_traced_ = traced;
  const std::int64_t begin = now_ns();
  deadline_ = begin + static_cast<std::int64_t>(seconds * 1e9);
  windows_.emplace(begin, deadline_, kWindowS);
  crew_.run();
  spans::set_enabled(false);
  if (!traced) {
    for (double r : windows_->rates()) window_rates_.push_back(r);
  }
}

void DurableWrites::finish(const Options& opts, Result& out) {
  out.attempted = attempted_;
  out.failed = failed_;
  if (!first_failure_.empty()) out.note("first failed op: " + first_failure_);

  // Every acknowledged write must survive a restart: recover the data dir
  // into a fresh interpreter and compare it with the live one — every
  // resource with its attributes, and the id counters that decide future
  // ids. The canonical dumps are compared too, but a difference there alone
  // is reported, not failed: they also order resources by creation
  // sequence, and concurrent writers can commit in another order than
  // their WAL records land, which recovery does not reproduce (the
  // determinism caveat in persist/recovery.h).
  lce::persist::PersistStatus st = mgr_->status();
  wal_bytes_ += st.wal_bytes;
  wal_records_ += st.wal_records;
  auto fresh = build_aws_emulator();
  lce::persist::RecoveryResult rr = lce::persist::recover_into(live_dir_, fresh.get());
  bool same = rr.ok && rr.mismatches == 0 && live_->snapshot() == fresh->snapshot() &&
              live_->store().id_counters() == fresh->store().id_counters();
  if (same && lce::persist::serialize_store(live_->store()) !=
                  lce::persist::serialize_store(fresh->store())) {
    out.note("recovered state equals the live state, but the canonical dumps differ: "
             "creation-sequence order after recovery follows the WAL, not the commit order");
  }
  if (!same) {
    out.failed = out.attempted;
    out.note("recovered state differs from the live state (recovery ok=" +
             std::to_string(rr.ok) + ", mismatches=" + std::to_string(rr.mismatches) +
             (rr.first_mismatch.empty() ? "" : ", first: " + rr.first_mismatch) +
             "); every op counts as failed");
  }
  out.correct = out.correct && out.failed == 0;
  out.note("measured mix (untraced ops): " + sent_.shares());
  out.note("flush policy: WalSync::kNone (write() to the page cache, no fdatasync) for the "
           "seeded data dir and the measured writes; snapshot every " +
           std::to_string(kSnapshotEvery) + " journaled records");
  out.note("time layer not reached: the AWS corpus has no `after` clauses");

  double p50 = untraced_.median();
  out.set("latency_p50_us", p50 / 1e3, "us");
  out.set("latency_p99_us", untraced_.percentile(99) / 1e3, "us");
  out.set("ops_s", median(window_rates_), "1/s");
  out.note("untraced ops: " + std::to_string(untraced_.count()) + ", snapshots: " +
           std::to_string(snapshot_ms_.size()));
  if (!opts.trace) return;

  out.set("trace_overhead_pct", (traced_.median() / p50 - 1) * 100, "%");
  out.set("persist.recovered_records", static_cast<double>(recovered_records_), "count");
  out.set("persist.snapshots", static_cast<double>(snapshot_ms_.size()), "count");
  out.set("persist.snapshot_ms_p50", median(snapshot_ms_), "ms");
  out.set("persist.snapshot_ms_max", percentile(snapshot_ms_, 100), "ms");
  if (wal_records_ > 0) {
    out.set("persist.wal_bytes_per_write", static_cast<double>(wal_bytes_) / wal_records_, "B");
  }
  out.set("common.keytable_size", static_cast<double>(lce::KeyTable::instance().size()), "count");

  std::vector<Span> all = spans::collect();
  std::vector<std::int64_t> self = spans::self_times(all);
  std::vector<double> stack_self, journal_self, interp, recover;
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::string_view name = all[i].name;
    if (name == "stack.invoke") stack_self.push_back(static_cast<double>(self[i]) / 1e3);
    if (name == "persist.journal") journal_self.push_back(static_cast<double>(self[i]) / 1e3);
    if (name == "interp.invoke") interp.push_back(static_cast<double>(all[i].dur()) / 1e3);
    if (name == "persist.open") recover.push_back(static_cast<double>(all[i].dur()) / 1e6);
  }
  out.set("stack.self_us_p50", median(stack_self), "us");
  out.set("persist.journal_us_p50", median(journal_self), "us");
  out.set("interp.invoke_us_p50", median(interp), "us");
  out.set("persist.recover_ms", median(recover), "ms");
  std::string path = opts.out_dir + "/spans-durable-writes-seed" + std::to_string(opts.seed) + ".csv";
  if (spans::write_csv(path, all)) out.note("span dump: " + path);
}

}  // namespace

std::unique_ptr<Workload> make_durable_writes() { return std::make_unique<DurableWrites>(); }

}  // namespace perfbench
