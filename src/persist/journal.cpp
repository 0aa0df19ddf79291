#include "persist/journal.h"

#include <unistd.h>

#include <mutex>
#include <utility>

#include "common/strings.h"
#include "interp/interpreter.h"
#include "persist/snapshot.h"
#include "stack/layers.h"

namespace lce::persist {

PersistManager::PersistManager(interp::Interpreter& interp, PersistOptions opts,
                               std::uint64_t epoch,
                               std::unique_ptr<WalWriter> wal)
    : interp_(interp), opts_(std::move(opts)), epoch_(epoch),
      wal_(std::move(wal)) {}

std::unique_ptr<PersistManager> PersistManager::open(interp::Interpreter& interp,
                                                     PersistOptions opts,
                                                     std::string* error,
                                                     RecoveryResult* recovery) {
  if (!ensure_dir(opts.data_dir, error)) return nullptr;
  RecoveryResult rec = recover_into(opts.data_dir, &interp);
  if (recovery != nullptr) *recovery = rec;
  if (!rec.ok) {
    if (error != nullptr) *error = rec.error;
    return nullptr;
  }
  auto wal = WalWriter::open(wal_path(opts.data_dir, rec.epoch), opts.sync, error);
  if (wal == nullptr) return nullptr;
  return std::unique_ptr<PersistManager>(
      new PersistManager(interp, std::move(opts), rec.epoch, std::move(wal)));
}

bool PersistManager::should_log(const std::string& api) const {
  return opts_.log_reads || !stack::ReadCacheLayer::is_read_api(api);
}

bool PersistManager::journal_call(const ApiRequest& req, const ApiResponse& resp) {
  LogRecord rec;
  rec.type = LogRecord::Type::kCall;
  rec.request = req;
  rec.has_response = true;
  rec.response = resp;
  rec.minted_ids = collect_minted_ids(resp);
  return wal_->append(rec);
}

bool PersistManager::journal_reset() {
  LogRecord rec;
  rec.type = LogRecord::Type::kReset;
  return wal_->append(rec);
}

bool PersistManager::take_snapshot(std::string* error) {
  std::unique_lock<std::shared_mutex> gate(gate_);
  // Every in-flight logged invoke has released the gate, so the store and
  // the WAL agree. Reads may still be running — take shared stripes for
  // the dump (gate -> stripes matches the writers' lock order).
  std::string bytes;
  {
    auto stripes = interp_.store().locks().lock_shared_all();
    bytes = serialize_store(interp_.store());
  }
  const std::uint64_t next_epoch = epoch_ + 1;
  const std::string next_wal = wal_path(opts_.data_dir, next_epoch);
  const std::string next_snap = snapshot_path(opts_.data_dir, next_epoch);
  // Start the next epoch's WAL BEFORE the snapshot becomes discoverable.
  // If any step up to the rename fails, nothing references epoch E+1 yet:
  // recovery keeps pairing snap-E with wal-E, so every acked write stays
  // recoverable and serving continues on the old epoch. (The reverse
  // order would let a WAL-open failure strand acked writes in wal-E while
  // recovery pairs snap-(E+1) with the missing wal-(E+1).) The fresh
  // create also truncates any stale wal-(E+1) a prior life left behind,
  // whose records must not replay on top of the new snapshot.
  auto wal = WalWriter::create_fresh(next_wal, opts_.sync, error);
  if (wal == nullptr) return false;
  // Write, then re-validate: once remove_stale_epochs runs, this snapshot
  // is the only copy of the state, so it must prove readable first.
  std::string check;
  if (!write_snapshot_file(next_snap, bytes, error) ||
      !read_snapshot_file(next_snap, &check) || check != bytes) {
    if (error != nullptr && error->empty()) {
      *error = strf(next_snap, " did not validate after writing");
    }
    wal.reset();
    ::unlink(next_snap.c_str());
    ::unlink(next_wal.c_str());
    return false;
  }
  wal_ = std::move(wal);
  epoch_ = next_epoch;
  snapshots_taken_.fetch_add(1, std::memory_order_relaxed);
  remove_stale_epochs(opts_.data_dir, epoch_);
  return true;
}

void PersistManager::maybe_auto_snapshot() {
  if (opts_.snapshot_every == 0) return;
  {
    std::shared_lock<std::shared_mutex> gate(gate_);
    if (wal_->record_count() < opts_.snapshot_every) return;
  }
  // One trigger wins; racers skip rather than queue behind the exclusive
  // gate for a snapshot that will already have rotated their records out.
  bool expected = false;
  if (!snapshotting_.compare_exchange_strong(expected, true)) return;
  std::string error;
  take_snapshot(&error);  // failure keeps serving on the old epoch
  snapshotting_.store(false);
}

PersistStatus PersistManager::status() const {
  PersistStatus st;
  std::shared_lock<std::shared_mutex> gate(gate_);
  st.epoch = epoch_;
  st.wal_records = wal_->record_count();
  st.wal_bytes = wal_->size_bytes();
  st.snapshots_taken = snapshots_taken_.load(std::memory_order_relaxed);
  st.failed = wal_->failed();
  return st;
}

ApiResponse JournalLayer::invoke(const ApiRequest& req) {
  if (manager_ == nullptr || !manager_->should_log(req.api)) {
    return inner().invoke(req);
  }
  ApiResponse resp;
  {
    std::shared_lock<std::shared_mutex> gate(manager_->gate());
    resp = inner().invoke(req);
    if (!manager_->journal_call(req, resp)) {
      // The mutation may have committed but its record did not: acking it
      // would break the recovery contract, so the client sees a retryable
      // server error instead.
      return ApiResponse::failure("InternalError",
                                  "write-ahead log append failed");
    }
  }
  manager_->maybe_auto_snapshot();
  return resp;
}

void JournalLayer::reset() {
  if (manager_ == nullptr) {
    inner().reset();
    return;
  }
  std::unique_lock<std::shared_mutex> gate(manager_->gate());
  inner().reset();
  // An append failure latches the WAL's sticky failed flag; the HTTP
  // handler reads it back via status().failed and refuses to ack the
  // un-logged reset (same no-unlogged-ack rule as the invoke path —
  // recovery would otherwise resurrect the pre-reset state).
  manager_->journal_reset();
}

std::unique_ptr<stack::BackendLayer> JournalLayer::clone_detached() const {
  // Clones must NOT journal: two chains appending to one WAL would
  // interleave un-replayable state lines. The clone passes through.
  return std::make_unique<JournalLayer>(nullptr);
}

}  // namespace lce::persist
