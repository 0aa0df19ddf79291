// Virtual time through the durability stack: the v2 store codec carries
// the clock + armed timer set byte-exactly (with v1 inputs still
// accepted), and journaled _AdvanceClock records make recovery and replay
// re-fire the exact same timer sequence.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/api.h"
#include "common/value.h"
#include "interp/interpreter.h"
#include "interp/timers.h"
#include "persist/format.h"
#include "persist/journal.h"
#include "persist/persist_test_util.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace lce::persist {
namespace {

using persist::testing::ScratchDir;
using persist::testing::load_spec;

interp::Interpreter make_timer_interp() {
  return interp::Interpreter(load_spec(spec::fixtures::kTimerSpec));
}

ApiResponse invoke(interp::Interpreter& it, const std::string& api,
                   Value::Map args = {}, const std::string& target = "") {
  return it.invoke(ApiRequest{api, std::move(args), target});
}

ApiResponse tick(interp::Interpreter& it, std::int64_t ticks) {
  return invoke(it, std::string(interp::timers::kAdvanceClockApi),
                {{"ticks", Value(ticks)}});
}

LogRecord journaled(interp::Interpreter& it, const std::string& api,
                    Value::Map args = {}, const std::string& target = "") {
  LogRecord rec;
  rec.type = LogRecord::Type::kCall;
  rec.request = ApiRequest{api, std::move(args), target};
  rec.has_response = true;
  rec.response = it.invoke(rec.request);
  rec.minted_ids = collect_minted_ids(rec.response);
  return rec;
}

TEST(TimerRecovery, StoreCodecRoundTripsArmedTimers) {
  auto live = make_timer_interp();
  ASSERT_TRUE(invoke(live, "RunInstance", {{"zone", Value("us-east")}}).ok);
  ASSERT_TRUE(invoke(live, "CreateMonitor").ok);
  ASSERT_TRUE(tick(live, 2).ok);  // launch timer mid-countdown (due t=3)

  std::string blob = serialize_store(live.store());
  auto twin = make_timer_interp();
  ASSERT_TRUE(deserialize_store(blob, &twin.store()));
  EXPECT_EQ(serialize_store(twin.store()), blob);

  // The restored clock/seq/armed set fires the exact same future: advance
  // both sides identically and compare dumps again.
  auto live_fire = tick(live, 5);
  auto twin_fire = tick(twin, 5);
  ASSERT_TRUE(live_fire.ok);
  EXPECT_EQ(live_fire.to_text(), twin_fire.to_text());
  EXPECT_EQ(live_fire.data.get("fired")->as_int(), 2);  // launch + beat
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(live.store()));
}

TEST(TimerRecovery, VersionOneBlobStillLoads) {
  // A v1 blob is a v2 blob of a timerless store minus the 24-byte empty
  // virtual-time tail (now, seq counter, count), with the version word
  // patched down. Old data dirs must keep loading, at tick 0.
  auto live = make_timer_interp();
  ASSERT_TRUE(invoke(live, "RunInstance", {{"zone", Value("us-east")}}).ok);
  std::string v2 = serialize_store(live.store());
  // Strip the armed launch timer by restoring an empty timer state first.
  auto clean = make_timer_interp();
  ASSERT_TRUE(deserialize_store(v2, &clean.store()));
  clean.store().timers().restore(0, 1, {});
  std::string v2_no_timers = serialize_store(clean.store());

  std::string v1 = v2_no_timers.substr(0, v2_no_timers.size() - 24);
  ASSERT_EQ(static_cast<unsigned char>(v1[0]), 2u);
  v1[0] = 1;

  auto twin = make_timer_interp();
  ASSERT_TRUE(deserialize_store(v1, &twin.store()));
  EXPECT_EQ(serialize_store(twin.store()), v2_no_timers);
  EXPECT_EQ(twin.store().timers().now(), 0u);
  EXPECT_EQ(twin.store().timers().armed_count(), 0u);
}

TEST(TimerRecovery, TruncatedVirtualTimeSectionRejected) {
  auto live = make_timer_interp();
  ASSERT_TRUE(invoke(live, "RunInstance", {{"zone", Value("us-east")}}).ok);
  std::string blob = serialize_store(live.store());
  auto twin = make_timer_interp();
  // Chop inside the armed-timer entries: the codec must fail closed, not
  // load half a timer set.
  EXPECT_FALSE(deserialize_store(
      std::string_view(blob).substr(0, blob.size() - 5), &twin.store()));
}

TEST(TimerRecovery, JournaledAdvancesReplayFireSequence) {
  auto live = make_timer_interp();
  std::vector<LogRecord> log;
  log.push_back(journaled(live, "RunInstance", {{"zone", Value("us-east")}}));
  const std::string id(log[0].response.data.get("id")->as_str());
  log.push_back(journaled(live, "CreateMonitor"));
  log.push_back(journaled(live, std::string(interp::timers::kAdvanceClockApi),
                          {{"ticks", Value(3)}}));  // launch fires
  log.push_back(journaled(live, "StopInstance", {{"id", Value::ref(id)}}));
  log.push_back(journaled(live, std::string(interp::timers::kAdvanceClockApi),
                          {{"ticks", Value(4)}}));  // stop at 5, beat at 5
  ASSERT_EQ(log.back().response.data.get("fired")->as_int(), 2);

  auto twin = make_timer_interp();
  ApplyResult result = apply_records(log, &twin);
  EXPECT_EQ(result.applied, log.size());
  EXPECT_EQ(result.mismatches, 0u) << result.first_mismatch;
  EXPECT_EQ(serialize_store(twin.store()), serialize_store(live.store()));
}

TEST(TimerRecovery, WalRecoveryRestoresMidCountdownWheel) {
  // Crash with the launch timer one tick from due: recovery must rebuild
  // the wheel from the journaled advances and fire at the original
  // deadline, not restart the countdown.
  ScratchDir dir;
  auto live = make_timer_interp();
  std::vector<LogRecord> log;
  log.push_back(journaled(live, "RunInstance", {{"zone", Value("us-east")}}));
  const std::string id(log[0].response.data.get("id")->as_str());
  log.push_back(journaled(live, std::string(interp::timers::kAdvanceClockApi),
                          {{"ticks", Value(2)}}));
  std::string error;
  ASSERT_TRUE(write_wal_file(wal_path(dir.path(), 1), log, &error)) << error;

  auto it = make_timer_interp();
  RecoveryResult rec = recover_into(dir.path(), &it);
  EXPECT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.wal_records, 2u);
  EXPECT_EQ(rec.mismatches, 0u) << rec.first_mismatch;
  EXPECT_EQ(serialize_store(it.store()), serialize_store(live.store()));

  auto recovered_fire = tick(it, 1);
  auto live_fire = tick(live, 1);
  ASSERT_TRUE(recovered_fire.ok);
  EXPECT_EQ(recovered_fire.data.get("fired")->as_int(), 1);
  EXPECT_EQ(recovered_fire.to_text(), live_fire.to_text());
  EXPECT_EQ(serialize_store(it.store()), serialize_store(live.store()));
}

TEST(TimerRecovery, SnapshotPlusWalTailCarriesTimers) {
  ScratchDir dir;
  auto live = make_timer_interp();
  ASSERT_TRUE(invoke(live, "CreateMonitor").ok);
  ASSERT_TRUE(tick(live, 4).ok);  // beat due at 5, one tick away
  std::string error;
  ASSERT_TRUE(write_snapshot_file(snapshot_path(dir.path(), 2),
                                  serialize_store(live.store()), &error))
      << error;
  std::vector<LogRecord> tail;
  tail.push_back(journaled(live, std::string(interp::timers::kAdvanceClockApi),
                           {{"ticks", Value(6)}}));  // beat at 5, re-armed beat at 10
  ASSERT_EQ(tail.back().response.data.get("fired")->as_int(), 2);
  ASSERT_TRUE(write_wal_file(wal_path(dir.path(), 2), tail, &error)) << error;

  auto it = make_timer_interp();
  RecoveryResult rec = recover_into(dir.path(), &it);
  EXPECT_TRUE(rec.ok) << rec.error;
  EXPECT_TRUE(rec.snapshot_loaded);
  EXPECT_EQ(rec.mismatches, 0u) << rec.first_mismatch;
  EXPECT_EQ(serialize_store(it.store()), serialize_store(live.store()));
  // The periodic monitor keeps beating identically after recovery.
  EXPECT_EQ(tick(it, 5).to_text(), tick(live, 5).to_text());
  EXPECT_EQ(serialize_store(it.store()), serialize_store(live.store()));
}

TEST(TimerReplay, ReplayDirVerifiesAdvanceResponses) {
  // lce replay over a data dir with journaled advances: both fresh twins
  // re-execute the log, response mismatches 0, dumps identical.
  ScratchDir dir;
  auto live = make_timer_interp();
  std::vector<LogRecord> log;
  log.push_back(journaled(live, "RunInstance", {{"zone", Value("us-east")}}));
  log.push_back(journaled(live, std::string(interp::timers::kAdvanceClockApi),
                          {{"ticks", Value(3)}}));
  std::string error;
  ASSERT_TRUE(write_wal_file(wal_path(dir.path(), 1), log, &error)) << error;

  auto a = make_timer_interp();
  auto b = make_timer_interp();
  ReplayReport rep = replay_dir(dir.path(), &a, &b);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.recovery.wal_records, 2u);
  EXPECT_EQ(rep.mismatches, 0u) << rep.first_mismatch;
  EXPECT_TRUE(rep.dumps_identical);
}

}  // namespace
}  // namespace lce::persist
