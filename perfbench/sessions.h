// Agent sessions drawn from the AWS emulator's symbolic trace corpus
// (align::TraceGenerator::generate_all), shared by agent-http, which sends
// every step over HTTP, and durable-writes, which replays the corpus calls
// and the teardown in process (README.md "Traffic").
//
// The account the sessions run against is the corpus replayed once, trace
// by trace: one of everything the corpus builds. A session looks at random
// account resources, replays one drawn trace (describing each resource
// right after creating it) and deletes what it created, in reverse order.
// The look-arounds bring each session's read share up to the repository's
// describe-heavy serve mix (EXPERIMENTS.md S1: 80% describes). Every step's
// ok/error-code outcome is recorded beforehand by replaying the session in
// process through the default stack.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "align/trace_gen.h"
#include "common/api.h"
#include "interp/interpreter.h"

namespace perfbench {

/// Read share each session is topped up to with look-around describes.
inline constexpr double kSessionReadShare = 0.8;

/// A resource type's instance-scoped calls; both take the target as "id".
struct MachineApis {
  std::string describe;
  std::string destroy;
};

struct Step {
  enum class Kind { kLook, kCall, kObserve, kTeardown };
  Kind kind = Kind::kCall;
  std::size_t index = 0;  // kLook: account target; otherwise trace call index
};

/// What a request does to the account, for the traffic shares.
enum class OpClass { kRead, kCreate, kModify, kDelete };
inline constexpr const char* kOpClassNames[] = {"read", "create", "modify", "delete"};

struct Session {
  std::size_t trace = 0;
  std::vector<Step> steps;
  std::vector<std::string> expected;  // per step: "" = ok, else error code
  std::vector<OpClass> classes;       // per step
};

/// Requests sent per OpClass, for the measured traffic shares.
struct ClassCounts {
  std::uint64_t n[4] = {};
  void add(OpClass c) { ++n[static_cast<int>(c)]; }
  void merge(const ClassCounts& o) {
    for (int i = 0; i < 4; ++i) n[i] += o.n[i];
  }
  /// "read 80.1%, create 5.2%, ..." of the total.
  std::string shares() const;
};

class SessionPool {
 public:
  /// Generate the corpus from `planner`'s spec, replay it once on `planner`
  /// (the account), and draw `count` sessions from `seed`. Draws whose
  /// teardown leaves resources behind (delete protection, attachments the
  /// reverse-order cleanup cannot undo) are redrawn, so the account keeps
  /// its size however long a run lasts.
  void build(lce::interp::Interpreter& planner, std::uint64_t seed, std::size_t count);

  /// Replay the account onto `backend` (a fresh emulator).
  void prepopulate(lce::CloudBackend& backend) const;

  /// The request of `step`, placeholders resolved against `prior` (the
  /// session's own replies, indexed by trace call).
  lce::ApiRequest request(const Session& s, const Step& step,
                          const std::vector<lce::ApiResponse>& prior) const;
  /// Calls in the session's trace (the size of its `prior`).
  std::size_t trace_calls(const Session& s) const { return corpus_[s.trace].trace.calls.size(); }

  OpClass classify(const std::string& api) const;
  /// A request that reads one account resource (warm-ups and probes).
  lce::ApiRequest look_request(std::size_t target) const;

  const std::vector<Session>& sessions() const { return sessions_; }
  std::size_t account_size() const { return account_size_; }
  std::size_t corpus_size() const { return corpus_.size(); }
  std::size_t draws() const { return draws_; }
  /// Digest text of the account and the sessions (inputs-only mode).
  std::string digest_text() const;

 private:
  struct Target {
    std::string id;
    const MachineApis* apis = nullptr;
  };

  std::vector<lce::align::GenTrace> corpus_;
  std::unordered_map<std::string, MachineApis> machines_;       // by machine name
  std::unordered_map<std::string, const MachineApis*> by_api_;  // create API -> machine
  std::unordered_map<std::string, OpClass> classes_;            // by API
  std::size_t account_size_ = 0;
  std::vector<Target> targets_;
  std::vector<Session> sessions_;
  std::size_t draws_ = 0;
};

}  // namespace perfbench
