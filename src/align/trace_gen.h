// Symbolic trace generation (paper §4.3): "performing symbolic passes over
// the SMs to divide the search space into symbolically equivalent classes,
// based on the check/assert conditions for each state transition".
//
// For every transition of every SM the generator emits:
//  * one HAPPY-PATH trace: dependency-ordered setup (create the containment
//    chain and every referenced resource with compatible attributes), the
//    probe call with arguments satisfying every assert, and a trailing
//    describe (so silent state divergence is observable);
//  * one SINGULAR-VIOLATION trace per assert: identical setup but with
//    exactly that assert's condition falsified (so a failure pinpoints one
//    check — "the SM ensures that there is a singular check violation in
//    the generated test traces");
//  * STATE-SWEEP variants for modify/action transitions: the probe re-run
//    from every reachable value of the machine's enum state variables
//    (drivers found by searching the spec for write-const transitions) —
//    this is what exposes *missing* checks such as the undocumented
//    StartInstance/IncorrectInstanceState behaviour.
//
// Classes whose constraints the solver cannot concretize are skipped and
// reported (the paper's §6 completeness caveat).
//
// Spec facts the builders consult on every trace (machine by name, which
// other transitions back-reference an attribute) are derived once per
// TraceGenerator into a SpecIndex: the spec is fixed for the generator's
// lifetime.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/api.h"
#include "spec/ast.h"

namespace lce::align {

enum class ClassKind {
  kHappyPath,
  kAssertViolation,
  kStateSweep,      // enum state var driven to a non-initial member
  kRefAttrSweep,    // ref state var driven non-null before the probe
  kBoolCoupling,    // bool param forced true after driving a bool attr false
  kBoundaryProbe,   // numeric arg at the spec's documented upper bound
  kMemberProbe,     // each documented enum member exercised individually
  kTimerFire,       // advance the virtual clock to a timer clause's deadline
  kTimerInterleave, // API call moves the var off its trigger mid-countdown
};

std::string to_string(ClassKind k);

struct SymbolicClass {
  ClassKind kind = ClassKind::kHappyPath;
  std::string machine;
  std::string transition;
  int assert_index = -1;        // kAssertViolation: which assert is falsified
  std::string expected_code;    // the spec's own prediction ("" = success)
  std::string description;
  // Sweep metadata consumed by the repair engine's predicate inference.
  std::string sweep_attr;       // which attribute was driven
  std::string sweep_value;      // the value it was driven to
  std::string sweep_param;      // kBoolCoupling: the bool param forced true
  std::string bound_param;      // kBoundaryProbe: the probed parameter
  std::int64_t bound_value = 0; // kBoundaryProbe: the probed numeric value
  std::string member_param;     // kMemberProbe: the enum-domain parameter
  std::string member_value;     // kMemberProbe: the documented member probed
};

struct GenTrace {
  Trace trace;
  SymbolicClass cls;
  std::size_t probe_call = 0;  // index of the call exercising the class
};

struct GenStats {
  std::size_t classes_total = 0;
  std::size_t classes_concretized = 0;
  std::vector<std::string> skipped;  // unconcretizable classes, with reason
};

/// Spec lookups the trace builders repeat for every trace, answered from
/// tables built once. Holds pointers into the spec, which must outlive it
/// unchanged.
class SpecIndex {
 public:
  /// A transition of `owner` that drives another machine's attribute
  /// through a call() (e.g. AssociateAddress writing nic.public_ip).
  struct Backref {
    const spec::StateMachine* owner = nullptr;
    const spec::Transition* transition = nullptr;
  };

  explicit SpecIndex(const spec::SpecSet& spec);

  /// SpecSet::find_machine: the first machine named `name`, or nullptr.
  const spec::StateMachine* machine(std::string_view name) const;

  /// Every non-internal transition of a machine not named `target` whose
  /// body (if-branches included) calls a transition of `target` that
  /// writes `attr` at its top level. Spec order: owners as declared, then
  /// their transitions as declared.
  const std::vector<Backref>& backrefs(std::string_view target,
                                       std::string_view attr) const;

 private:
  struct MachineFacts {
    const spec::StateMachine* machine = nullptr;
    std::map<std::string_view, std::vector<Backref>> backrefs;  // by attr
  };
  std::unordered_map<std::string_view, MachineFacts> by_name_;
};

class TraceGenerator {
 public:
  explicit TraceGenerator(const spec::SpecSet& spec);

  /// Traces for one transition.
  std::vector<GenTrace> generate_for(const std::string& machine,
                                     const std::string& transition);

  /// Traces for every transition in the spec, machines and transitions in
  /// declaration order. `workers` (0 = hardware concurrency, 1 = serial)
  /// generates the per-transition batches concurrently; batches and their
  /// GenStats are joined in spec order, so the corpus and stats() are
  /// identical to a serial run for every worker count.
  std::vector<GenTrace> generate_all(int workers = 1);

  const GenStats& stats() const { return stats_; }

 private:
  std::vector<GenTrace> generate_into(const std::string& machine,
                                      const std::string& transition,
                                      GenStats& stats) const;

  const spec::SpecSet& spec_;
  SpecIndex index_;
  GenStats stats_;
};

}  // namespace lce::align
