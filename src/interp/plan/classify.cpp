// Lock-footprint classification for transitions (moved out of the
// interpreter so the plan compiler can cache the result per transition
// while the tree-walk reference path keeps classifying per invoke).
//
//   kReadShared  no writes at all — shared-lock every shard; concurrent
//                describes run fully in parallel.
//   kWriteLocal  all touched state is reachable from ids known up front
//                (the target / preminted id and ref-valued arguments) —
//                exclusively lock just those shards; unrelated resources
//                keep flowing.
//   kWriteAll    the footprint is dynamic (nested call(); destroy, whose
//                parent's shard — where its child-index entry lives — is
//                only known after reading self, and whose children get
//                promoted; child_count / sibling scans; derefs of
//                non-parameter refs) — exclusively lock everything.
//                Correct, never fast; the classifier falls back here
//                whenever in doubt.
#include "interp/plan/plan.h"

#include <set>

namespace lce::interp::plan {

namespace {

using spec::Expr;
using spec::ExprKind;
using spec::StmtKind;
using spec::Transition;
using spec::TransitionKind;

struct BodyTraits {
  bool writes = false;
  bool attaches = false;
  bool calls = false;
  bool local = true;
};

using ParamNames = std::set<std::string, std::less<>>;

/// Builtins that never touch the store.
bool pure_builtin(const std::string& name) {
  switch (builtin_from_name(name)) {
    case Builtin::kIsNull:
    case Builtin::kLen:
    case Builtin::kInList:
    case Builtin::kCidrValid:
    case Builtin::kCidrPrefixLen:
    case Builtin::kCidrWithin:
    case Builtin::kCidrOverlaps:
      return true;
    default:
      return false;
  }
}

/// True when evaluating `e` can only dereference resources whose shards a
/// kWriteLocal plan has locked: self (the target / preminted id) and
/// ref-valued declared parameters (every ref in the args is collected
/// into the lockset). Anything else — nested field paths, store scans,
/// refs read out of attributes — is non-local.
bool expr_local(const Expr& e, const ParamNames& params) {
  switch (e.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kSelf:
    case ExprKind::kVar:  // value read from params or self attrs, no deref
      return true;
    case ExprKind::kField:
      return e.kids[0]->kind == ExprKind::kSelf ||
             (e.kids[0]->kind == ExprKind::kVar &&
              params.contains(e.kids[0]->name));
    case ExprKind::kUnary:
    case ExprKind::kBinary: {
      for (const auto& k : e.kids) {
        if (!expr_local(*k, params)) return false;
      }
      return true;
    }
    case ExprKind::kBuiltin: {
      if (pure_builtin(e.name)) {
        for (const auto& k : e.kids) {
          if (!expr_local(*k, params)) return false;
        }
        return true;
      }
      if (e.name == "exists") {
        // exists(param[, "Type"]) dereferences exactly the param ref.
        if (e.kids.empty()) return true;
        if (e.kids[0]->kind != ExprKind::kVar ||
            !params.contains(e.kids[0]->name)) {
          return false;
        }
        for (std::size_t i = 1; i < e.kids.size(); ++i) {
          if (e.kids[i]->kind != ExprKind::kLiteral) return false;
        }
        return true;
      }
      // sibling_cidr_conflict reads sibling resources; unknown builtins
      // may read anything. child_count(self) touches only self's shard
      // (the child index), but specs use it only in destroy guards, which
      // are write-all anyway, so it stays non-local too.
      return false;
    }
  }
  return false;
}

void scan_body(const spec::Body& body, const ParamNames& params, BodyTraits& out) {
  for (const auto& s : body) {
    switch (s->kind) {
      case StmtKind::kWrite:
        out.writes = true;
        out.local = out.local && expr_local(*s->expr, params);
        break;
      case StmtKind::kRead:
        break;
      case StmtKind::kAssert:
        out.local = out.local && expr_local(*s->expr, params);
        break;
      case StmtKind::kCall:
        out.calls = true;
        break;
      case StmtKind::kAttachParent:
        out.attaches = true;
        // The parent must be a declared param so its shard is locked.
        out.local = out.local && s->expr->kind == ExprKind::kVar &&
                    params.contains(s->expr->name);
        break;
      case StmtKind::kIf:
        out.local = out.local && expr_local(*s->expr, params);
        scan_body(s->then_body, params, out);
        scan_body(s->else_body, params, out);
        break;
    }
  }
}

}  // namespace

LockPlan classify_transition(const Transition& t) {
  ParamNames params;
  for (const auto& p : t.params) params.insert(p.name);
  BodyTraits traits;
  scan_body(t.body, params, traits);
  bool mutates = traits.writes || traits.attaches || traits.calls ||
                 t.kind == TransitionKind::kCreate ||
                 t.kind == TransitionKind::kDestroy;
  if (!mutates) return {LockMode::kReadShared, false};
  // destroy unlinks from its parent's child list and promotes its own
  // children (shards unknown up front); call() reaches arbitrary
  // resources; non-local bodies deref refs we cannot enumerate up front.
  // Attaches outside create need the full cycle walk over arbitrary
  // ancestor shards, so they lock everything too — only a CREATE attach
  // has the fresh-child guarantee attach_created() relies on.
  if (traits.calls || t.kind == TransitionKind::kDestroy || !traits.local ||
      (traits.attaches && t.kind != TransitionKind::kCreate)) {
    return {LockMode::kWriteAll, false};
  }
  return {LockMode::kWriteLocal, traits.attaches};
}

}  // namespace lce::interp::plan
