#!/usr/bin/env bash
# Flag pass-by-value `Value` parameters on hot-path code. `Value` is a
# 24-byte tagged union whose copy constructor deep-copies rep blocks
# (strings past the inline cap, whole list/map trees), so accidental
# by-value parameters on the request path silently reintroduce the
# allocations the compact representation removed. Hot-path functions
# must take `const Value&` (read) or `Value&&` (transfer).
#
# Intentional *sink* parameters — taken by value and moved-from, where
# the caller can hand over an rvalue for free — are fine; list their
# grep fingerprints in scripts/value_param_allowlist.txt (one extended
# regex per line, '#' comments allowed). Exit 1 when an unlisted hit
# appears, with the offending path:line listed.
#
# Hot directories are discovered, not enumerated: every src/<dir> is on
# the hook unless listed in COLD_DIRS below, so a new subsystem (as
# src/persist and src/time once were) is covered the day it lands
# instead of the day someone remembers to edit this script.
#
# CI runs this next to check_format as a blocking style gate: unlike
# formatting, a stray by-value Value is a real perf defect.
#
# Usage: check_value_params.sh [--self-test]
#   --self-test  verify the detector against known-bad/known-good
#                fixtures instead of scanning the tree (CI runs this
#                first so a silently broken grep can't wave PRs through)
set -uo pipefail
cd "$(dirname "$0")/.."

# Off the request path: corpus/spec tooling, offline synthesis and
# analysis, pipeline assembly, baselines, and the benches themselves.
# Everything else under src/ is scanned.
COLD_DIRS=(align analysis baselines bench core docs spec synth)

HOT_DIRS=()
for d in src/*/; do
  d="${d%/}"
  base="${d#src/}"
  cold=0
  for c in "${COLD_DIRS[@]}"; do
    [[ "$base" == "$c" ]] && cold=1 && break
  done
  [[ "$cold" == 0 ]] && HOT_DIRS+=("$d")
done

ALLOWLIST=scripts/value_param_allowlist.txt

# A parameter spelled `Value name` directly after '(' or ', ' — skipping
# `const Value&`, `Value&`, `Value*`, `Value&&`, and types merely
# prefixed with Value (ValueKind etc.).
scan() {
  grep -rnE '(\(|, )Value [a-z_][a-zA-Z0-9_]*\s*[,)=]' "$@" \
      --include='*.h' --include='*.cpp' \
    | grep -vE 'const Value|Value\s*[&*]' || true
}

if [[ "${1:-}" == "--self-test" ]]; then
  fixtures="$(mktemp -d)"
  trap 'rm -rf "$fixtures"' EXIT
  cat > "$fixtures/bad.cpp" <<'EOF'
void hot_path(Value v);
ApiResponse invoke(const std::string& api, Value params, int n);
EOF
  cat > "$fixtures/good.cpp" <<'EOF'
void hot_path(const Value& v);
ApiResponse invoke(const std::string& api, Value&& params, int n);
ValueKind classify(Value* out);
EOF
  bad_hits="$(scan "$fixtures/bad.cpp")"
  good_hits="$(scan "$fixtures/good.cpp")"
  if [[ "$(grep -c . <<<"$bad_hits")" -ne 2 ]]; then
    echo "check_value_params --self-test: detector missed the known-bad fixture:" >&2
    echo "$bad_hits" >&2
    exit 1
  fi
  if [[ -n "$good_hits" ]]; then
    echo "check_value_params --self-test: false positive on the known-good fixture:" >&2
    echo "$good_hits" >&2
    exit 1
  fi
  echo "check_value_params --self-test: detector OK (hot dirs: ${HOT_DIRS[*]})"
  exit 0
fi

hits=$(scan "${HOT_DIRS[@]}")

if [[ -n "$hits" && -f "$ALLOWLIST" ]]; then
  hits=$(grep -vEf <(grep -v '^\s*#' "$ALLOWLIST" | grep -v '^\s*$') \
           <<<"$hits" || true)
fi

if [[ -n "$hits" ]]; then
  echo "check_value_params: pass-by-value Value parameter(s) on a hot path."
  echo "Take 'const Value&' (or 'Value&&' for transfer); if this is an"
  echo "intentional moved-from sink, add a fingerprint to $ALLOWLIST."
  echo
  echo "$hits"
  exit 1
fi

echo "check_value_params: clean (scanned: ${HOT_DIRS[*]})"
