#include "time/wheel.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace lce::vtime {

namespace {

// Distance (in slots) from `cur` to set bit `s`, walking forward cyclically.
// rotr aligns `cur` onto bit 0, so countr_zero of the rotated map is the
// distance to the nearest set slot at or ahead of `cur`.
std::uint64_t forward_distance(std::uint64_t bitmap, std::uint64_t cur) {
  return static_cast<std::uint64_t>(std::countr_zero(std::rotr(bitmap, static_cast<int>(cur))));
}

// Level-0 slots are min-heaps on seq (all entries in one level-0 slot share
// a deadline, so seq alone decides pop order). Upper-level slots stay
// unordered — cascade consumes them wholesale.
struct SeqAfter {
  bool operator()(const TimerWheel::Entry& a, const TimerWheel::Entry& b) const {
    return a.seq > b.seq;
  }
};

}  // namespace

void TimerWheel::schedule(std::uint64_t deadline, std::uint64_t seq) {
  if (deadline < now_) deadline = now_;
  place(Entry{deadline, seq});
  ++count_;
}

void TimerWheel::place(Entry e) {
  std::uint64_t delta = e.deadline - now_;
  for (int level = 0; level < kLevels; ++level) {
    if (delta < span(level)) {
      std::uint64_t slot = (e.deadline >> (kBits * level)) & kMask;
      auto& entries = slots_[static_cast<std::size_t>(level)][slot];
      entries.push_back(e);
      // Keeping the heap property on insert makes a bulk advance over N
      // same-deadline timers O(N log N); a min-scan per pop would be O(N^2).
      if (level == 0) std::push_heap(entries.begin(), entries.end(), SeqAfter{});
      bitmap_[static_cast<std::size_t>(level)] |= 1ull << slot;
      return;
    }
  }
  overflow_.push_back(e);
}

void TimerWheel::cascade(int level, std::uint64_t slot) {
  auto& lv = slots_[static_cast<std::size_t>(level)];
  if (lv[slot].empty()) return;
  std::vector<Entry> moved;
  moved.swap(lv[slot]);
  bitmap_[static_cast<std::size_t>(level)] &= ~(1ull << slot);
  for (const Entry& e : moved) place(e);
}

void TimerWheel::drain_overflow() {
  if (overflow_.empty()) return;
  std::vector<Entry> keep;
  keep.reserve(overflow_.size());
  for (const Entry& e : overflow_) {
    if (e.deadline - now_ < span(kLevels - 1)) {
      place(e);
    } else {
      keep.push_back(e);
    }
  }
  overflow_.swap(keep);
}

std::uint64_t TimerWheel::next_event_hint() const {
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  // Level 0 entries always live within 64 ticks of now_, so the forward
  // slot distance IS the delta to their deadline. Bit (now_ & kMask) is
  // clear here — pop_due drains that slot before hopping.
  if (bitmap_[0] != 0) {
    best = now_ + forward_distance(bitmap_[0], now_ & kMask);
  }
  // Upper levels release entries at their cascade boundary: the first time
  // t > now_, t a multiple of 64^L, whose level-L slot index matches the
  // occupied slot. distance 0 means "same slot, next full cycle" (a
  // wrapped placement), hence the promotion to a whole revolution.
  for (int level = 1; level < kLevels; ++level) {
    std::uint64_t bm = bitmap_[static_cast<std::size_t>(level)];
    if (bm == 0) continue;
    int shift = kBits * level;
    std::uint64_t cur = (now_ >> shift) & kMask;
    std::uint64_t d = forward_distance(bm, cur);
    if (d == 0) {
      // The current slot holds wrapped next-cycle entries. Its boundary is a
      // full revolution away — but occupied slots at distances 1..63 come
      // first, so look for the nearest strictly-ahead bit before settling on
      // the whole cycle.
      std::uint64_t ahead = std::rotr(bm, static_cast<int>(cur)) & ~1ull;
      d = ahead != 0 ? static_cast<std::uint64_t>(std::countr_zero(ahead)) : kSlots;
    }
    std::uint64_t boundary = ((now_ >> shift) + d) << shift;
    if (boundary < best) best = boundary;
  }
  if (!overflow_.empty()) {
    // Overflow drains when the clock crosses a 2^24-tick boundary.
    std::uint64_t top = span(kLevels - 1);
    std::uint64_t boundary = ((now_ / top) + 1) * top;
    if (boundary < best) best = boundary;
  }
  return best;
}

std::optional<TimerWheel::Entry> TimerWheel::pop_due(std::uint64_t target) {
  if (target < now_) target = now_;
  if (count_ == 0) {  // O(1) advance across an empty wheel
    now_ = target;
    return std::nullopt;
  }
  while (true) {
    // Every entry in the level-0 slot indexed by now_ is due exactly now
    // (level-0 deltas are < 64, so slot index determines the deadline).
    std::uint64_t cur0 = now_ & kMask;
    if ((bitmap_[0] >> cur0) & 1u) {
      auto& slot = slots_[0][cur0];
      std::pop_heap(slot.begin(), slot.end(), SeqAfter{});
      Entry out = slot.back();
      slot.pop_back();
      if (slot.empty()) bitmap_[0] &= ~(1ull << cur0);
      --count_;
      return out;
    }
    std::uint64_t next = next_event_hint();
    if (next > target) {
      if (now_ == target) return std::nullopt;
      // Still release boundaries at `target` itself: landing exactly on a
      // cascade boundary must trickle that slot down now, or the next call's
      // hint would read the occupied current slot as "next full revolution"
      // and fire its entries a whole cycle late.
      now_ = target;
    } else {
      now_ = next;
    }
    // Crossing a boundary releases the matching slot at each level whose
    // period divides the new time, top-down so entries trickle toward
    // level 0; the loop then re-checks the level-0 slot for entries that
    // just became due.
    if (now_ % span(kLevels - 1) == 0) drain_overflow();
    for (int level = kLevels - 1; level >= 1; --level) {
      if (now_ % span(level - 1) == 0) {
        cascade(level, (now_ >> (kBits * level)) & kMask);
      }
    }
  }
}

void TimerWheel::reset(std::uint64_t now) {
  // Only occupied slots need clearing: every path that fills a slot sets
  // its bit and every path that empties one clears it (TimerService
  // cancels lazily, leaving entries in place), so the bitmaps name them.
  for (std::size_t level = 0; level < slots_.size(); ++level) {
    for (std::uint64_t bm = bitmap_[level]; bm != 0; bm &= bm - 1) {
      slots_[level][static_cast<std::size_t>(std::countr_zero(bm))].clear();
    }
  }
  bitmap_.fill(0);
  overflow_.clear();
  now_ = now;
  count_ = 0;
}

}  // namespace lce::vtime
