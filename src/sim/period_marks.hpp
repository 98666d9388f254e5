// The last three fast-forward marks of one ledger: the shared bookkeeping
// behind the ff_mark/ff_repeats/ff_advance contract (see sim::Observer).
//
// A ledger describes its conserved state through one `fields(word, pin)`
// callable that calls word(x) on every additive field — one a steady-state
// period moves by a fixed wrapping delta (a counter, a bucket count, a
// nanosecond total) — and pin(v) on every value a period must leave
// unmoved (a gauge's last value, a histogram's extrema), in the same order
// on every call. word() takes the field by reference, so the same callable
// serves mark() (which reads) and advance() (which writes).
//
// Every word is unsigned wrapping arithmetic, so k copies of one period's
// delta land bit-for-bit where k event-exact periods would.
#pragma once

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace e2e::sim {

class PeriodMarks {
 public:
  /// Records the ledger's words and pins as the newest mark.
  template <typename Fields>
  void mark(Fields&& fields) {
    Mark& m = marks_[n_++ % 3];
    m.words.clear();
    m.pins.clear();
    const auto word = [&m](const auto& w) {
      m.words.push_back(static_cast<std::uint64_t>(w));
    };
    fields(word, [&m](std::uint64_t p) { m.pins.push_back(p); });
  }

  /// True when three marks exist, the population (word count) and every pin
  /// held across them, and both intervals moved every word identically.
  [[nodiscard]] bool repeats() const noexcept {
    if (n_ < 3) return false;
    const Mark& a = back(2);
    const Mark& b = back(1);
    const Mark& c = back(0);
    if (a.words.size() != c.words.size() || b.words.size() != c.words.size() ||
        a.pins != b.pins || b.pins != c.pins)
      return false;
    for (std::size_t i = 0; i < c.words.size(); ++i)
      if (b.words[i] - a.words[i] != c.words[i] - b.words[i]) return false;
    return true;
  }

  /// Adds k copies of the last interval's delta to every word. Requires
  /// repeats(), with no field added to the ledger since the last mark.
  template <typename Fields>
  void advance(std::uint64_t k, Fields&& fields) const {
    const Mark& b = back(1);
    const Mark& c = back(0);
    std::size_t i = 0;
    const auto word = [&](auto& w) {
      assert(i < c.words.size());
      if (i >= c.words.size()) return;
      using T = std::remove_reference_t<decltype(w)>;
      w = static_cast<T>(static_cast<std::uint64_t>(w) +
                         (c.words[i] - b.words[i]) * k);
      ++i;
    };
    fields(word, [](std::uint64_t) {});
  }

 private:
  struct Mark {
    std::vector<std::uint64_t> words;
    std::vector<std::uint64_t> pins;
  };
  [[nodiscard]] const Mark& back(std::uint64_t i) const noexcept {
    return marks_[(n_ - 1 - i) % 3];
  }

  Mark marks_[3];
  std::uint64_t n_ = 0;  // marks recorded
};

}  // namespace e2e::sim
