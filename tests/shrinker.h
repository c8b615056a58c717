// The tests' one shrinker: when a seeded case fails, reduce the sequence
// behind it (a churn stream, a schedule's transmissions) to a minimal
// reproducing one before anyone has to read it.  Two phases:
//
//   1. *prefix bisection* — binary-search the shortest failing prefix.  That
//      needs failures to be prefix-monotone (appending items to a failing
//      sequence keeps it failing), which holds when the check runs after
//      every item, or stops at the first offending one;
//   2. *elision* — walk the surviving prefix backwards and drop every item
//      whose removal keeps the sequence failing, down to one item.
//
// The predicate alone decides what failing means, so a sequence whose items
// must be legal in context (each churn event's precondition) folds that
// legality into its predicate.  Each test renders the survivor as a
// paste-able regression with its own snippet renderer.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace mg::test {

template <typename T>
struct Shrunk {
  std::vector<T> items;  ///< minimal reproducing sequence
  std::size_t original_size = 0;
  bool reproduced = false;  ///< false: the full sequence never failed
};

/// `fails(items)` is true when `items` reproduce the failure under
/// investigation; it must be deterministic.
template <typename T, typename Fails>
Shrunk<T> shrink(std::vector<T> items, const Fails& fails) {
  Shrunk<T> result;
  result.original_size = items.size();
  if (!fails(items)) return result;  // reproduced stays false
  result.reproduced = true;

  // Phase 1: shortest failing prefix, by bisection.
  std::size_t lo = 1;              // shortest length that could fail
  std::size_t hi = items.size();   // known to fail
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(std::vector<T>(items.begin(),
                             items.begin() + static_cast<std::ptrdiff_t>(mid)))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  items.resize(hi);

  // Phase 2: elide items, backwards so a removal never shifts a position
  // still to be tried.
  for (std::size_t i = items.size(); i-- > 0 && items.size() > 1;) {
    std::vector<T> shorter = items;
    shorter.erase(shorter.begin() + static_cast<std::ptrdiff_t>(i));
    if (fails(shorter)) items = std::move(shorter);
  }

  result.items = std::move(items);
  return result;
}

}  // namespace mg::test
