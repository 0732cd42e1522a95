#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace fedco::core {

namespace {

void validate_items(const std::vector<KnapsackItem>& items) {
  for (const auto& item : items) {
    // Non-finite weights would reach the size_t cast in weight_units, and
    // a NaN value would break the monotonicity the row skip relies on.
    if (!std::isfinite(item.weight) || !std::isfinite(item.value) ||
        item.weight < 0.0 || item.value < 0.0) {
      throw std::invalid_argument{
          "knapsack: value/weight must be finite and non-negative"};
    }
  }
}

/// Discretize: weight w -> ceil(w / capacity * grid) units, so any DP
/// solution respects the true (continuous) capacity. Every quotient past
/// the grid maps to grid + 1 (such an item never fits; the cast of a huge
/// or overflowed quotient would be undefined).
std::vector<std::size_t> weight_units(const std::vector<KnapsackItem>& items,
                                      double capacity, std::size_t grid) {
  const double unit = capacity / static_cast<double>(grid);
  std::vector<std::size_t> units(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double q = std::ceil(items[i].weight / unit - 1e-12);
    units[i] = q <= static_cast<double>(grid) ? static_cast<std::size_t>(q)
                                              : grid + 1;
  }
  return units;
}

/// One Eq. (8) DP row for item (units_i, value_i), rolled in place over
/// `best`; take bits land in `bits` (zeroed by the caller). Returns whether
/// any bit was set, i.e. whether the row changed the table.
bool dp_item_row(double* best, std::uint64_t* bits, std::size_t units_i,
                 double value_i, std::size_t grid) {
  bool changed = false;
  for (std::size_t y = grid + 1; y-- > units_i;) {
    const double take = best[y - units_i] + value_i;
    if (take > best[y]) {
      best[y] = take;
      bits[y / 64] |= std::uint64_t{1} << (y % 64);
      changed = true;
    }
  }
  return changed;
}

}  // namespace

KnapsackSolution solve_knapsack(const std::vector<KnapsackItem>& items,
                                double capacity, std::size_t grid) {
  return KnapsackSolver{}.solve(items, capacity, grid);
}

KnapsackSolution KnapsackSolver::solve(const std::vector<KnapsackItem>& items,
                                       double capacity, std::size_t grid) {
  last_prefix_reused_ = 0;
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) {
    // Degenerate calls cache nothing reusable.
    items_.clear();
    checkpoints_.clear();
    row_items_.clear();
    row_bits_.clear();
    capacity_ = 0.0;
    grid_ = 0;
    return solution;
  }
  validate_items(items);

  // Longest bitwise-equal item prefix shared with the previous call (only
  // meaningful under the same capacity/grid discretization).
  std::size_t prefix = 0;
  if (capacity == capacity_ && grid == grid_) {
    const std::size_t limit = std::min(items.size(), items_.size());
    while (prefix < limit && items[prefix].value == items_[prefix].value &&
           items[prefix].weight == items_[prefix].weight) {
      ++prefix;
    }
  }
  // Resume from the last checkpointed DP row inside the prefix: the first
  // `start` items' rows (and their stored take bits) are exactly what the
  // full DP would recompute, so they are reused verbatim.
  const std::size_t checkpoint =
      std::min(prefix / kCheckpointStride, checkpoints_.size());
  const std::size_t start = checkpoint * kCheckpointStride;
  last_prefix_reused_ = start;

  const std::vector<std::size_t> units = weight_units(items, capacity, grid);
  std::vector<double> best = checkpoint == 0
                                 ? std::vector<double>(grid + 1, 0.0)
                                 : checkpoints_[checkpoint - 1];
  checkpoints_.resize(checkpoint);
  const std::size_t words = grid / 64 + 1;  // grid + 1 bits per row
  const std::size_t kept = static_cast<std::size_t>(
      std::lower_bound(row_items_.begin(), row_items_.end(), start) -
      row_items_.begin());
  row_items_.resize(kept);
  row_bits_.resize(kept * words);

  // Skip certificates. cert_value[u] is the largest value v* whose row for
  // weight u set no bit against the current table, valid while
  // cert_epoch[u] == epoch. Such a row means fl(best[y-u] + v*) <= best[y]
  // for every y >= u, and IEEE-754 addition is monotone in each operand,
  // so for any v <= v*
  //   fl(best[y-u] + v) <= fl(best[y-u] + v*) <= best[y]:
  // row (u, v) would set no bit either and is skipped unevaluated. Only a
  // row that sets a bit changes the table, and it bumps the epoch, which
  // voids every certificate at once. A resumed solve starts with none.
  std::vector<double> cert_value(grid + 1, 0.0);
  std::vector<std::uint64_t> cert_epoch(grid + 1, 0);
  std::uint64_t epoch = 1;
  for (std::size_t i = start; i < items.size(); ++i) {
    const std::size_t u = units[i];
    const double v = items[i].value;
    const bool evaluate = u <= grid && v > 0.0 &&  // else cannot fit/no gain
                          !(cert_epoch[u] == epoch && v <= cert_value[u]);
    if (evaluate) {
      const std::size_t base = row_bits_.size();
      row_bits_.resize(base + words, 0);
      if (dp_item_row(best.data(), row_bits_.data() + base, u, v, grid)) {
        row_items_.push_back(i);
        ++epoch;
      } else {
        row_bits_.resize(base);
        cert_epoch[u] = epoch;
        cert_value[u] = v;
      }
    }
    if ((i + 1) % kCheckpointStride == 0) checkpoints_.push_back(best);
  }
  items_ = items;
  capacity_ = capacity;
  grid_ = grid;

  // Standard backtrack from the full budget in decreasing item order. Rows
  // that were never stored are all-zero, so only stored rows can select.
  std::size_t y = grid;
  for (std::size_t r = row_items_.size(); r-- > 0;) {
    if ((row_bits_[r * words + y / 64] >> (y % 64)) & 1U) {
      const std::size_t i = row_items_[r];
      solution.selected[i] = true;
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
      y -= units[i];
    }
  }
  return solution;
}

KnapsackSolution solve_knapsack_exact(const std::vector<KnapsackItem>& items,
                                      double capacity) {
  if (items.size() > 24) {
    throw std::invalid_argument{"solve_knapsack_exact: too many items"};
  }
  KnapsackSolution best;
  best.selected.assign(items.size(), false);
  const std::size_t combos = std::size_t{1} << items.size();
  for (std::size_t mask = 0; mask < combos; ++mask) {
    double value = 0.0;
    double weight = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if ((mask >> i) & 1U) {
        value += items[i].value;
        weight += items[i].weight;
      }
    }
    if (weight <= capacity && value > best.total_value) {
      best.total_value = value;
      best.total_weight = weight;
      for (std::size_t i = 0; i < items.size(); ++i) {
        best.selected[i] = ((mask >> i) & 1U) != 0;
      }
    }
  }
  return best;
}

KnapsackSolution solve_knapsack_greedy(const std::vector<KnapsackItem>& items,
                                       double capacity) {
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&items](std::size_t a, std::size_t b) {
    const double ra = items[a].weight <= 0.0
                          ? items[a].value * 1e9
                          : items[a].value / items[a].weight;
    const double rb = items[b].weight <= 0.0
                          ? items[b].value * 1e9
                          : items[b].value / items[b].weight;
    return ra > rb;
  });
  double used = 0.0;
  for (const std::size_t i : order) {
    if (items[i].value <= 0.0) continue;
    if (used + items[i].weight <= capacity) {
      solution.selected[i] = true;
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
      used += items[i].weight;
    }
  }
  return solution;
}

namespace {
/// Does `point` fall in [lo, lo + len]?
bool in_interval(double point, double lo, double len) noexcept {
  return point >= lo && point <= lo + len;
}
}  // namespace

LagBoundIndex::LagBoundIndex(const std::vector<UserWindow>& users)
    : users_(&users) {
  // Group users by their separate-completion time. The grouping key is the
  // exact double the naive scan computes, so membership tests below see
  // identical values.
  std::vector<std::pair<double, double>> ends;
  ends.reserve(users.size());
  for (const UserWindow& u : users) {
    ends.emplace_back(u.begin + u.duration, u.app_arrival + u.duration);
  }
  std::sort(ends.begin(), ends.end());
  for (std::size_t k = 0; k < ends.size();) {
    Group group;
    group.end_separate = ends[k].first;
    while (k < ends.size() && ends[k].first == group.end_separate) {
      group.end_coruns.push_back(ends[k].second);
      ++k;
    }
    // Sorted already within the group by the pair sort.
    groups_.push_back(std::move(group));
  }
  prefix_sizes_.reserve(groups_.size() + 1);
  prefix_sizes_.push_back(0);
  for (const Group& g : groups_) {
    prefix_sizes_.push_back(prefix_sizes_.back() + g.end_coruns.size());
  }
  all_coruns_.reserve(users.size());
  for (const auto& [separate, corun] : ends) all_coruns_.push_back(corun);
  std::sort(all_coruns_.begin(), all_coruns_.end());

  // Shared-begin fast path (see the header): applicable when every user
  // starts at the same instant and no arrival precedes it — exactly the
  // window planner's shape.
  shared_begin_ = !users.empty();
  for (const UserWindow& u : users) {
    if (u.begin != users.front().begin || u.app_arrival < u.begin ||
        u.duration < 0.0) {
      shared_begin_ = false;
      break;
    }
  }
  if (!shared_begin_) return;
  begin_ = users.front().begin;
  durations_.reserve(users.size());
  for (const UserWindow& u : users) durations_.push_back(u.duration);
  std::sort(durations_.begin(), durations_.end());
  durations_.erase(std::unique(durations_.begin(), durations_.end()),
                   durations_.end());
  duration_prefix_.resize(durations_.size());
  prefix_coruns_.resize(durations_.size());
  std::vector<double> merged;
  std::size_t g = 0;
  for (std::size_t di = 0; di < durations_.size(); ++di) {
    // The same doubles the groups were keyed by: group end = begin + d.
    const double end = begin_ + durations_[di];
    while (g < groups_.size() && groups_[g].end_separate <= end) {
      const auto old = static_cast<std::ptrdiff_t>(merged.size());
      merged.insert(merged.end(), groups_[g].end_coruns.begin(),
                    groups_[g].end_coruns.end());
      std::inplace_merge(merged.begin(), merged.begin() + old, merged.end());
      ++g;
    }
    duration_prefix_[di] = g;
    prefix_coruns_[di] = merged;
  }
}

namespace {
/// Elements of sorted `values` inside the closed interval [lo, hi].
std::size_t count_in(const std::vector<double>& values, double lo,
                     double hi) noexcept {
  const auto first = std::lower_bound(values.begin(), values.end(), lo);
  const auto last = std::upper_bound(values.begin(), values.end(), hi);
  return first < last ? static_cast<std::size_t>(last - first) : 0;
}
}  // namespace

std::size_t LagBoundIndex::bound(std::size_t i) const {
  if (i >= users_->size()) {
    throw std::out_of_range{"LagBoundIndex::bound: bad user index"};
  }
  const UserWindow& me = (*users_)[i];
  const double lo1 = me.begin;
  const double hi1 = me.begin + me.duration;
  const double lo2 = me.app_arrival;
  const double hi2 = me.app_arrival + me.duration;
  const double ilo = std::max(lo1, lo2);
  const double ihi = std::min(hi1, hi2);

  // A group's members count wholesale when its separate completion hits
  // one of i's intervals ("hit" groups); otherwise members count when
  // their co-run completion lands in the interval union. Writing the
  // total as
  //   sum_hit size_g + sum_all f(g) - sum_hit f(g)
  // (f = the inclusion-exclusion co-run count) lets the all-groups term
  // come from one globally sorted co-run array and the hit terms from
  // contiguous group ranges (groups are sorted by end_separate) — every
  // term is an exact integer, so this is the same count as the per-group
  // scan, bit for bit.
  const auto corun_hits = [&](const std::vector<double>& sorted) {
    std::size_t hits = count_in(sorted, lo1, hi1) + count_in(sorted, lo2, hi2);
    if (ilo <= ihi) hits -= count_in(sorted, ilo, ihi);
    return hits;
  };
  const auto range_of = [&](double lo, double hi) {
    const auto first = std::lower_bound(
        groups_.begin(), groups_.end(), lo,
        [](const Group& g, double v) { return g.end_separate < v; });
    const auto last = std::upper_bound(
        groups_.begin(), groups_.end(), hi,
        [](double v, const Group& g) { return v < g.end_separate; });
    const auto a = static_cast<std::size_t>(first - groups_.begin());
    const auto b = static_cast<std::size_t>(last - groups_.begin());
    return std::pair{a, std::max(a, b)};
  };

  if (shared_begin_) {
    // Fast path (see the header): the I1 hit set is the duration's group
    // prefix, and — because every completion lies at or after begin — the
    // per-group inclusion-exclusion over the prefix telescopes to the
    // interval-union count over the prefix's merged co-run array. Only
    // the rare groups hit through I2 beyond the prefix are visited
    // individually. Every term is the same exact integer as the general
    // path below.
    const auto dit =
        std::lower_bound(durations_.begin(), durations_.end(), me.duration);
    const auto di = static_cast<std::size_t>(dit - durations_.begin());
    const std::size_t gp = duration_prefix_[di];
    const std::vector<double>& merged = prefix_coruns_[di];
    const auto union_count = [&](const std::vector<double>& sorted) {
      // lo1 <= lo2, so the closed-interval union is one range when the
      // intervals meet and two otherwise.
      return lo2 <= hi1 ? count_in(sorted, lo1, hi2)
                        : count_in(sorted, lo1, hi1) +
                              count_in(sorted, lo2, hi2);
    };
    std::size_t count =
        union_count(all_coruns_) + prefix_sizes_[gp] - union_count(merged);
    auto [ga, gb] = range_of(lo2, hi2);
    for (std::size_t g = std::max(ga, gp); g < gb; ++g) {
      count += groups_[g].end_coruns.size() - union_count(groups_[g].end_coruns);
    }
    return count - 1;
  }

  auto [a1, b1] = range_of(lo1, hi1);
  auto [a2, b2] = range_of(lo2, hi2);
  if (a2 < a1) {
    std::swap(a1, a2);
    std::swap(b1, b2);
  }
  std::size_t count = corun_hits(all_coruns_);
  const auto add_hit_range = [&](std::size_t a, std::size_t b) {
    count += prefix_sizes_[b] - prefix_sizes_[a];
    for (std::size_t g = a; g < b; ++g) count -= corun_hits(groups_[g].end_coruns);
  };
  if (b1 >= a2) {
    add_hit_range(a1, std::max(b1, b2));  // overlapping ranges merge
  } else {
    add_hit_range(a1, b1);
    add_hit_range(a2, b2);
  }
  // The naive scan skips j == i; user i always satisfies the predicate
  // (its own separate completion t_i + d_i lies in [t_i, t_i + d_i]).
  return count - 1;
}

std::size_t lag_upper_bound(const std::vector<UserWindow>& users, std::size_t i) {
  if (i >= users.size()) {
    throw std::out_of_range{"lag_upper_bound: bad user index"};
  }
  const UserWindow& me = users[i];
  std::size_t bound = 0;
  for (std::size_t j = 0; j < users.size(); ++j) {
    if (j == i) continue;
    const UserWindow& other = users[j];
    // Possible completion times of j (Lemma 1 proof: either decision).
    const double end_separate = other.begin + other.duration;
    const double end_corun = other.app_arrival + other.duration;
    const bool hits =
        in_interval(end_separate, me.begin, me.duration) ||
        in_interval(end_separate, me.app_arrival, me.duration) ||
        in_interval(end_corun, me.begin, me.duration) ||
        in_interval(end_corun, me.app_arrival, me.duration);
    if (hits) ++bound;
  }
  return bound;
}

}  // namespace fedco::core
