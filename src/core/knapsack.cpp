#include "core/knapsack.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

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
/// or overflowed quotient would be undefined). 4 bytes per item: the grid
/// is checked below 2^32 - 1.
std::vector<std::uint32_t> weight_units(const std::vector<KnapsackItem>& items,
                                        double capacity, std::size_t grid) {
  const double unit = capacity / static_cast<double>(grid);
  std::vector<std::uint32_t> units(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double q = std::ceil(items[i].weight / unit - 1e-12);
    units[i] = static_cast<std::uint32_t>(
        q <= static_cast<double>(grid) ? static_cast<std::size_t>(q) : grid + 1);
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
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  row_items_.clear();
  row_bits_.clear();
  if (items.empty() || capacity <= 0.0 || grid == 0) return solution;
  validate_items(items);
  if (grid >= UINT32_MAX) throw std::length_error{"knapsack: grid too large"};

  const std::vector<std::uint32_t> units = weight_units(items, capacity, grid);
  std::vector<double> best(grid + 1, 0.0);
  const std::size_t words = grid / 64 + 1;  // grid + 1 bits per row

  // Skip certificates. cert_value[u] is the largest value v* whose row for
  // weight u set no bit against the current table, valid while
  // cert_epoch[u] == epoch. Such a row means fl(best[y-u] + v*) <= best[y]
  // for every y >= u, and IEEE-754 addition is monotone in each operand,
  // so for any v <= v*
  //   fl(best[y-u] + v) <= fl(best[y-u] + v*) <= best[y]:
  // row (u, v) would set no bit either and is skipped unevaluated. Only a
  // row that sets a bit changes the table, and it bumps the epoch, which
  // voids every certificate at once.
  std::vector<double> cert_value(grid + 1, 0.0);
  std::vector<std::uint64_t> cert_epoch(grid + 1, 0);
  std::uint64_t epoch = 1;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t u = units[i];
    const double v = items[i].value;
    const bool evaluate = u <= grid && v > 0.0 &&  // else cannot fit/no gain
                          !(cert_epoch[u] == epoch && v <= cert_value[u]);
    if (!evaluate) continue;
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

/// Fenwick tree of weights over positions [0, tree.size() - 1).
struct Fenwick {
  std::vector<std::int64_t> tree;

  void add(std::size_t pos, std::int64_t weight) noexcept {
    for (++pos; pos < tree.size(); pos += pos & (~pos + 1)) tree[pos] += weight;
  }
  /// Total weight of positions [0, end).
  [[nodiscard]] std::int64_t prefix(std::size_t end) const noexcept {
    std::int64_t total = 0;
    for (; end > 0; end &= end - 1) total += tree[end];
    return total;
  }
};
}  // namespace

LagBoundIndex::LagBoundIndex(const std::vector<UserWindow>& users,
                             const std::vector<std::uint32_t>& weights) {
  // Each entry becomes a weighted point: its separate completion
  // t_j + d_j, its co-run completion t_a_j + d_j and its user count. These
  // are the exact doubles the naive scan computes, so every comparison
  // below sees identical values.
  if (users.size() >= UINT32_MAX) throw std::length_error{"LagBoundIndex: too many users"};
  if (!weights.empty() && weights.size() != users.size()) {
    throw std::invalid_argument{"LagBoundIndex: one weight per window"};
  }
  struct Point {
    double separate;
    double corun;
    std::int64_t weight;
  };
  std::vector<Point> points;
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserWindow& u = users[i];
    const std::uint32_t weight = weights.empty() ? 1 : weights[i];
    if (!std::isfinite(u.begin) || !std::isfinite(u.app_arrival) ||
        !std::isfinite(u.duration) || u.duration < 0.0 || weight == 0) {
      throw std::invalid_argument{
          "LagBoundIndex: user " + std::to_string(i) +
          " has a non-finite field, a negative duration or weight 0"};
    }
    points.push_back({u.begin + u.duration, u.app_arrival + u.duration, weight});
  }
  const std::size_t m = users.size();

  // The points sorted by separate completion (`separates`; sep_cum[k] =
  // weight of points [0, k)), and their co-run completions in value order
  // (`coruns`, corun_cum) with each point's rank there.
  std::sort(points.begin(), points.end(), [](const Point& a, const Point& b) {
    return a.separate < b.separate;
  });
  std::vector<double> separates(m);
  std::vector<std::int64_t> sep_cum{0};
  std::vector<std::pair<double, std::uint32_t>> by_corun(m);
  for (std::size_t k = 0; k < m; ++k) {
    separates[k] = points[k].separate;
    sep_cum.push_back(sep_cum.back() + points[k].weight);
    by_corun[k] = {points[k].corun, static_cast<std::uint32_t>(k)};
  }
  std::sort(by_corun.begin(), by_corun.end());
  std::vector<double> coruns(m);
  std::vector<std::int64_t> corun_cum{0};
  std::vector<std::uint32_t> corun_rank(m);
  for (std::size_t r = 0; r < m; ++r) {
    const auto [corun, k] = by_corun[r];
    coruns[r] = corun;
    corun_cum.push_back(corun_cum.back() + points[k].weight);
    corun_rank[k] = static_cast<std::uint32_t>(r);
  }
  // Positions [first, last) of `sorted` inside [lo, hi] (none if lo > hi).
  const auto range_in = [](const std::vector<double>& sorted, double lo,
                           double hi) {
    const auto first = std::lower_bound(sorted.begin(), sorted.end(), lo);
    const auto last = std::upper_bound(first, sorted.end(), hi);
    return std::array{static_cast<std::uint32_t>(first - sorted.begin()),
                      static_cast<std::uint32_t>(last - sorted.begin())};
  };

  // A point counts toward a window's bound when its separate completion
  // hits one of the window's intervals I1, I2 (the "hit" points: at most
  // two position ranges, as points are sorted by separate completion), or
  // else when its co-run completion lands in I1 ∪ I2. Writing the total as
  //   sum_hit w + sum_all f - sum_hit f
  // (f = w times the inclusion-exclusion count of the point's co-run
  // completion in I1, I2 and I1 ∩ I2) lets the all-points term come from
  // corun_cum and the hit terms from F(p), the f total over points
  // [0, p), at the hit ranges' ends. Every term is an exact integer, so
  // this is the same count as the naive scan, bit for bit. F is evaluated
  // for all windows by one sweep below.
  using Ranks = std::array<std::array<std::uint32_t, 2>, 3>;
  // f over the points whose prefix weight by co-run rank is `before`.
  const auto f_total = [](const Ranks& r, const auto& before) {
    return before(r[0][1]) - before(r[0][0]) + before(r[1][1]) -
           before(r[1][0]) - (before(r[2][1]) - before(r[2][0]));
  };
  std::vector<Ranks> ranks(m);
  std::vector<std::int64_t> count(m);
  struct Boundary {
    std::uint32_t pos;  ///< F is taken over points [0, pos)
    std::uint32_t window;
    std::int64_t sign;
  };
  std::vector<Boundary> boundaries;
  boundaries.reserve(4 * m);
  for (std::size_t d = 0; d < m; ++d) {
    const UserWindow& me = users[d];
    const double lo1 = me.begin;
    const double hi1 = me.begin + me.duration;
    const double lo2 = me.app_arrival;
    const double hi2 = me.app_arrival + me.duration;
    auto& r = ranks[d];
    r = {range_in(coruns, lo1, hi1), range_in(coruns, lo2, hi2),
         range_in(coruns, std::max(lo1, lo2), std::min(hi1, hi2))};
    // The naive scan skips j == i; the window's own users always satisfy
    // the predicate (t_i + d_i lies in [t_i, t_i + d_i]), so one is taken
    // off here.
    count[d] = f_total(r, [&](std::uint32_t pos) { return corun_cum[pos]; }) - 1;
    auto hit1 = range_in(separates, lo1, hi1);
    auto hit2 = range_in(separates, lo2, hi2);
    if (hit2[0] < hit1[0]) std::swap(hit1, hit2);
    const auto add_hit_range = [&](std::uint32_t a, std::uint32_t b) {
      if (a == b) return;
      count[d] += sep_cum[b] - sep_cum[a];
      boundaries.push_back({b, static_cast<std::uint32_t>(d), -1});
      boundaries.push_back({a, static_cast<std::uint32_t>(d), +1});
    };
    if (hit1[1] >= hit2[0]) {
      add_hit_range(hit1[0], std::max(hit1[1], hit2[1]));  // ranges merge
    } else {
      add_hit_range(hit1[0], hit1[1]);
      add_hit_range(hit2[0], hit2[1]);
    }
  }

  // The sweep: add the points in separate-completion order to a Fenwick
  // tree over co-run ranks, evaluating F at each boundary once the points
  // before it are in.
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) { return a.pos < b.pos; });
  Fenwick added{std::vector<std::int64_t>(m + 1, 0)};
  auto next = boundaries.begin();
  for (std::size_t k = 0;; ++k) {
    for (; next != boundaries.end() && next->pos == k; ++next) {
      count[next->window] +=
          next->sign * f_total(ranks[next->window], [&](std::uint32_t pos) {
            return added.prefix(pos);
          });
    }
    if (k == m) break;
    added.add(corun_rank[k], points[k].weight);
  }

  bounds_.assign(count.begin(), count.end());
}

std::size_t LagBoundIndex::bound(std::size_t i) const {
  if (i >= bounds_.size()) {
    throw std::out_of_range{"LagBoundIndex::bound: bad user index"};
  }
  return bounds_[i];
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
