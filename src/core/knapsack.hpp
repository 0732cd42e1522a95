// Offline scheduling (Sec. IV): the energy-saving/staleness 0-1 knapsack P1,
// its pseudo-polynomial dynamic program (Algorithm 1, Eq. 8), and the Lemma 1
// lag upper bound that breaks the circular dependence of each user's gap on
// the other users' decisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fedco::core {

/// One candidate item of problem P1.
struct KnapsackItem {
  double value = 0.0;   ///< energy saving s_i (J)
  double weight = 0.0;  ///< gradient gap g_i(t_i, t_i + tau_i)
};

struct KnapsackSolution {
  std::vector<bool> selected;  ///< x_i
  double total_value = 0.0;
  double total_weight = 0.0;
};

/// Exact 0-1 knapsack via DP over a discretized weight grid (Eq. 8).
/// `capacity` is Lb; `grid` is the number of integer weight units the
/// capacity is split into (larger = finer approximation; weights are rounded
/// *up* so the staleness constraint is never violated). O(n * grid) worst
/// case. Same as KnapsackSolver{}.solve. Throws std::invalid_argument on a
/// negative or non-finite value or weight.
[[nodiscard]] KnapsackSolution solve_knapsack(const std::vector<KnapsackItem>& items,
                                              double capacity,
                                              std::size_t grid = 1000);

/// The Algorithm 1 DP, one cold solve per call: Sec. IV replans every 500 s
/// and each window's item list is new (every waiting user's gap has grown),
/// so nothing is carried from one call to the next. An item whose row
/// provably sets no take bit against the current table (a certificate per
/// weight unit, see knapsack.cpp) is not evaluated, and only rows that set a
/// bit are stored. The skip omits only rows whose outcome is known, so the
/// selection and totals equal the plain row-by-row DP bit for bit
/// (property-tested against it in core_knapsack_test).
class KnapsackSolver {
 public:
  [[nodiscard]] KnapsackSolution solve(const std::vector<KnapsackItem>& items,
                                       double capacity, std::size_t grid);

  // Always 0: solves no longer reuse rows. Kept because
  // benchmark/fedco_bench.cpp still calls it; ROADMAP "Benchmark upkeep"
  // deletes it.
  [[nodiscard]] std::size_t last_prefix_reused() const noexcept { return 0; }

  /// Rows the last solve() holds take bits for: the rows that changed the
  /// table (test hook; all other rows are all-zero).
  [[nodiscard]] std::size_t stored_rows() const noexcept {
    return row_items_.size();
  }

 private:
  /// Per-solve scratch. Take bits of the rows that set at least one:
  /// row_items_ holds their item indices in ascending order, row_bits_
  /// their grid + 1 bits each, packed into 64-bit words.
  std::vector<std::size_t> row_items_;
  std::vector<std::uint64_t> row_bits_;
};

/// Exhaustive 0-1 knapsack (2^n) for verification; n <= 24.
[[nodiscard]] KnapsackSolution solve_knapsack_exact(
    const std::vector<KnapsackItem>& items, double capacity);

/// Greedy value/weight-ratio heuristic (ablation baseline).
[[nodiscard]] KnapsackSolution solve_knapsack_greedy(
    const std::vector<KnapsackItem>& items, double capacity);

/// Candidate schedule of one user for the Lemma 1 bound: the user either
/// starts at `begin` (separate) or at `app_arrival` (co-run), and trains for
/// `duration`; all in seconds (or any consistent unit).
struct UserWindow {
  double begin = 0.0;        ///< t_i: earliest start (model download time)
  double app_arrival = 0.0;  ///< t_a_i: in-window app arrival (= begin if none)
  double duration = 0.0;     ///< d_i
};

/// Lemma 1: upper bound on the lag of user `i` — the number of other users
/// whose training could complete inside either of i's candidate execution
/// intervals [t_i, t_i + d_i] or [t_a_i, t_a_i + d_i], regardless of the
/// eventual control decisions. O(n) per query.
[[nodiscard]] std::size_t lag_upper_bound(const std::vector<UserWindow>& users,
                                          std::size_t i);

/// Counting index over the Lemma 1 bound: answers every lag_upper_bound
/// query with the identical integer count, without the O(n) scan per user.
/// An entry is a window with the number of users that share it (the
/// window planner passes one entry per user class): users whose separate
/// completion t_j + d_j hits one of the window's intervals count
/// wholesale, the rest by their co-run completion t_a_j + d_j
/// (inclusion-exclusion over the two closed intervals), as weighted range
/// counts answered by one sweep over a Fenwick tree. O(m log m) to build
/// over m entries; bound() is a table read. Exact: the counts are integers
/// and every comparison uses the same IEEE-754 values as the naive scan,
/// so the window planner built on it stays bit-identical (golden-parity
/// guarded).
class LagBoundIndex {
 public:
  /// `users[i]` stands for `weights[i]` >= 1 users with that window (1
  /// each when `weights` is empty). Throws std::invalid_argument, naming
  /// the index, on a non-finite field, a negative duration or a zero
  /// weight, and on a weight count that is not the user count.
  explicit LagBoundIndex(const std::vector<UserWindow>& users,
                         const std::vector<std::uint32_t>& weights = {});

  /// Identical to lag_upper_bound(users, i) for the indexed users (over
  /// the expanded list: any one user of entry i).
  [[nodiscard]] std::size_t bound(std::size_t i) const;

 private:
  std::vector<std::size_t> bounds_;  ///< Lemma 1 bound per entry
};

}  // namespace fedco::core
