// DeltaMatrix — a mutable CSR matrix for streaming graph updates.
// `apply_updates` batches edge inserts/deletes with last-wins semantics,
// merges each touched row with its edits, rematerializes the one live CSR
// in O(nnz), and reports the touched row runs so the handle layer can
// invalidate exactly those rows (BoundMatrix::structure_changed, through
// Engine::update). Rematerialization writes into the previous batch's
// arrays and swaps them in, so a DeltaMatrix holds at most two CSRs.
//
// Threading contract: `apply_updates` and `snapshot` serialize on an
// internal mutex, so one updating thread and any number of
// snapshot-taking reader threads are safe. `matrix()` returns a reference
// to the live CSR whose *address is stable across updates* (the arrays are
// swapped in place, never the object) — it is for the updating thread's
// own kernel calls; concurrent readers must use `snapshot()`.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/invariants.hpp"
#include "matrix/csr.hpp"
#include "util/common.hpp"

namespace msp {

/// One pending edge mutation. `remove == false` inserts the edge or, if it
/// already exists, assigns its value; `remove == true` deletes it (a no-op
/// when absent). Within one `apply_updates` batch, later entries for the
/// same (row, col) win.
template <class IT = index_t, class VT = double>
struct EdgeUpdate {
  IT row = 0;
  IT col = 0;
  VT value = VT{};
  bool remove = false;
};

/// What one `apply_updates` batch did — the mutation receipt the caller
/// forwards to BoundMatrix::structure_changed. `touched_ranges` holds the
/// maximal runs of consecutive touched rows (sorted, disjoint); recording
/// those instead of the covering [row_begin, row_end) keeps scattered small
/// batches from dirtying every row block in between.
template <class IT = index_t>
struct DeltaUpdateResult {
  std::uint64_t epoch = 0;   ///< matrix epoch after the batch
  IT row_begin = 0;          ///< touched rows lie in [row_begin, row_end)
  IT row_end = 0;            ///< row_begin == row_end ⇔ batch was a no-op
  std::vector<std::pair<IT, IT>> touched_ranges;  ///< runs of touched rows
  std::size_t inserted = 0;  ///< edges created
  std::size_t removed = 0;   ///< edges deleted (absent deletes don't count)
  std::size_t assigned = 0;  ///< existing edges whose value was overwritten
  /// Always false: a DeltaMatrix keeps one CSR and never compacts. Kept
  /// because perfbench reads it as `delta.compactions`.
  bool compacted = false;
};

template <class IT = index_t, class VT = double>
class DeltaMatrix {
 public:
  using index_type = IT;
  using value_type = VT;

  explicit DeltaMatrix(CsrMatrix<IT, VT> base) : current_(std::move(base)) {}

  [[nodiscard]] IT nrows() const { return current_.nrows; }
  [[nodiscard]] IT ncols() const { return current_.ncols; }
  [[nodiscard]] std::size_t nnz() const { return current_.nnz(); }
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Live matrix. Stable address across updates; updating-thread use
  /// only — see the threading contract above.
  [[nodiscard]] const CsrMatrix<IT, VT>& matrix() const { return current_; }

  /// Consistent copy of the live matrix for concurrent reader threads.
  [[nodiscard]] std::shared_ptr<const CsrMatrix<IT, VT>> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::make_shared<const CsrMatrix<IT, VT>>(current_);
  }

  /// Apply one batch of edge mutations (last-wins within the batch).
  /// Touched rows are merged with their edits, the live CSR is
  /// rematerialized, and the epoch advances. Throws on out-of-range
  /// coordinates; a no-op batch (deletes of absent edges that change
  /// nothing) still reports its touched rows.
  DeltaUpdateResult<IT> apply_updates(
      std::span<const EdgeUpdate<IT, VT>> edits) {
    std::lock_guard<std::mutex> lock(mutex_);
    DeltaUpdateResult<IT> res;
    res.epoch = epoch_.load(std::memory_order_relaxed);
    if (edits.empty()) return res;

    for (const auto& e : edits) {
      if (e.row < 0 || e.row >= current_.nrows || e.col < 0 ||
          e.col >= current_.ncols) {
        throw invalid_argument_error(
            "DeltaMatrix::apply_updates: coordinate out of range");
      }
    }

    // Last-wins dedup: stable sort by (row, col), keep the final entry of
    // each coordinate group.
    std::vector<EdgeUpdate<IT, VT>> sorted(edits.begin(), edits.end());
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& x, const auto& y) {
                       return x.row != y.row ? x.row < y.row : x.col < y.col;
                     });
    std::size_t w = 0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i + 1 < sorted.size() && sorted[i + 1].row == sorted[i].row &&
          sorted[i + 1].col == sorted[i].col) {
        continue;
      }
      sorted[w++] = sorted[i];
    }
    sorted.resize(w);

    // Merge each touched row's current contents with its edits into flat
    // buffers, row t at [row_off[t], row_off[t + 1]).
    std::vector<IT> touched_rows;
    std::vector<std::size_t> row_off{0};
    std::vector<IT> merged_cols;
    std::vector<VT> merged_vals;
    for (std::size_t lo = 0; lo < sorted.size();) {
      std::size_t hi = lo;
      const IT row = sorted[lo].row;
      while (hi < sorted.size() && sorted[hi].row == row) ++hi;
      merge_row(row, std::span<const EdgeUpdate<IT, VT>>(sorted.data() + lo,
                                                         hi - lo),
                merged_cols, merged_vals, res);
      touched_rows.push_back(row);
      row_off.push_back(merged_cols.size());
      lo = hi;
    }

    rematerialize(touched_rows, row_off, merged_cols, merged_vals);

    res.row_begin = touched_rows.front();
    res.row_end = touched_rows.back() + 1;
    for (const IT row : touched_rows) {
      if (!res.touched_ranges.empty() &&
          res.touched_ranges.back().second == row) {
        res.touched_ranges.back().second = row + 1;
      } else {
        res.touched_ranges.emplace_back(row, row + 1);
      }
    }
    res.epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    MSP_CHECK_DELTA(*this, "DeltaMatrix::apply_updates");
    return res;
  }

  /// Checked-build validator: the live CSR is well-formed. Takes no lock —
  /// called by the single updating thread per the threading contract above
  /// (and by tests on quiescent instances).
  void check_invariants(const char* site) const {
    invariants::check_csr(current_, site);
  }

 private:
  /// Merge row `row`'s current contents with its deduped, column-sorted
  /// edits; append the merged row to the flat buffers and tally receipts.
  void merge_row(IT row, std::span<const EdgeUpdate<IT, VT>> row_edits,
                 std::vector<IT>& out_cols, std::vector<VT>& out_vals,
                 DeltaUpdateResult<IT>& res) const {
    const auto cols = current_.row_cols(row);
    const auto vals = current_.row_vals(row);
    std::size_t p = 0;  // cursor over the existing row
    std::size_t q = 0;  // cursor over the edits
    while (p < cols.size() || q < row_edits.size()) {
      if (q == row_edits.size() ||
          (p < cols.size() && cols[p] < row_edits[q].col)) {
        out_cols.push_back(cols[p]);
        out_vals.push_back(vals[p]);
        ++p;
      } else {
        const bool present = p < cols.size() && cols[p] == row_edits[q].col;
        if (row_edits[q].remove) {
          if (present) {
            ++res.removed;
            ++p;
          }
        } else {
          out_cols.push_back(row_edits[q].col);
          out_vals.push_back(row_edits[q].value);
          if (present) {
            ++res.assigned;
            ++p;
          } else {
            ++res.inserted;
          }
        }
        ++q;
      }
    }
  }

  /// Rebuild the live CSR: untouched rows copy from the current arrays,
  /// touched rows from the merged buffers, into the spare arrays the
  /// previous batch left (resized, not value-initialized anew), which are
  /// then swapped in. O(nnz) with parallel row copy.
  void rematerialize(const std::vector<IT>& touched_rows,
                     const std::vector<std::size_t>& row_off,
                     const std::vector<IT>& merged_cols,
                     const std::vector<VT>& merged_vals) {
    const IT n = current_.nrows;
    std::vector<IT>& rowptr = spare_rowptr_;
    rowptr.resize(static_cast<std::size_t>(n) + 1);
    rowptr[0] = 0;
    {
      std::size_t t = 0;
      for (IT i = 0; i < n; ++i) {
        IT len;
        if (t < touched_rows.size() && touched_rows[t] == i) {
          len = static_cast<IT>(row_off[t + 1] - row_off[t]);
          ++t;
        } else {
          len = current_.row_nnz(i);
        }
        rowptr[static_cast<std::size_t>(i) + 1] = rowptr[i] + len;
      }
    }
    const auto new_nnz = static_cast<std::size_t>(rowptr[n]);
    spare_colids_.resize(new_nnz);
    spare_values_.resize(new_nnz);
    IT* const colids = spare_colids_.data();
    VT* const values = spare_values_.data();
#pragma omp parallel for schedule(dynamic, 1024)
    for (IT i = 0; i < n; ++i) {
      const auto it =
          std::lower_bound(touched_rows.begin(), touched_rows.end(), i);
      const IT* src_c;
      const VT* src_v;
      std::size_t len;
      if (it != touched_rows.end() && *it == i) {
        const std::size_t t = static_cast<std::size_t>(it - touched_rows.begin());
        src_c = merged_cols.data() + row_off[t];
        src_v = merged_vals.data() + row_off[t];
        len = row_off[t + 1] - row_off[t];
      } else {
        src_c = current_.colids.data() + current_.rowptr[i];
        src_v = current_.values.data() + current_.rowptr[i];
        len = static_cast<std::size_t>(current_.row_nnz(i));
      }
      std::copy_n(src_c, len, colids + rowptr[i]);
      std::copy_n(src_v, len, values + rowptr[i]);
    }
    // Swap the arrays so `current_`'s address — which BoundMatrix handles
    // store — never changes; the old arrays become the next batch's spares.
    current_.rowptr.swap(spare_rowptr_);
    current_.colids.swap(spare_colids_);
    current_.values.swap(spare_values_);
    MSP_ASSERT(current_.check_structure());
  }

  CsrMatrix<IT, VT> current_;  ///< live matrix (stable address)
  std::vector<IT> spare_rowptr_;  ///< previous batch's arrays, reused
  std::vector<IT> spare_colids_;
  std::vector<VT> spare_values_;
  mutable std::mutex mutex_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace msp
