#include "linalg/csr_matrix.hpp"

#include <algorithm>
#include <string>

#include "support/errors.hpp"

namespace arcade::linalg {

namespace {

/// Throws unless every row and column number of a rows x cols matrix fits
/// in an Index.
void check_index_range(std::size_t rows, std::size_t cols, const char* what) {
    if (rows > kMaxIndex || cols > kMaxIndex) {
        throw InvalidArgument(std::string(what) + ": " + std::to_string(rows) + "x" +
                              std::to_string(cols) + " exceeds the " +
                              std::to_string(kMaxIndex) + " rows/columns a 32-bit index holds");
    }
}

/// Sorts one row's (column, value) pairs by column, stably: entries at the
/// same column keep their relative order.  Rows are short (a handful of
/// entries), so an insertion sort does the work without allocating; long
/// rows fall back to std::stable_sort.
void sort_row_by_column(Index* cols, double* vals, std::size_t len) {
    constexpr std::size_t kInsertionMax = 32;
    if (len <= kInsertionMax) {
        for (std::size_t i = 1; i < len; ++i) {
            const Index c = cols[i];
            const double v = vals[i];
            std::size_t j = i;
            for (; j > 0 && cols[j - 1] > c; --j) {
                cols[j] = cols[j - 1];
                vals[j] = vals[j - 1];
            }
            cols[j] = c;
            vals[j] = v;
        }
        return;
    }
    std::vector<Entry> row(len);
    for (std::size_t k = 0; k < len; ++k) row[k] = Entry{cols[k], vals[k]};
    std::stable_sort(row.begin(), row.end(),
                     [](const Entry& a, const Entry& b) { return a.column < b.column; });
    for (std::size_t k = 0; k < len; ++k) {
        cols[k] = row[k].column;
        vals[k] = row[k].value;
    }
}

}  // namespace

CsrMatrix incoming_off_diagonal(const CsrMatrix& m) {
    ARCADE_ASSERT(m.rows() == m.cols(), "incoming_off_diagonal needs a square matrix");
    // A counting-sort transpose without the diagonal.  Source rows are
    // visited in ascending order, so every row comes out column-sorted
    // without a sort.
    const std::size_t n = m.rows();
    const auto& row_ptr = m.row_ptr();
    const auto& col_idx = m.col_idx();
    const auto& values = m.values();
    std::vector<std::size_t> ptr(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            if (col_idx[k] != r) ++ptr[col_idx[k] + 1];
        }
    }
    for (std::size_t c = 0; c < n; ++c) ptr[c + 1] += ptr[c];
    std::vector<Index> out_cols(ptr[n]);
    std::vector<double> out_vals(ptr[n]);
    std::vector<std::size_t> fill(ptr.begin(), ptr.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            if (col_idx[k] == r) continue;
            const std::size_t slot = fill[col_idx[k]]++;
            out_cols[slot] = static_cast<Index>(r);
            out_vals[slot] = values[k];
        }
    }
    return CsrMatrix(n, n, std::move(ptr), std::move(out_cols), std::move(out_vals));
}

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {
    check_index_range(rows, cols, "CsrBuilder");
}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
    ARCADE_ASSERT(row < rows_ && col < cols_,
                  "entry (" + std::to_string(row) + "," + std::to_string(col) +
                      ") outside " + std::to_string(rows_) + "x" + std::to_string(cols_));
    entries_.push_back(Coo{static_cast<Index>(row), static_cast<Index>(col), value});
}

std::size_t sort_and_sum_row(Index* cols, double* vals, std::size_t begin, std::size_t end,
                             std::size_t out) {
    sort_row_by_column(cols + begin, vals + begin, end - begin);
    for (std::size_t k = begin; k < end;) {
        const Index c = cols[k];
        double v = 0.0;
        for (; k < end && cols[k] == c; ++k) v += vals[k];
        cols[out] = c;
        vals[out] = v;
        ++out;
    }
    return out;
}

CsrMatrix CsrBuilder::build() const {
    // Stable counting sort by row: each row's slice holds its entries in
    // add() order.
    std::vector<std::size_t> row_ptr(rows_ + 1, 0);
    for (const Coo& e : entries_) ++row_ptr[e.row + 1];
    for (std::size_t r = 0; r < rows_; ++r) row_ptr[r + 1] += row_ptr[r];
    std::vector<Index> col_idx(entries_.size());
    std::vector<double> values(entries_.size());
    {
        std::vector<std::size_t> fill(row_ptr.begin(), row_ptr.end() - 1);
        for (const Coo& e : entries_) {
            const std::size_t slot = fill[e.row]++;
            col_idx[slot] = e.col;
            values[slot] = e.value;
        }
    }
    // Close each row in place: the rows before it have already shrunk, so
    // its sums land at `out`, never past its own entries.
    std::size_t out = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::size_t begin = row_ptr[r];
        row_ptr[r] = out;
        out = sort_and_sum_row(col_idx.data(), values.data(), begin, row_ptr[r + 1], out);
    }
    row_ptr[rows_] = out;
    col_idx.resize(out);
    values.resize(out);
    return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
                     std::vector<Index> col_idx, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
    check_index_range(rows_, cols_, "CsrMatrix");
    ARCADE_ASSERT(row_ptr_.size() == rows_ + 1, "row_ptr size mismatch");
    ARCADE_ASSERT(col_idx_.size() == values_.size(), "col/value size mismatch");
}

std::span<const Index> CsrMatrix::row_columns(std::size_t row) const {
    ARCADE_ASSERT(row < rows_, "row out of range");
    return {col_idx_.data() + row_ptr_[row], row_ptr_[row + 1] - row_ptr_[row]};
}

std::span<const double> CsrMatrix::row_values(std::size_t row) const {
    ARCADE_ASSERT(row < rows_, "row out of range");
    return {values_.data() + row_ptr_[row], row_ptr_[row + 1] - row_ptr_[row]};
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
    const auto cols = row_columns(row);
    const auto it = std::lower_bound(cols.begin(), cols.end(), col);
    if (it == cols.end() || *it != col) return 0.0;
    return values_[row_ptr_[row] + static_cast<std::size_t>(it - cols.begin())];
}

}  // namespace arcade::linalg
