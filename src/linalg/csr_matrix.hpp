// Compressed-sparse-row matrix — the representation for CTMC rate matrices
// and uniformised probability matrices throughout the library.
#ifndef ARCADE_LINALG_CSR_MATRIX_HPP
#define ARCADE_LINALG_CSR_MATRIX_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace arcade::linalg {

/// The column index of every stored entry (and the row/column number of
/// every matrix): 32 bits, so the matrix stream moves 12 bytes per nonzero
/// instead of 16.  Row pointers stay std::size_t.  A matrix with more rows
/// or columns than kMaxIndex is refused with InvalidArgument by CsrBuilder
/// and the CsrMatrix constructor — never silently wrapped.
using Index = std::uint32_t;
inline constexpr std::size_t kMaxIndex = std::numeric_limits<Index>::max();

/// One stored entry of a sparse matrix row.
struct Entry {
    Index column;
    double value;
};

class CsrMatrix;

/// Closes one CSR row: stably sorts the row's entries, held at positions
/// [begin, end) of `cols`/`vals`, by column, then sums each run of equal
/// columns in its original order starting from +0.0 — ((0.0 + v1) + v2) +
/// ... — and writes the sums, one per distinct column in ascending order,
/// from position `out` (out <= begin; the write cursor never passes the
/// read cursor).  Returns the position one past the last sum written.
///
/// This is the summation order contract of every CSR assembly in the
/// library (CsrBuilder::build() and the explorer's row assembly): three or
/// more duplicates whose sum depends on association always give the same
/// bits.  Short rows (up to 32 entries) are insertion-sorted without
/// allocating; longer rows fall back to std::stable_sort.
std::size_t sort_and_sum_row(Index* cols, double* vals, std::size_t begin, std::size_t end,
                             std::size_t out);

/// Incremental builder: entries may arrive in any order; duplicate
/// coordinates are summed.  `build()` produces a column-sorted CsrMatrix in
/// time linear in the entry count (a stable counting sort by row, then
/// sort_and_sum_row() on each row).
///
/// Summation order contract: the entries at one coordinate are summed in the
/// order they were add()ed, starting from +0.0 (see sort_and_sum_row()).
class CsrBuilder {
public:
    /// Throws InvalidArgument when `rows` or `cols` exceeds kMaxIndex.
    explicit CsrBuilder(std::size_t rows, std::size_t cols);

    void add(std::size_t row, std::size_t col, double value);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] CsrMatrix build() const;

private:
    std::size_t rows_;
    std::size_t cols_;
    struct Coo {
        Index row;
        Index col;
        double value;
    };
    std::vector<Coo> entries_;
};

/// Immutable CSR matrix.  Row entries are sorted by column with no duplicates.
class CsrMatrix {
public:
    CsrMatrix() = default;
    /// Throws InvalidArgument when `rows` or `cols` exceeds kMaxIndex.
    CsrMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_ptr,
              std::vector<Index> col_idx, std::vector<double> values);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
    [[nodiscard]] std::size_t nonzeros() const noexcept { return values_.size(); }

    [[nodiscard]] std::span<const Index> row_columns(std::size_t row) const;
    [[nodiscard]] std::span<const double> row_values(std::size_t row) const;

    /// Value at (row, col); 0.0 when not stored.
    [[nodiscard]] double at(std::size_t row, std::size_t col) const;

    [[nodiscard]] const std::vector<std::size_t>& row_ptr() const noexcept { return row_ptr_; }
    [[nodiscard]] const std::vector<Index>& col_idx() const noexcept { return col_idx_; }
    [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> row_ptr_;  // size rows_+1
    std::vector<Index> col_idx_;
    std::vector<double> values_;
};

/// Incoming edges of a square matrix with the diagonal dropped: row v lists,
/// in ascending order, every source s != v with m(s, v) stored, valued
/// m(s, v): the transpose minus the diagonal, built by a counting sort over
/// the columns in O(nnz + rows), every entry copied unchanged.  It is the
/// "who sends rate into v" structure of Gauss–Seidel steady-state sweeps,
/// reachability searches and splitter-based lumping.
[[nodiscard]] CsrMatrix incoming_off_diagonal(const CsrMatrix& m);

}  // namespace arcade::linalg

#endif  // ARCADE_LINALG_CSR_MATRIX_HPP
