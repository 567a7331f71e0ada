// Unit tests: sparse matrices and vector helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "arcade/compiler.hpp"
#include "ctmc/bounded_until.hpp"
#include "ctmc/ctmc.hpp"
#include "linalg/csr_matrix.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "support/errors.hpp"
#include "watertree/watertree.hpp"

namespace la = arcade::linalg;

TEST(CsrMatrix, BuildsSortedRowsAndSumsDuplicates) {
    la::CsrBuilder b(3, 3);
    b.add(1, 2, 4.0);
    b.add(1, 0, 1.0);
    b.add(1, 2, 0.5);  // duplicate coordinate: summed
    b.add(0, 1, 2.0);
    const la::CsrMatrix m = b.build();
    EXPECT_EQ(m.nonzeros(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 4.5);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(m.at(2, 2), 0.0);
    const auto cols = m.row_columns(1);
    ASSERT_EQ(cols.size(), 2u);
    EXPECT_LT(cols[0], cols[1]);  // sorted
}

TEST(CsrMatrix, MultiplyLeftMatchesManualComputation) {
    // M = [[0,2],[3,0]];  x = [1, 10];  x*M = [30, 2]
    la::CsrBuilder b(2, 2);
    b.add(0, 1, 2.0);
    b.add(1, 0, 3.0);
    const la::CsrMatrix m = b.build();
    std::vector<double> x{1.0, 10.0};
    std::vector<double> y(2, 0.0);
    la::multiply_left(m, x, y);
    EXPECT_DOUBLE_EQ(y[0], 30.0);
    EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(CsrMatrix, TransposeRoundTrips) {
    la::CsrBuilder b(2, 3);
    b.add(0, 2, 5.0);
    b.add(1, 1, 7.0);
    const la::CsrMatrix m = b.build();
    const la::CsrMatrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
    EXPECT_DOUBLE_EQ(t.at(1, 1), 7.0);
    const la::CsrMatrix tt = t.transposed();
    EXPECT_DOUBLE_EQ(tt.at(0, 2), 5.0);
    EXPECT_EQ(tt.nonzeros(), m.nonzeros());
}

TEST(CsrMatrix, RowSumAndOutOfRangeGuard) {
    la::CsrBuilder b(2, 2);
    b.add(0, 0, 1.0);
    b.add(0, 1, 2.0);
    const la::CsrMatrix m = b.build();
    EXPECT_DOUBLE_EQ(m.row_sum(0), 3.0);
    EXPECT_DOUBLE_EQ(m.row_sum(1), 0.0);
}

TEST(VectorOps, DistancesAndDot) {
    std::vector<double> a{1.0, 2.0, 3.0};
    std::vector<double> b{1.5, 2.0, 2.0};
    EXPECT_DOUBLE_EQ(la::linf_distance(a, b), 1.0);
    EXPECT_DOUBLE_EQ(la::dot(a, b), 1.5 + 4.0 + 6.0);
    EXPECT_DOUBLE_EQ(la::sum(a), 6.0);
}

TEST(VectorOps, NormalizeAndGuard) {
    std::vector<double> v{1.0, 3.0};
    la::normalize(v);
    EXPECT_DOUBLE_EQ(v[0], 0.25);
    EXPECT_DOUBLE_EQ(v[1], 0.75);
    std::vector<double> zero{0.0, 0.0};
    EXPECT_THROW(la::normalize(zero), arcade::ModelError);
}

TEST(VectorOps, NeumaierSumCompensatesCancellation) {
    // A naive left-to-right sum of these is 0.0; the compensation term
    // recovers the unit that cancellation swallows.
    const std::vector<double> v{1.0e16, 1.0, -1.0e16};
    EXPECT_DOUBLE_EQ(la::neumaier_sum(v), 1.0);
    const std::vector<double> plain{0.25, 0.5, 0.125};
    EXPECT_DOUBLE_EQ(la::neumaier_sum(plain), la::sum(plain));
    EXPECT_DOUBLE_EQ(la::neumaier_sum({}), 0.0);
}

// --- Kernel-mode bitwise identity on deliberately awkward inputs ----------
//
// The blocked body's whole contract is "same bits, fewer cycles": it must
// agree byte for byte with the scalar reference on empty rows, single-entry
// rows, rows longer than the unroll width, dimensions that are not a
// multiple of it, and NaN/inf payloads.  One IEEE caveat shapes the inputs:
// when BOTH operands of an add are NaNs with different payloads the result
// takes the payload of whichever operand the compiler put first, so the
// identity only covers inputs whose NaNs all share one payload.  The tests
// therefore exercise two special classes separately — ±inf (every NaN they
// generate is the arch's default quiet NaN) and injected quiet NaNs (all
// bit-identical) — rather than mixing the two payloads in one reduction.

namespace {

/// RAII mode switch so a failing assertion cannot leak a non-default
/// kernel mode into later tests.
class KernelModeGuard {
public:
    explicit KernelModeGuard(la::KernelMode mode) : saved_(la::kernel_mode()) {
        la::set_kernel_mode(mode);
    }
    ~KernelModeGuard() { la::set_kernel_mode(saved_); }
    KernelModeGuard(const KernelModeGuard&) = delete;
    KernelModeGuard& operator=(const KernelModeGuard&) = delete;

private:
    la::KernelMode saved_;
};

bool same_bits(std::span<const double> a, std::span<const double> b) {
    // memcmp's pointers must be non-null even for zero bytes, and an empty
    // vector's data() may be null.
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// 23x23 (not a multiple of the unroll width) with empty rows, one-entry
/// rows, long rows and a mix of rows with and without a stored diagonal.
la::CsrMatrix edge_matrix() {
    constexpr std::size_t n = 23;
    la::CsrBuilder b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t len = (r * 5) % 9;  // row lengths 0..8
        for (std::size_t k = 0; k < len; ++k) {
            const std::size_t c = (r + 3 * k + 1) % n;
            const double sign = k % 2 == 0 ? 1.0 : -1.0;
            b.add(r, c, sign * (1.0 + 0.25 * static_cast<double>(k) +
                                0.125 * static_cast<double>(r)));
        }
        if (r % 2 == 0 && len > 0) b.add(r, r, 2.0 + 0.5 * static_cast<double>(r));
    }
    return b.build();
}

enum class Specials { None, Inf, NaN };

std::vector<double> edge_vector(std::size_t n, Specials specials) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        v[i] = 0.25 * static_cast<double>(i) - 2.0;
    }
    if (n > 0) v[0] = 0.0;  // exercises the uniformised in[i]==0 row skip
    if (n >= 18) {
        switch (specials) {
            case Specials::Inf:
                v[3] = std::numeric_limits<double>::infinity();
                v[11] = -std::numeric_limits<double>::infinity();
                break;
            case Specials::NaN:
                v[3] = std::numeric_limits<double>::quiet_NaN();
                v[17] = std::numeric_limits<double>::quiet_NaN();
                break;
            case Specials::None: break;
        }
    }
    return v;
}

constexpr la::KernelMode kModes[] = {la::KernelMode::Scalar, la::KernelMode::Blocked};

const char* mode_name(la::KernelMode mode) {
    return mode == la::KernelMode::Scalar ? "scalar" : "blocked";
}

void expect_all_modes_identical(Specials specials) {
    const la::CsrMatrix m = edge_matrix();
    const std::size_t n = m.rows();
    const std::vector<double> x = edge_vector(n, specials);

    std::vector<double> ref_left(n);
    {
        const KernelModeGuard guard(la::KernelMode::Scalar);
        la::multiply_left(m, x, ref_left);
    }

    for (const la::KernelMode mode : kModes) {
        const KernelModeGuard guard(mode);
        std::vector<double> y(n, 0.5);  // poisoned: kernels must overwrite
        la::multiply_left(m, x, y);
        EXPECT_TRUE(same_bits(y, ref_left)) << "multiply_left " << mode_name(mode);
    }
}

}  // namespace

TEST(Kernels, AllModesBitwiseIdenticalOnEdgeShapes) {
    expect_all_modes_identical(Specials::None);
}

TEST(Kernels, InfinitiesPropagateIdenticallyAcrossModes) {
    expect_all_modes_identical(Specials::Inf);
}

TEST(Kernels, NansPropagateIdenticallyAcrossModes) {
    expect_all_modes_identical(Specials::NaN);
}

TEST(Kernels, SimdModeAlwaysDispatchable) {
    // Simd survives as an alias of Blocked: selecting it must be safe and
    // must run the blocked body.
    const la::CsrMatrix m = edge_matrix();
    const std::vector<double> x = edge_vector(m.rows(), Specials::None);
    std::vector<double> blocked(m.cols()), simd(m.cols());
    {
        const KernelModeGuard guard(la::KernelMode::Blocked);
        la::multiply_left(m, x, blocked);
    }
    const KernelModeGuard guard(la::KernelMode::Simd);
    la::multiply_left(m, x, simd);
    EXPECT_TRUE(same_bits(simd, blocked));
}

// ---------------------------------------------------------------------------
// Linear-time assembly.  CsrBuilder::build() is a stable counting sort by
// row plus a per-row column sort, and sums the entries at one coordinate in
// add() order from +0.0; transposed() and incoming_off_diagonal() are
// counting sorts over the columns.  Every check below is on the bits.
// ---------------------------------------------------------------------------

namespace {

bool same_matrix_bits(const la::CsrMatrix& a, const la::CsrMatrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() && a.row_ptr() == b.row_ptr() &&
           a.col_idx() == b.col_idx() && same_bits(a.values(), b.values());
}

struct Triplet {
    std::size_t row;
    std::size_t col;
    double value;
};

/// Random COO input: some rows empty, columns drawn from a narrow window so
/// coordinates repeat, values spread over 24 decades so the summation order
/// of duplicates shows in the bits.
std::vector<Triplet> random_coo(std::size_t rows, std::size_t cols, std::size_t count,
                                std::mt19937_64& rng) {
    std::vector<Triplet> out;
    if (rows == 0 || cols == 0) return out;
    std::uniform_int_distribution<std::size_t> pick_row(0, rows - 1);
    std::uniform_int_distribution<std::size_t> pick_col(0, std::min<std::size_t>(cols, 6) - 1);
    std::uniform_int_distribution<std::size_t> shift(0, cols - 1);
    std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
    std::uniform_int_distribution<int> exponent(-8, 16);
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t r = pick_row(rng);
        if (r % 3 == 1) continue;  // every third row stays empty
        const std::size_t c = (pick_col(rng) + r * 7 + (k % 11 == 0 ? shift(rng) : 0)) % cols;
        out.push_back({r, c, mantissa(rng) * std::pow(10.0, exponent(rng))});
    }
    return out;
}

/// The builder's contract written the slow way: an ordered map keyed by
/// (row, col), each value summed in arrival order from +0.0.
la::CsrMatrix reference_build(std::size_t rows, std::size_t cols,
                              const std::vector<Triplet>& coo) {
    std::map<std::pair<std::size_t, std::size_t>, double> sums;
    for (const Triplet& t : coo) {
        sums.try_emplace({t.row, t.col}, 0.0).first->second += t.value;
    }
    std::vector<std::size_t> row_ptr(rows + 1, 0);
    std::vector<la::Index> col_idx;
    std::vector<double> values;
    for (const auto& [rc, v] : sums) {
        ++row_ptr[rc.first + 1];
        col_idx.push_back(static_cast<la::Index>(rc.second));
        values.push_back(v);
    }
    for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
    return la::CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
}

/// Transpose the slow way: for every column, scan every row.
la::CsrMatrix reference_transpose(const la::CsrMatrix& m, bool drop_diagonal) {
    std::vector<Triplet> coo;
    for (std::size_t c = 0; c < m.cols(); ++c) {
        for (std::size_t r = 0; r < m.rows(); ++r) {
            const auto cols = m.row_columns(r);
            const auto vals = m.row_values(r);
            for (std::size_t k = 0; k < cols.size(); ++k) {
                if (cols[k] == c && !(drop_diagonal && r == c)) coo.push_back({c, r, vals[k]});
            }
        }
    }
    return reference_build(m.cols(), m.rows(), coo);
}

struct Shape {
    std::size_t rows;
    std::size_t cols;
    std::size_t count;
};

constexpr Shape kShapes[] = {{0, 0, 0},   {0, 5, 10},  {5, 0, 10},  {1, 1, 9},
                             {7, 3, 40},  {3, 11, 40}, {40, 40, 300}, {97, 61, 900}};

}  // namespace

TEST(CsrBuilder, RandomCooMatchesTheInsertionOrderReference) {
    std::mt19937_64 rng(0x5eed15);
    for (const Shape& shape : kShapes) {
        for (int round = 0; round < 3; ++round) {
            const auto coo = random_coo(shape.rows, shape.cols, shape.count, rng);
            la::CsrBuilder b(shape.rows, shape.cols);
            for (const Triplet& t : coo) b.add(t.row, t.col, t.value);
            EXPECT_TRUE(same_matrix_bits(b.build(),
                                         reference_build(shape.rows, shape.cols, coo)))
                << shape.rows << "x" << shape.cols << " round " << round;
        }
    }
}

TEST(CsrBuilder, DuplicatesSumInInsertionOrder) {
    // ((0 + 1e16) + 1) + -1e16 == 0 but ((0 + 1e16) + -1e16) + 1 == 1: three
    // entries at one coordinate whose sum depends on the order.  Interleave
    // them with other rows and columns, in a short row (insertion sort) and
    // a long one (the stable_sort fallback).
    for (const std::size_t filler : {std::size_t{0}, std::size_t{60}}) {
        la::CsrBuilder b(3, 100);
        for (std::size_t c = filler; c > 0; --c) b.add(1, c + 30, 0.5);
        b.add(1, 4, 1e16);
        b.add(1, 7, 1e16);
        b.add(0, 4, 3.0);
        b.add(1, 4, 1.0);
        b.add(1, 7, -1e16);
        b.add(2, 4, -0.0);  // a lone -0.0 sums to +0.0
        b.add(1, 4, -1e16);
        b.add(1, 7, 1.0);
        const la::CsrMatrix m = b.build();
        EXPECT_TRUE(same_bits(m.at(1, 4), 0.0)) << m.at(1, 4);
        EXPECT_TRUE(same_bits(m.at(1, 7), 1.0)) << m.at(1, 7);
        EXPECT_TRUE(same_bits(m.at(0, 4), 3.0));
        ASSERT_EQ(m.row_columns(2).size(), 1u);
        EXPECT_TRUE(same_bits(m.row_values(2)[0], 0.0));
        EXPECT_EQ(m.row_columns(1).size(), 2 + filler);
        EXPECT_TRUE(std::is_sorted(m.row_columns(1).begin(), m.row_columns(1).end()));
    }
}

TEST(CsrBuilder, DimensionsBeyondTheIndexRangeThrow) {
    // Checked before anything is allocated: no matrix this large is built.
    const std::size_t too_many = std::size_t{1} << 32;
    EXPECT_THROW(la::CsrBuilder(2, too_many), arcade::InvalidArgument);
    EXPECT_THROW(la::CsrBuilder(too_many, 2), arcade::InvalidArgument);
    EXPECT_THROW(la::CsrMatrix(too_many, 1, {}, {}, {}), arcade::InvalidArgument);
    EXPECT_THROW(la::CsrMatrix(1, too_many, {0, 0}, {}, {}), arcade::InvalidArgument);
    EXPECT_NO_THROW(la::CsrBuilder(2, la::kMaxIndex));
}

TEST(CsrMatrix, TransposeMatchesTheNaiveReferenceAndRoundTrips) {
    std::mt19937_64 rng(0x7a5e);
    for (const Shape& shape : kShapes) {
        const auto coo = random_coo(shape.rows, shape.cols, shape.count, rng);
        la::CsrBuilder b(shape.rows, shape.cols);
        for (const Triplet& t : coo) b.add(t.row, t.col, t.value);
        const la::CsrMatrix m = b.build();
        const la::CsrMatrix t = m.transposed();
        EXPECT_TRUE(same_matrix_bits(t, reference_transpose(m, false)))
            << shape.rows << "x" << shape.cols;
        EXPECT_TRUE(same_matrix_bits(t.transposed(), m)) << shape.rows << "x" << shape.cols;
        if (shape.rows == shape.cols) {
            EXPECT_TRUE(same_matrix_bits(la::incoming_off_diagonal(m),
                                         reference_transpose(m, true)))
                << shape.rows << "x" << shape.cols;
        }
    }
}

// ---------------------------------------------------------------------------
// Uniformise once.  The solvers step over P = uniformise(rates, lambda), and
// every precomputed kernel must be bitwise equal to dividing rate/lambda on
// the fly: the left form against the kept on-the-fly kernel, the right form
// against the seed's scalar loop below.  The inputs carry the same ±inf /
// quiet-NaN payload classes as the kernel-mode tests above.
// ---------------------------------------------------------------------------

namespace {

namespace ctmc = arcade::ctmc;
namespace core = arcade::core;
namespace watertree = arcade::watertree;

/// The seed's scalar right-form loop: next = P * cur with P built on the
/// fly and the stay term (1 - moved)*cur[i] added last.
void reference_uniformised_right(const la::CsrMatrix& rates, double lambda,
                                 std::span<const double> cur, std::span<double> next) {
    for (std::size_t i = 0; i < rates.rows(); ++i) {
        const auto cols = rates.row_columns(i);
        const auto vals = rates.row_values(i);
        double moved = 0.0;
        double sum = 0.0;
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == i) continue;
            const double p = vals[k] / lambda;
            sum += p * cur[cols[k]];
            moved += p;
        }
        next[i] = sum + (1.0 - moved) * cur[i];
    }
}

/// Random non-negative rate matrix mixing empty rows, one-entry rows (the
/// entry is sometimes the diagonal) and rows of 2–12 entries, every third
/// of which also stores a diagonal entry.
la::CsrMatrix random_rates(std::size_t n, std::mt19937_64& rng) {
    std::uniform_real_distribution<double> rate(0.01, 5.0);
    std::uniform_int_distribution<std::size_t> column(0, n - 1);
    std::uniform_int_distribution<int> shape(0, 5);
    la::CsrBuilder b(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        const int kind = shape(rng);
        if (kind == 0) continue;
        if (kind == 1) {
            b.add(r, r % 4 == 0 ? r : column(rng), rate(rng));
            continue;
        }
        const std::size_t len = 2 + r % 11;
        for (std::size_t k = 0; k < len; ++k) b.add(r, column(rng), rate(rng));
        if (r % 3 == 0) b.add(r, r, rate(rng));
    }
    return b.build();
}

double max_exit(const la::CsrMatrix& rates) {
    double max_rate = 0.0;
    for (std::size_t r = 0; r < rates.rows(); ++r) {
        double exit = 0.0;
        const auto cols = rates.row_columns(r);
        const auto vals = rates.row_values(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] != r) exit += vals[k];
        }
        max_rate = std::max(max_rate, exit);
    }
    return max_rate;
}

bool same_matrix(const la::UniformisedMatrix& a, const la::UniformisedMatrix& b) {
    return a.jumps.rows() == b.jumps.rows() && a.jumps.row_ptr() == b.jumps.row_ptr() &&
           a.jumps.col_idx() == b.jumps.col_idx() &&
           same_bits(a.jumps.values(), b.jumps.values()) && same_bits(a.stay, b.stay) &&
           same_bits(a.lambda, b.lambda);
}

/// The matrices the identity tests run on: the awkward edge matrix (signed
/// values, stored diagonals) and random chains of growing size.
std::vector<la::CsrMatrix> identity_matrices() {
    std::vector<la::CsrMatrix> out{edge_matrix()};
    std::mt19937_64 rng(2010);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                std::size_t{18}, std::size_t{41}, std::size_t{97}}) {
        out.push_back(random_rates(n, rng));
    }
    return out;
}

void expect_precomputed_matches_on_the_fly(Specials specials) {
    for (const la::CsrMatrix& m : identity_matrices()) {
        const std::size_t n = m.rows();
        const double lambda = la::uniformisation_rate(max_exit(m));
        const la::UniformisedMatrix p = la::uniformise(m, lambda);
        const std::vector<double> x = edge_vector(n, specials);

        std::vector<double> ref(n), got(n, 0.5);
        la::uniformised_multiply_left(m, lambda, x, ref);
        la::uniformised_multiply_left(p, x, got);
        EXPECT_TRUE(same_bits(got, ref)) << "left n=" << n;

        reference_uniformised_right(m, lambda, x, ref);
        std::fill(got.begin(), got.end(), 0.5);
        la::uniformised_multiply_right(p, x, got);
        EXPECT_TRUE(same_bits(got, ref)) << "right n=" << n;
    }
}

}  // namespace

TEST(Uniformise, DropsDiagonalAndEmptiesAbsorbingRows) {
    la::CsrBuilder b(3, 3);
    b.add(0, 0, 9.0);  // stored diagonal: never a jump
    b.add(0, 1, 1.0);
    b.add(0, 2, 3.0);
    b.add(1, 0, 2.0);
    const la::CsrMatrix rates = b.build();

    const la::UniformisedMatrix p = la::uniformise(rates, 8.0);
    EXPECT_EQ(p.lambda, 8.0);
    EXPECT_EQ(p.jumps.row_ptr(), (std::vector<std::size_t>{0, 2, 3, 3}));
    EXPECT_EQ(p.jumps.col_idx(), (std::vector<la::Index>{1, 2, 0}));
    EXPECT_EQ(p.jumps.values(), (std::vector<double>{0.125, 0.375, 0.25}));
    EXPECT_EQ(p.stay, (std::vector<double>{0.5, 0.75, 1.0}));

    const std::vector<bool> absorbing{true, false, false};
    const la::UniformisedMatrix masked = la::uniformise(rates, 8.0, &absorbing);
    EXPECT_EQ(masked.jumps.row_ptr(), (std::vector<std::size_t>{0, 0, 1, 1}));
    EXPECT_EQ(masked.jumps.col_idx(), (std::vector<la::Index>{0}));
    EXPECT_EQ(masked.stay, (std::vector<double>{1.0, 0.75, 1.0}));
}

TEST(UniformisedKernels, PrecomputedMatchesOnTheFly) {
    expect_precomputed_matches_on_the_fly(Specials::None);
}

TEST(UniformisedKernels, InfinitiesPropagateIdentically) {
    expect_precomputed_matches_on_the_fly(Specials::Inf);
}

TEST(UniformisedKernels, NansPropagateIdentically) {
    expect_precomputed_matches_on_the_fly(Specials::NaN);
}

namespace {

/// uniformise(chain, &mask) against uniformising the until-transformed copy:
/// same jumps, stay bits and lambda.
void expect_mask_matches_until_transform(const ctmc::Ctmc& chain,
                                         const std::vector<bool>& phi,
                                         const std::vector<bool>& psi) {
    std::vector<bool> absorbing(chain.state_count());
    for (std::size_t s = 0; s < absorbing.size(); ++s) {
        absorbing[s] = psi[s] || (!phi[s] && !psi[s]);
    }
    const ctmc::Ctmc transformed = ctmc::until_transform(chain, phi, psi);
    const double lambda = la::uniformisation_rate(transformed.max_exit_rate());
    EXPECT_TRUE(same_bits(chain.max_exit_rate(absorbing), transformed.max_exit_rate()));

    const la::UniformisedMatrix want = la::uniformise(transformed.rates(), lambda);
    EXPECT_TRUE(same_matrix(la::uniformise(chain.rates(), lambda, &absorbing), want));
    EXPECT_TRUE(same_matrix(ctmc::uniformise(chain, &absorbing), want));
}

}  // namespace

TEST(UniformisedKernels, AbsorbingMaskMatchesUntilTransformOnPlantedChains) {
    std::mt19937_64 rng(77);
    std::bernoulli_distribution coin(0.4);
    for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{23},
                                std::size_t{64}}) {
        const ctmc::Ctmc chain(random_rates(n, rng), ctmc::Ctmc::point_distribution(n, 0));
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<bool> phi(n), psi(n);
            for (std::size_t s = 0; s < n; ++s) {
                phi[s] = !coin(rng);
                psi[s] = coin(rng);
            }
            expect_mask_matches_until_transform(chain, phi, psi);
        }
        // Everything absorbing: the zero-rate transformed chain.
        expect_mask_matches_until_transform(chain, std::vector<bool>(n, false),
                                            std::vector<bool>(n, true));
    }
}

TEST(UniformisedKernels, AbsorbingMaskMatchesUntilTransformOnLine2Frf1) {
    core::CompileOptions options;
    options.encoding = core::Encoding::Individual;
    options.reduction = core::ReductionPolicy::Off;
    options.symmetry = core::SymmetryPolicy::Off;
    const auto model = core::compile(watertree::line(2, watertree::strategy("FRF-1")), options);
    ASSERT_EQ(model.state_count(), 8129u);
    const std::vector<bool> phi(model.state_count(), true);
    for (const double level : {0.25, 0.5, 1.0}) {
        expect_mask_matches_until_transform(model.chain(), phi,
                                            model.service_at_least(level));
    }
}
