/// \file matrix.h
/// \brief Dense row-major double matrix. The library's joint matrices
/// (frames × 3·joints), window slices, and cluster centers all use this
/// type; it is hand-rolled rather than pulling in Eigen so the whole
/// reproduction is self-contained.

#ifndef MOCEMG_LINALG_MATRIX_H_
#define MOCEMG_LINALG_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/result.h"

namespace mocemg {

/// \brief Dense, row-major, owning matrix of doubles.
class Matrix {
 public:
  /// Constructs an empty (0×0) matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// Constructs a rows×cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from nested initializer lists; all rows must be equal
  /// length (checked).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// \brief Builds a matrix from row-major nested vectors; fails on
  /// ragged input.
  static Result<Matrix> FromRows(
      const std::vector<std::vector<double>>& rows);

  /// \brief Takes ownership of a row-major buffer; fails unless it holds
  /// exactly rows × cols values.
  static Result<Matrix> FromRowMajor(size_t rows, size_t cols,
                                     std::vector<double> data);

  /// \brief n×n identity.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// \brief Raw row-major storage.
  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

  /// \brief Pointer to the start of row r.
  double* RowPtr(size_t r) {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* RowPtr(size_t r) const {
    assert(r < rows_);
    return data_.data() + r * cols_;
  }

  /// \brief Copies row r into a vector.
  std::vector<double> Row(size_t r) const;

  /// \brief Copies column c into a vector.
  std::vector<double> Column(size_t c) const;

  /// \brief Overwrites row r from a vector of matching length.
  void SetRow(size_t r, const std::vector<double>& values);

  /// \brief Overwrites column c from a vector of matching length.
  void SetColumn(size_t c, const std::vector<double>& values);

  /// \brief Returns the sub-matrix rows [row_begin, row_end) × all cols.
  Matrix RowSlice(size_t row_begin, size_t row_end) const;

  /// \brief Returns the sub-matrix of all rows × cols [col_begin, col_end).
  Matrix ColumnSlice(size_t col_begin, size_t col_end) const;

  /// \brief Transpose.
  Matrix Transposed() const;

  /// \brief this · other; fails on inner-dimension mismatch.
  Result<Matrix> Multiply(const Matrix& other) const;

  /// \brief this + other (element-wise); fails on shape mismatch.
  Result<Matrix> Add(const Matrix& other) const;

  /// \brief this - other (element-wise); fails on shape mismatch.
  Result<Matrix> Subtract(const Matrix& other) const;

  /// \brief Scales every element in place.
  void Scale(double s);

  /// \brief Frobenius norm.
  double FrobeniusNorm() const;

  /// \brief Maximum absolute element.
  double MaxAbs() const;

  /// \brief True iff shapes match and all elements are within `tol`.
  bool AllClose(const Matrix& other, double tol = 1e-12) const;

  /// \brief Appends the rows of `other` (must have identical cols).
  Status AppendRows(const Matrix& other);

  /// \brief Human-readable dump (small matrices; debugging and tests).
  std::string ToString(int precision = 4) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

}  // namespace mocemg

#endif  // MOCEMG_LINALG_MATRIX_H_
