#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace mocemg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init)
    : rows_(init.size()), cols_(0) {
  for (const auto& row : init) {
    if (cols_ == 0) cols_ = row.size();
    MOCEMG_CHECK(row.size() == cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Result<Matrix> Matrix::FromRows(
    const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  const size_t cols = rows[0].size();
  Matrix m(rows.size(), cols);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != cols) {
      return Status::InvalidArgument(
          "ragged input: row " + std::to_string(r) + " has " +
          std::to_string(rows[r].size()) + " cells, expected " +
          std::to_string(cols));
    }
    std::copy(rows[r].begin(), rows[r].end(), m.RowPtr(r));
  }
  return m;
}

Result<Matrix> Matrix::FromRowMajor(size_t rows, size_t cols,
                                    std::vector<double> data) {
  if (data.size() != rows * cols) {
    return Status::InvalidArgument(
        "row-major buffer holds " + std::to_string(data.size()) +
        " values, expected " + std::to_string(rows) + " x " +
        std::to_string(cols));
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
}

std::vector<double> Matrix::Column(size_t c) const {
  assert(c < cols_);
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  MOCEMG_CHECK(r < rows_ && values.size() == cols_);
  std::copy(values.begin(), values.end(), RowPtr(r));
}

void Matrix::SetColumn(size_t c, const std::vector<double>& values) {
  MOCEMG_CHECK(c < cols_ && values.size() == rows_);
  for (size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Matrix Matrix::RowSlice(size_t row_begin, size_t row_end) const {
  MOCEMG_CHECK(row_begin <= row_end && row_end <= rows_);
  Matrix out(row_end - row_begin, cols_);
  std::copy(data_.begin() + static_cast<ptrdiff_t>(row_begin * cols_),
            data_.begin() + static_cast<ptrdiff_t>(row_end * cols_),
            out.data_.begin());
  return out;
}

Matrix Matrix::ColumnSlice(size_t col_begin, size_t col_end) const {
  MOCEMG_CHECK(col_begin <= col_end && col_end <= cols_);
  Matrix out(rows_, col_end - col_begin);
  for (size_t r = 0; r < rows_; ++r) {
    std::copy(RowPtr(r) + col_begin, RowPtr(r) + col_end, out.RowPtr(r));
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Result<Matrix> Matrix::Multiply(const Matrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument(
        "matmul shape mismatch: (" + std::to_string(rows_) + "x" +
        std::to_string(cols_) + ") * (" + std::to_string(other.rows_) +
        "x" + std::to_string(other.cols_) + ")");
  }
  Matrix out(rows_, other.cols_);
  // ikj loop order for cache-friendly access to `other`.
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      const double* brow = other.RowPtr(k);
      double* orow = out.RowPtr(i);
      for (size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

Result<Matrix> Matrix::Add(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("add shape mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Result<Matrix> Matrix::Subtract(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("subtract shape mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

void Matrix::Scale(double s) {
  for (double& v : data_) v *= s;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Matrix::AllClose(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

Status Matrix::AppendRows(const Matrix& other) {
  if (other.empty()) return Status::OK();
  if (empty()) {
    *this = other;
    return Status::OK();
  }
  if (other.cols_ != cols_) {
    return Status::InvalidArgument("AppendRows column mismatch");
  }
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
  return Status::OK();
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [\n";
  for (size_t r = 0; r < rows_; ++r) {
    os << "  ";
    for (size_t c = 0; c < cols_; ++c) {
      os << FormatDouble((*this)(r, c), precision);
      if (c + 1 < cols_) os << ", ";
    }
    os << "\n";
  }
  os << "]";
  return os.str();
}

}  // namespace mocemg
