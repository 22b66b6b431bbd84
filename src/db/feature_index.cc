#include "db/feature_index.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>

#include "cluster/kmeans.h"
#include "util/distance_kernels.h"
#include "util/logging.h"
#include "util/macros.h"

namespace mocemg {
namespace {

// fp32 overflow gate for the mirror tier (DESIGN.md §15.3): a
// partition is mirrored only when its max ‖r‖² stays below this, and a
// query uses a partition's mirror only when q² + max ‖r‖² does too.
// Element magnitudes are then < 1e15 (f64→f32 conversion stays finite
// and defined) and every fp32 partial sum stays below ~5e29 ≪ FLT_MAX,
// so the mirror scan can produce no Inf and — NaN-free inputs being
// guaranteed upstream — no NaN.
constexpr double kF32TierNormGate = 1e30;

// Query-block scan knob (DESIGN.md §16): kBlockRowSlab caps one visit
// group's per-tier kernel output at g × slab entries, so block scratch
// stays bounded on huge partitions (smaller sets use their largest
// partition's row count, so a block of one query allocates no more
// than it scores). A pure performance knob: every
// per-(query, row) quantity is bit-identical at any value, because
// each pair's kernel accumulation is self-contained and every gate is
// frozen at partition entry.
constexpr size_t kBlockRowSlab = 4096;

// Second prune stage for the dot-form tiers' frozen-gate survivors
// (DESIGN.md §16.3). With |dist − true| <= margin for every scored
// row, at least k candidates have a true distance no greater than
// kthC + margin, where kthC is the k-th smallest candidate dot-form
// distance — and they all reach the same heap as any other candidate
// from this partition. A candidate with dist > kthC + 2·margin
// therefore provably cannot make the final top k, no matter what the
// heap held at partition entry; without this stage an entry-time gate
// alone refines the entire first partition of every query (empty
// heap → infinite threshold). The threshold is a pure function of the
// candidate distances, so a query's survivor set does not depend on
// which other queries share its block. NaN distances are kept — they
// must reach the exact re-check — and sit out of the order statistic.
void SelfGateCandidates(size_t k, double margin,
                        std::vector<uint32_t>* ridx,
                        std::vector<double>* cand,
                        std::vector<double>* sort_tmp) {
  if (k == 0 || ridx->size() <= k) return;
  sort_tmp->clear();
  for (const double d : *cand) {
    if (!std::isnan(d)) sort_tmp->push_back(d);
  }
  if (sort_tmp->size() < k) return;
  std::nth_element(sort_tmp->begin(), sort_tmp->begin() + (k - 1),
                   sort_tmp->end());
  const double thresh = (*sort_tmp)[k - 1] + 2.0 * margin;
  size_t w = 0;
  for (size_t i = 0; i < ridx->size(); ++i) {
    if (!((*cand)[i] > thresh)) {
      (*ridx)[w] = (*ridx)[i];
      (*cand)[w] = (*cand)[i];
      ++w;
    }
  }
  ridx->resize(w);
  cand->resize(w);
}

// MOCEMG_EXACT_PRECISION, read once at first resolution.
ExactPrecision EnvExactPrecision() {
  static const ExactPrecision value = [] {
    const char* env = std::getenv("MOCEMG_EXACT_PRECISION");
    if (env == nullptr || env[0] == '\0') return ExactPrecision::kF64;
    const Result<ExactPrecision> parsed = ParseExactPrecision(env);
    if (!parsed.ok() ||
        parsed.ValueOrDie() == ExactPrecision::kDefault) {
      MOCEMG_LOG(kWarning)
          << "MOCEMG_EXACT_PRECISION=" << env
          << " is not f64/f32; using f64";
      return ExactPrecision::kF64;
    }
    return parsed.ValueOrDie();
  }();
  return value;
}

}  // namespace

const char* ExactPrecisionName(ExactPrecision precision) {
  switch (precision) {
    case ExactPrecision::kDefault:
      return "default";
    case ExactPrecision::kF64:
      return "f64";
    case ExactPrecision::kF32:
      return "f32";
  }
  return "unknown";
}

Result<ExactPrecision> ParseExactPrecision(const std::string& name) {
  if (name == "default") return ExactPrecision::kDefault;
  if (name == "f64" || name == "double") return ExactPrecision::kF64;
  if (name == "f32" || name == "float") return ExactPrecision::kF32;
  return Status::InvalidArgument(
      "unknown exact precision \"" + name + "\" (want f64 or f32)");
}

ExactPrecision ResolveExactPrecision(ExactPrecision precision) {
  return precision == ExactPrecision::kDefault ? EnvExactPrecision()
                                               : precision;
}

Result<IndexLayout> ComputeIndexLayout(const MotionDatabase& database,
                                       const FeatureIndexOptions& options) {
  if (database.empty()) {
    return Status::FailedPrecondition("database is empty");
  }
  const size_t n = database.size();
  const size_t d = database.feature_dimension();
  size_t p = options.num_partitions;
  if (p == 0) {
    p = std::max<size_t>(
        1, static_cast<size_t>(std::lround(std::sqrt(
               static_cast<double>(n)))));
  }
  p = std::min(p, n);

  // The database's packed block is already the row-major points layout
  // k-means wants; copy it wholesale instead of row by row.
  Matrix points(n, d);
  points.mutable_data() = database.packed_features();
  KmeansOptions km;
  km.num_clusters = p;
  km.seed = options.seed;
  MOCEMG_ASSIGN_OR_RETURN(KmeansModel model, FitKmeans(points, km));

  std::vector<std::vector<size_t>> members(p);
  for (size_t k = 0; k < n; ++k) {
    members[model.assignments[k]].push_back(k);
  }
  // Drop empty partitions (k-means can strand one on tiny databases),
  // keeping the references aligned with the survivors.
  IndexLayout layout;
  layout.references = Matrix(0, d);
  layout.members.reserve(p);
  for (size_t i = 0; i < p; ++i) {
    if (members[i].empty()) continue;
    MOCEMG_RETURN_NOT_OK(
        layout.references.AppendRows(model.centers.RowSlice(i, i + 1)));
    layout.members.push_back(std::move(members[i]));
  }
  return layout;
}

void IndexPartitionSet::FillPartition(const double* packed, size_t dim,
                                      const double* reference,
                                      const FeatureIndexOptions& options,
                                      Partition* part) {
  const size_t rows = part->size();
  part->radius_sq = 0.0;
  part->max_norm_sq = 0.0;
  part->block.resize(rows * dim);
  part->norms_sq.resize(rows);
  for (size_t j = 0; j < rows; ++j) {
    const size_t rec = part->record_indices[j];
    const double* row = packed + rec * dim;
    part->radius_sq =
        std::max(part->radius_sq, SquaredL2Dispatched(row, reference, dim));
    const double norm_sq = SquaredNorm(row, dim);
    part->max_norm_sq = std::max(part->max_norm_sq, norm_sq);
    std::memcpy(part->block.data() + j * dim, row, dim * sizeof(double));
    part->norms_sq[j] = norm_sq;
  }
  part->radius = std::sqrt(part->radius_sq);
  // fp32 mirror tier (DESIGN.md §15): at f32 precision every partition
  // gets a float32 copy of the block plus fp32 row norms, so the exact
  // scan can run the cheaper fp32 dot-form kernel and re-evaluate in
  // double only the rows inside the certified fp32 error bound. The
  // pack-time norm gate keeps every f64→f32 conversion finite (and
  // defined behaviour); mirror_max_abs feeds the subnormal term of
  // Float32DotFormErrorBound.
  part->block_f32.clear();
  part->norms_f32.clear();
  part->mirror_max_abs = 0.0;
  if (rows > 0 &&
      ResolveExactPrecision(options.exact_precision) ==
          ExactPrecision::kF32 &&
      part->max_norm_sq < kF32TierNormGate) {
    double max_abs = 0.0;
    for (size_t j = 0; j < rows * dim; ++j) {
      max_abs = std::max(max_abs, std::fabs(part->block[j]));
    }
    part->mirror_max_abs = max_abs;
    part->block_f32.resize(rows * dim);
    for (size_t j = 0; j < rows * dim; ++j) {
      part->block_f32[j] = static_cast<float>(part->block[j]);
    }
    part->norms_f32.resize(rows);
    RowSquaredNormsF32(part->block_f32.data(), rows, dim,
                       part->norms_f32.data());
  }
}

void IndexPartitionSet::RefreshDerived() {
  max_partition_size_ = 0;
  num_rows_ = 0;
  for (const Partition& part : partitions_) {
    max_partition_size_ = std::max(max_partition_size_, part.size());
    num_rows_ += part.size();
  }
}

Status IndexPartitionSet::Pack(const MotionDatabase& database,
                               const Matrix& references,
                               const std::vector<std::vector<size_t>>& members,
                               const FeatureIndexOptions& options) {
  const size_t n = database.size();
  const size_t d = database.feature_dimension();
  if (references.rows() != members.size() ||
      (members.size() > 0 && references.cols() != d)) {
    return Status::InvalidArgument("layout shape mismatch");
  }
  for (const auto& list : members) {
    if (list.empty()) {
      return Status::InvalidArgument("empty partition in layout");
    }
    for (size_t j = 0; j < list.size(); ++j) {
      if (list[j] >= n || (j > 0 && list[j] <= list[j - 1])) {
        return Status::InvalidArgument(
            "partition members must be ascending record indices");
      }
    }
  }
  references_ = references;
  partitions_.assign(members.size(), Partition{});
  for (size_t i = 0; i < members.size(); ++i) {
    partitions_[i].record_indices = members[i];
  }
  // Partitions fill independently (radius, block, norms, mirror are pure
  // functions of the partition's own rows), so the packing pass
  // parallelizes per partition with bit-identical results at any
  // thread count.
  const double* packed = database.packed_features().data();
  ParallelOptions per_partition = options.parallel;
  per_partition.grain = 1;
  Status st = ParallelFor(
      partitions_.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          FillPartition(packed, d, references_.RowPtr(i), options,
                        &partitions_[i]);
        }
        return Status::OK();
      },
      per_partition);
  MOCEMG_RETURN_NOT_OK(st);
  RefreshDerived();
  return Status::OK();
}

Status IndexPartitionSet::RefreshPartition(const MotionDatabase& database,
                                           size_t partition,
                                           const FeatureIndexOptions& options) {
  if (partition >= partitions_.size()) {
    return Status::InvalidArgument("partition out of range");
  }
  const size_t d = database.feature_dimension();
  Partition& part = partitions_[partition];
  if (!part.record_indices.empty() &&
      part.record_indices.back() >= database.size()) {
    return Status::FailedPrecondition(
        "partition references records beyond the database");
  }
  FillPartition(database.packed_features().data(), d,
                references_.RowPtr(partition), options, &part);
  RefreshDerived();
  return Status::OK();
}

void IndexPartitionSet::RefinePush(const double* query, size_t dim,
                                   const Partition& part,
                                   const std::vector<uint32_t>& ridx,
                                   std::vector<double>* rdist,
                                   BoundedTopK* top) const {
  const size_t n = ridx.size();
  if (n == 0) return;
  rdist->resize(n);
  SquaredL2Gather(query, part.block.data(), ridx.data(), n, dim,
                  rdist->data());
  for (size_t i = 0; i < n; ++i) {
    top->Push((*rdist)[i], part.record_indices[ridx[i]]);
  }
}

void IndexPartitionSet::ScanExactBlock(const double* queries,
                                       const double* query_sqs,
                                       size_t num_queries, size_t dim,
                                       BoundedTopK* tops,
                                       BlockScratch* bs,
                                       IndexQueryStats* stats,
                                       const size_t* visit_limits) const {
  const size_t p = partitions_.size();
  const size_t b = num_queries;
  if (p == 0 || b == 0) return;
  IndexQueryStats& local = *stats;
  const size_t slab_cap = std::min(kBlockRowSlab, max_partition_size_);

  // Squared distance from every query to each partition reference, in
  // one blocked many-to-many call; each query visits closest-first (the
  // squared ordering equals the true-distance ordering), zero sqrts.
  // Per-pair bits are the kernel contract's, independent of the block.
  bs->ref_sq.resize(b * p);
  SquaredL2ManyToMany(queries, b, references_.RowPtr(0), p, dim,
                      bs->ref_sq.data(), p);
  local.distance_computations += b * p;
  // A visit limit needs only that prefix of the order sorted.
  bs->order.resize(b * p);
  for (size_t q = 0; q < b; ++q) {
    auto* ord = bs->order.data() + q * p;
    for (size_t i = 0; i < p; ++i) ord[i] = {bs->ref_sq[q * p + i], i};
    const size_t limit = visit_limits != nullptr ? visit_limits[q] : p;
    if (limit < p) {
      std::partial_sort(ord, ord + limit, ord + p);
    } else {
      std::sort(ord, ord + p);
    }
  }
  bs->cursor.assign(b, 0);
  bs->active.assign(b, 1);
  // fp32 query mirrors are refilled lazily per call — the block scratch
  // is reused across blocks and calls, so a size-based check
  // would wrongly keep the previous block's floats.
  bs->qf32_ready.assign(b, 0);
  bs->query_f32.resize(b * dim);
  bs->q_sq_f32.resize(b);
  if (bs->group_ridx.size() < b) bs->group_ridx.resize(b);
  if (bs->group_cand.size() < b) bs->group_cand.resize(b);

  // Lockstep rounds (DESIGN.md §16.1): each round, every still-active
  // query walks its own partition order — applying the
  // triangle-inequality prune against its own current k-th best —
  // until it either selects one partition to visit or exhausts the
  // order. The round's visits are then grouped by partition so one
  // many-to-many kernel call per tier serves every query visiting that
  // partition. Because a query's prune decisions and pushes depend
  // only on its own heap, every query's hits and stat contributions
  // are bit-identical at any block size and group composition.
  //
  // The prune: every record r in a partition satisfies
  // d(q, r) >= d(q, ref) − radius. Evaluated sqrt-free by squaring
  // twice with sign handling: with b = d²(q, ref), r² = radius²,
  // t² = kth, the prune condition √b − r > t (t, r >= 0) is equivalent
  // to  b − r² − t² > 0  ∧  (b − r² − t²)² > 4·r²·t². Candidates are
  // kept and compared in *squared* distance space — the per-record
  // sqrt is deferred to the k reported hits — and the heap breaks
  // distance ties toward the smaller record index, the same rule as
  // the linear scan (top_k.h).
  const double inf = std::numeric_limits<double>::infinity();
  while (true) {
    bs->visits.clear();
    for (size_t q = 0; q < b; ++q) {
      if (!bs->active[q]) continue;
      BoundedTopK* top = &tops[q];
      const size_t limit = visit_limits != nullptr ? visit_limits[q] : p;
      bool selected = false;
      while (bs->cursor[q] < limit) {
        const auto& step = bs->order[q * p + bs->cursor[q]];
        const double ref_sq_dist = step.first;
        const size_t pi = step.second;
        const double kth = top->worst();
        if (kth < inf) {
          const Partition& part = partitions_[pi];
          const double gap = ref_sq_dist - part.radius_sq - kth;
          if (gap > 0.0 && gap * gap > 4.0 * part.radius_sq * kth) {
            ++local.partitions_pruned;
            ++bs->cursor[q];
            continue;
          }
        }
        ++local.partitions_visited;
        bs->visits.emplace_back(pi, q);
        ++bs->cursor[q];
        selected = true;
        break;
      }
      if (!selected) bs->active[q] = 0;
    }
    if (bs->visits.empty()) break;
    // Visits were produced in ascending q; regroup as (partition, q)
    // runs. The grouping order is irrelevant to results (queries have
    // independent heaps) but kept deterministic anyway.
    std::sort(bs->visits.begin(), bs->visits.end());
    size_t v0 = 0;
    while (v0 < bs->visits.size()) {
      const size_t pi = bs->visits[v0].first;
      size_t v1 = v0;
      while (v1 < bs->visits.size() && bs->visits[v1].first == pi) ++v1;
      const Partition& part = partitions_[pi];
      const size_t rows = part.size();
      // Dot-form tiers. The fp32 norm gate is per query, so a mirrored
      // partition's group can split between the fp32 and f64 scans.
      bs->group_members.clear();
      bs->group_members_f64.clear();
      for (size_t v = v0; v < v1; ++v) {
        const size_t q = bs->visits[v].second;
        if (part.mirrored() &&
            query_sqs[q] + part.max_norm_sq < kF32TierNormGate) {
          bs->group_members.push_back(q);
        } else {
          bs->group_members_f64.push_back(q);
        }
      }
      const size_t g32 = bs->group_members.size();
      if (g32 > 0) {
        // fp32 tier: scan the float mirror with the fp32 dot-form
        // kernel, then re-evaluate through the double kernels every
        // row within the certified bound of the k-th best *at
        // partition entry*. The entry-time worst can only shrink while
        // the partition's rows are processed, so gating on it is a
        // conservative superset of gating on the evolving worst: a
        // pruned row provably cannot belong to the final top k (the
        // margin covers |ssd_f32 − ssd_f64| plus the f64 dot-form
        // error, §15.2) and reported hits stay bit-identical to the
        // f64 path. Freezing the gate makes the survivor set
        // independent of push order, so the refine runs as one
        // blocked gather call per member. The gates are captured per
        // member before any of the group's pushes (each member's heap
        // is untouched by the others), survivors are collected across
        // row slabs, and the §16.3 self-gate then shrinks them using
        // the partition's own k-th smallest score — a pure function of
        // the candidate distances, so the set is the same at any block
        // size. A NaN fp32 score compares false against both
        // thresholds and falls through to the double re-check, which
        // is always safe.
        bs->group_qf32.resize(g32 * dim);
        bs->group_qsq32.resize(g32);
        bs->group_margin.resize(g32);
        bs->group_worst.resize(g32);
        bs->group_full.resize(g32);
        for (size_t m = 0; m < g32; ++m) {
          const size_t q = bs->group_members[m];
          if (!bs->qf32_ready[q]) {
            float* qf = bs->query_f32.data() + q * dim;
            const double* qd = queries + q * dim;
            for (size_t j = 0; j < dim; ++j) {
              qf[j] = static_cast<float>(qd[j]);
            }
            bs->q_sq_f32[q] = SquaredNormF32(qf, dim);
            bs->qf32_ready[q] = 1;
          }
          std::memcpy(bs->group_qf32.data() + m * dim,
                      bs->query_f32.data() + q * dim,
                      dim * sizeof(float));
          bs->group_qsq32[m] = bs->q_sq_f32[q];
          bs->group_margin[m] = Float32DotFormErrorBound(
              dim, query_sqs[q], part.max_norm_sq, part.mirror_max_abs);
          bs->group_full[m] = tops[q].full() ? 1 : 0;
          bs->group_worst[m] = tops[q].worst();
          bs->group_ridx[m].clear();
          bs->group_cand[m].clear();
        }
        bs->group_dist32.resize(g32 * slab_cap);
        for (size_t r0 = 0; r0 < rows; r0 += slab_cap) {
          const size_t slab = std::min(rows - r0, slab_cap);
          SquaredL2DotF32ManyToMany(
              bs->group_qf32.data(), bs->group_qsq32.data(), g32,
              part.block_f32.data() + r0 * dim,
              part.norms_f32.data() + r0, slab, dim,
              bs->group_dist32.data(), slab_cap);
          for (size_t m = 0; m < g32; ++m) {
            const float* row = bs->group_dist32.data() + m * slab_cap;
            for (size_t j = 0; j < slab; ++j) {
              const double dj = static_cast<double>(row[j]);
              if (bs->group_full[m] &&
                  dj > bs->group_worst[m] + bs->group_margin[m]) {
                continue;
              }
              bs->group_ridx[m].push_back(
                  static_cast<uint32_t>(r0 + j));
              bs->group_cand[m].push_back(dj);
            }
          }
        }
        for (size_t m = 0; m < g32; ++m) {
          const size_t q = bs->group_members[m];
          SelfGateCandidates(tops[q].k(), bs->group_margin[m],
                             &bs->group_ridx[m], &bs->group_cand[m],
                             &bs->cand_sort);
          local.f32_scans += rows;
          local.f32_refined += bs->group_ridx[m].size();
          local.distance_computations += bs->group_ridx[m].size();
          RefinePush(queries + q * dim, dim, part, bs->group_ridx[m],
                     &bs->rdist, &tops[q]);
        }
      }
      const size_t g64 = bs->group_members_f64.size();
      if (g64 > 0) {
        // f64 dot-form tier: ~2/3 of the difference form's inner-loop
        // work thanks to the precomputed row norms. The form is
        // approximate, so the same frozen-gate + self-gate + gather
        // shape re-checks every row within the kernel error bound of
        // the k-th best with the exact kernels — reported hits are
        // bit-identical to the linear scan.
        bs->group_q.resize(g64 * dim);
        bs->group_qsq.resize(g64);
        bs->group_margin.resize(g64);
        bs->group_worst.resize(g64);
        bs->group_full.resize(g64);
        for (size_t m = 0; m < g64; ++m) {
          const size_t q = bs->group_members_f64[m];
          std::memcpy(bs->group_q.data() + m * dim, queries + q * dim,
                      dim * sizeof(double));
          bs->group_qsq[m] = query_sqs[q];
          bs->group_margin[m] =
              DotFormErrorBound(dim, query_sqs[q], part.max_norm_sq);
          bs->group_full[m] = tops[q].full() ? 1 : 0;
          bs->group_worst[m] = tops[q].worst();
          bs->group_ridx[m].clear();
          bs->group_cand[m].clear();
        }
        bs->group_dist.resize(g64 * slab_cap);
        for (size_t r0 = 0; r0 < rows; r0 += slab_cap) {
          const size_t slab = std::min(rows - r0, slab_cap);
          SquaredL2DotManyToMany(
              bs->group_q.data(), bs->group_qsq.data(), g64,
              part.block.data() + r0 * dim, part.norms_sq.data() + r0,
              slab, dim, bs->group_dist.data(), slab_cap);
          for (size_t m = 0; m < g64; ++m) {
            const double* row = bs->group_dist.data() + m * slab_cap;
            for (size_t j = 0; j < slab; ++j) {
              if (bs->group_full[m] &&
                  row[j] > bs->group_worst[m] + bs->group_margin[m]) {
                continue;
              }
              bs->group_ridx[m].push_back(
                  static_cast<uint32_t>(r0 + j));
              bs->group_cand[m].push_back(row[j]);
            }
          }
        }
        for (size_t m = 0; m < g64; ++m) {
          const size_t q = bs->group_members_f64[m];
          SelfGateCandidates(tops[q].k(), bs->group_margin[m],
                             &bs->group_ridx[m], &bs->group_cand[m],
                             &bs->cand_sort);
          local.distance_computations += rows;
          RefinePush(queries + q * dim, dim, part, bs->group_ridx[m],
                     &bs->rdist, &tops[q]);
        }
      }
      v0 = v1;
    }
  }
}

bool IndexPartitionSet::AllBeyond(const std::vector<double>& query,
                                  double kth) const {
  if (!(kth >= 0.0) || !std::isfinite(kth)) return false;
  const size_t dim = query.size();
  // Inflate kth² so floating-point rounding in the sqrt'd cached
  // distance can only make the test *harder* to pass — a false "all
  // beyond" would serve a wrong cached answer, a false "not beyond"
  // only costs a cache miss.
  const double kth_sq = kth * kth * (1.0 + 1e-9);
  for (size_t pi = 0; pi < partitions_.size(); ++pi) {
    const Partition& part = partitions_[pi];
    const double ref_sq_dist =
        SquaredL2Dispatched(query.data(), references_.RowPtr(pi), dim);
    const double gap = ref_sq_dist - part.radius_sq - kth_sq;
    if (!(gap > 0.0 && gap * gap > 4.0 * part.radius_sq * kth_sq)) {
      return false;
    }
  }
  return true;
}

}  // namespace mocemg
