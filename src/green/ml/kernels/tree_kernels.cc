#include "green/ml/kernels/tree_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "green/common/stringutil.h"

// Determinism contract: the checked-in BENCH_*.json snapshots pin every
// RNG draw, candidate skip condition, strict-improvement comparison and
// the accumulation order of every floating-point sum that reaches a model
// output. Integer class counts are order-free, so those loops may run
// over any enumeration of a node's rows; target sums are NOT — they add
// in node order (the order the node's rows were sampled, filtered down
// the recursion), so node-order slot lists are carried alongside the
// presorted per-feature lists. Work (`*flops`) is charged from logical
// dimensions (a per-node sort of n rows costs n log2 n even though the
// stripes are presorted), never from what the loops actually execute.

namespace green {

namespace {

/// Gini impurity of a count vector with total `n`.
double Gini(const std::vector<double>& counts, double n) {
  if (n <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / n;
    g -= p * p;
  }
  return g;
}

void Normalize(std::vector<double>* v) {
  double sum = 0.0;
  for (double x : *v) sum += x;
  if (sum <= 0.0) {
    const double u = 1.0 / static_cast<double>(v->size());
    for (double& x : *v) x = u;
    return;
  }
  for (double& x : *v) x /= sum;
}

/// Per-tree working set. A "slot" is a position in the original row
/// sample (duplicates from bootstrap sampling get distinct slots), so
/// every per-slot array is immune to repeated row ids. The exact search
/// keeps d presorted (slot, value) stripes that are stable-partitioned
/// down the recursion; the random-threshold search keeps the gathered
/// column-major matrix instead and gathers each node's column
/// contiguously once.
struct TreeWorkspace {
  size_t m = 0;
  size_t d = 0;
  uint32_t* rid = nullptr;    ///< slot -> original row id
  int32_t* lab = nullptr;     ///< slot -> label (classification)
  double* tgt = nullptr;      ///< slot -> target (regression / boosting)
  uint32_t* nslot = nullptr;  ///< node-order slot list
  uint8_t* flag = nullptr;    ///< per-slot left/right partition flag
  uint32_t* uscratch = nullptr;
  double* dscratch = nullptr;
  uint32_t* spos = nullptr;  ///< d x m sorted slots (exact)
  double* sval = nullptr;    ///< d x m sorted values (exact)
  double* colT = nullptr;    ///< d x m column-major values (random)
  double* vals = nullptr;    ///< per-node contiguous column gather
  int32_t* nlab = nullptr;   ///< per-node contiguous labels (random)
  double* ntgt = nullptr;    ///< per-node contiguous targets (random)
};

/// One row-major pass over the sample writing the transposed d x m
/// column-major matrix; every later column scan is then contiguous.
void GatherTransposed(const Dataset& train, const uint32_t* rid, size_t m,
                      size_t d, double* colT) {
  for (size_t slot = 0; slot < m; ++slot) {
    const double* row = train.RowPtr(rid[slot]);
    for (size_t f = 0; f < d; ++f) colT[f * m + slot] = row[f];
  }
}

/// Sorts each feature stripe by (value, row id), the order a per-node
/// std::sort on (value, row) pairs would produce; slots with fully equal
/// keys are duplicates of one row and therefore interchangeable.
void PresortStripes(const uint32_t* rid, const double* colT, size_t m,
                    size_t d, uint32_t* spos, double* sval) {
  for (size_t f = 0; f < d; ++f) {
    const double* colf = colT + f * m;
    uint32_t* sp = spos + f * m;
    std::iota(sp, sp + m, uint32_t{0});
    std::sort(sp, sp + m, [colf, rid](uint32_t a, uint32_t b) {
      const double va = colf[a];
      const double vb = colf[b];
      if (va != vb) return va < vb;
      return rid[a] < rid[b];
    });
    double* sv = sval + f * m;
    for (size_t i = 0; i < m; ++i) sv[i] = colf[sp[i]];
  }
}

void InitWorkspace(const Dataset& train, const std::vector<size_t>& rows,
                   bool random_thresholds, bool classification,
                   Arena* arena, TreeWorkspace* ws) {
  const size_t m = rows.size();
  const size_t d = train.num_features();
  ws->m = m;
  ws->d = d;
  ws->rid = arena->AllocArray<uint32_t>(m);
  for (size_t i = 0; i < m; ++i) {
    ws->rid[i] = static_cast<uint32_t>(rows[i]);
  }
  if (classification) {
    ws->lab = arena->AllocArray<int32_t>(m);
    for (size_t i = 0; i < m; ++i) {
      ws->lab[i] = train.Label(ws->rid[i]);
    }
  } else {
    ws->tgt = arena->AllocArray<double>(m);
    for (size_t i = 0; i < m; ++i) {
      ws->tgt[i] = train.Target(ws->rid[i]);
    }
  }
  ws->nslot = arena->AllocArray<uint32_t>(m);
  std::iota(ws->nslot, ws->nslot + m, uint32_t{0});
  ws->flag = arena->AllocArray<uint8_t>(m);
  ws->uscratch = arena->AllocArray<uint32_t>(m);
  ws->dscratch = arena->AllocArray<double>(m);

  if (!random_thresholds) {
    ws->spos = arena->AllocArray<uint32_t>(d * m);
    ws->sval = arena->AllocArray<double>(d * m);
    // The column gather only feeds the presort here; reclaim it.
    ArenaScope gather_scope(arena);
    double* colT = arena->AllocArray<double>(d * m);
    GatherTransposed(train, ws->rid, m, d, colT);
    PresortStripes(ws->rid, colT, m, d, ws->spos, ws->sval);
  } else {
    ws->colT = arena->AllocArray<double>(d * m);
    GatherTransposed(train, ws->rid, m, d, ws->colT);
    ws->vals = arena->AllocArray<double>(m);
    if (classification) {
      ws->nlab = arena->AllocArray<int32_t>(m);
    } else {
      ws->ntgt = arena->AllocArray<double>(m);
    }
  }
}

/// Stable-partitions the node-order slot list [lo, hi) by per-slot flag
/// (1 = left). Returns the left-block size.
size_t PartitionNodeOrder(TreeWorkspace* ws, size_t lo, size_t hi) {
  uint32_t* ns = ws->nslot + lo;
  const size_t len = hi - lo;
  size_t nl = 0;
  size_t nr = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t slot = ns[i];
    if (ws->flag[slot]) {
      ns[nl++] = slot;
    } else {
      ws->uscratch[nr++] = slot;
    }
  }
  std::memcpy(ns + nl, ws->uscratch, nr * sizeof(uint32_t));
  return nl;
}

/// Stable-partitions every presorted stripe's [lo, hi) subrange by the
/// per-slot flags. Left-compaction writes in place (the write index
/// never passes the read index); the right side stages through scratch.
/// A sorted subsequence filtered stably stays sorted, so each child
/// stripe needs no re-sort.
void PartitionStripes(TreeWorkspace* ws, size_t lo, size_t hi) {
  const size_t len = hi - lo;
  for (size_t f = 0; f < ws->d; ++f) {
    uint32_t* sp = ws->spos + f * ws->m + lo;
    double* sv = ws->sval + f * ws->m + lo;
    size_t nl = 0;
    size_t nr = 0;
    for (size_t i = 0; i < len; ++i) {
      const uint32_t slot = sp[i];
      if (ws->flag[slot]) {
        sp[nl] = slot;
        sv[nl] = sv[i];
        ++nl;
      } else {
        ws->uscratch[nr] = slot;
        ws->dscratch[nr] = sv[i];
        ++nr;
      }
    }
    std::memcpy(sp + nl, ws->uscratch, nr * sizeof(uint32_t));
    std::memcpy(sv + nl, ws->dscratch, nr * sizeof(double));
  }
}

/// Shared builder state for the three tree flavors.
struct TreeBuilder {
  TreeBuilder(const TreeKernelParams& params, Rng* rng, double* flops,
              FlatTree* tree)
      : params(&params),
        random_thresholds(params.random_thresholds),
        rng(rng),
        flops(flops),
        tree(tree) {}

  const TreeKernelParams* params;
  const bool random_thresholds;
  Rng* rng;
  double* flops;
  FlatTree* tree;
  TreeWorkspace ws;

  // Reused per-node scratch (consumed before recursing).
  std::vector<double> counts;
  std::vector<double> left_counts;
  std::vector<double> right_counts;
  std::vector<size_t> features;

  /// Candidate feature subset. The RNG stream is part of the snapshot
  /// contract: the full index vector is shuffled, then truncated.
  void SelectFeatures(size_t d) {
    features.resize(d);
    std::iota(features.begin(), features.end(), size_t{0});
    if (params->max_features_fraction > 0.0 &&
        params->max_features_fraction < 1.0) {
      const size_t d_used = std::max<size_t>(
          1,
          static_cast<size_t>(std::ceil(params->max_features_fraction *
                                        static_cast<double>(d))));
      rng->Shuffle(&features);
      features.resize(d_used);
    }
  }

  /// Gathers node column `f` contiguously, returning min/max; the split
  /// scan then reads the gathered copy instead of re-fetching every
  /// value.
  void GatherNodeColumn(size_t f, size_t lo, size_t hi, double* lo_v,
                        double* hi_v) {
    const double* colf = ws.colT + f * ws.m;
    double lov = colf[ws.nslot[lo]];
    double hiv = lov;
    for (size_t i = lo; i < hi; ++i) {
      const double v = colf[ws.nslot[i]];
      ws.vals[i - lo] = v;
      lov = std::min(lov, v);
      hiv = std::max(hiv, v);
    }
    *lo_v = lov;
    *hi_v = hiv;
  }

  /// Flags + partitions for an exact-mode split: the left block is the
  /// `v <= thr` prefix of the best feature's sorted subrange, and every
  /// other stripe plus the node-order list partitions stably by slot.
  size_t SplitExact(size_t lo, size_t hi, size_t best_feature,
                    double threshold) {
    const double* svb = ws.sval + best_feature * ws.m;
    const uint32_t* spb = ws.spos + best_feature * ws.m;
    const size_t nl = static_cast<size_t>(
        std::upper_bound(svb + lo, svb + hi, threshold) - (svb + lo));
    for (size_t i = lo; i < hi; ++i) {
      ws.flag[spb[i]] = i < lo + nl ? 1 : 0;
    }
    PartitionStripes(&ws, lo, hi);
    PartitionNodeOrder(&ws, lo, hi);
    return nl;
  }

  /// Flags + partitions for random-threshold splits (predicate
  /// `value <= thr`, the same routing FlatTree::Walk applies).
  size_t SplitByColumn(size_t lo, size_t hi, size_t best_feature,
                       double threshold) {
    const double* colf = ws.colT + best_feature * ws.m;
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t slot = ws.nslot[i];
      ws.flag[slot] = colf[slot] <= threshold ? 1 : 0;
    }
    return PartitionNodeOrder(&ws, lo, hi);
  }

  int GrowCls(int num_classes, size_t lo, size_t hi, int depth);
  int GrowReg(size_t lo, size_t hi, int depth);
  int GrowGb(size_t lo, size_t hi, int depth);

  /// Finishes `node` as a classification leaf holding the normalized
  /// class distribution.
  void SetClsLeaf(int node) {
    Normalize(&counts);
    std::copy(counts.begin(), counts.end(), tree->leaf(node));
  }
};

int TreeBuilder::GrowCls(int num_classes, size_t lo, size_t hi, int depth) {
  const int node_index = tree->AddNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);
  const size_t kk = static_cast<size_t>(num_classes);

  counts.assign(kk, 0.0);
  for (size_t i = lo; i < hi; ++i) {
    counts[static_cast<size_t>(ws.lab[ws.nslot[i]])] += 1.0;
  }
  const double node_gini = Gini(counts, n);
  *flops += n;

  const bool stop =
      depth >= p.max_depth ||
      len < 2 * static_cast<size_t>(p.min_samples_leaf) ||
      node_gini <= 1e-12;
  if (stop) {
    SetClsLeaf(node_index);
    return node_index;
  }

  SelectFeatures(ws.d);

  if (random_thresholds) {
    // The random-threshold scans read contiguous node gathers; stage the
    // node's labels once so every feature's pass is indirection-free.
    for (size_t i = lo; i < hi; ++i) {
      ws.nlab[i - lo] = ws.lab[ws.nslot[i]];
    }
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = node_gini;  // Must strictly improve.
  left_counts.resize(kk);

  for (size_t f : features) {
    if (random_thresholds) {
      // Extra-Trees: one uniformly random threshold per feature.
      double lov;
      double hiv;
      GatherNodeColumn(f, lo, hi, &lov, &hiv);
      *flops += n;
      if (hiv - lov <= 1e-12) continue;
      const double thr = rng->NextUniform(lov, hiv);
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      double n_left = 0.0;
      for (size_t i = 0; i < len; ++i) {
        if (ws.vals[i] <= thr) {
          left_counts[static_cast<size_t>(ws.nlab[i])] += 1.0;
          n_left += 1.0;
        }
      }
      *flops += n;
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      right_counts.assign(kk, 0.0);
      for (size_t c = 0; c < kk; ++c) {
        right_counts[c] = counts[c] - left_counts[c];
      }
      const double score = (n_left * Gini(left_counts, n_left) +
                            n_right * Gini(right_counts, n_right)) /
                           n;
      if (score < best_score - 1e-12) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = thr;
      }
      continue;
    }

    // Exact search over the presorted stripe. The stripe already holds
    // this node's rows in sorted order; only the sort's logical cost is
    // charged.
    const uint32_t* sp = ws.spos + f * ws.m;
    const double* sv = ws.sval + f * ws.m;
    *flops += n * std::log2(std::max(2.0, n));

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double n_left = 0.0;
    for (size_t i = lo; i + 1 < hi; ++i) {
      left_counts[static_cast<size_t>(ws.lab[sp[i]])] += 1.0;
      n_left += 1.0;
      if (sv[i + 1] - sv[i] <= 1e-12) continue;
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      double right_gini = 1.0;
      double left_gini = 1.0;
      for (size_t c = 0; c < kk; ++c) {
        const double pl = left_counts[c] / n_left;
        const double pr = (counts[c] - left_counts[c]) / n_right;
        left_gini -= pl * pl;
        right_gini -= pr * pr;
      }
      const double score = (n_left * left_gini + n_right * right_gini) / n;
      if (score < best_score - 1e-12) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sv[i] + sv[i + 1]);
      }
    }
    *flops += n * static_cast<double>(kk);
  }

  if (best_feature < 0) {
    SetClsLeaf(node_index);
    return node_index;
  }

  const size_t nl =
      random_thresholds
          ? SplitByColumn(lo, hi, static_cast<size_t>(best_feature),
                          best_threshold)
          : SplitExact(lo, hi, static_cast<size_t>(best_feature),
                       best_threshold);
  const size_t mid = lo + nl;
  const int left = GrowCls(num_classes, lo, mid, depth + 1);
  const int right = GrowCls(num_classes, mid, hi, depth + 1);
  tree->SetSplit(node_index, best_feature, best_threshold, left, right);
  return node_index;
}

int TreeBuilder::GrowReg(size_t lo, size_t hi, int depth) {
  const int node_index = tree->AddNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);

  // Node-order accumulation (see the determinism contract above).
  double sum = 0.0;
  double sumsq = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    const double y = ws.tgt[ws.nslot[i]];
    sum += y;
    sumsq += y * y;
  }
  *flops += 2.0 * n;
  const double mean = sum / n;
  const double node_sse = sumsq - sum * sum / n;

  const bool stop = depth >= p.max_depth ||
                    len < 2 * static_cast<size_t>(p.min_samples_leaf) ||
                    node_sse <= 1e-12;
  if (stop) {
    tree->leaf(node_index)[0] = mean;
    return node_index;
  }

  SelectFeatures(ws.d);

  if (random_thresholds) {
    for (size_t i = lo; i < hi; ++i) {
      ws.ntgt[i - lo] = ws.tgt[ws.nslot[i]];
    }
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = node_sse;  // Must strictly improve.

  for (size_t f : features) {
    if (random_thresholds) {
      double lov;
      double hiv;
      GatherNodeColumn(f, lo, hi, &lov, &hiv);
      *flops += n;
      if (hiv - lov <= 1e-12) continue;
      const double thr = rng->NextUniform(lov, hiv);
      double left_sum = 0.0;
      double left_sumsq = 0.0;
      double n_left = 0.0;
      for (size_t i = 0; i < len; ++i) {
        if (ws.vals[i] <= thr) {
          const double y = ws.ntgt[i];
          left_sum += y;
          left_sumsq += y * y;
          n_left += 1.0;
        }
      }
      *flops += 2.0 * n;
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sumsq = sumsq - left_sumsq;
      const double sse = (left_sumsq - left_sum * left_sum / n_left) +
                         (right_sumsq - right_sum * right_sum / n_right);
      if (sse < best_sse - 1e-12) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold = thr;
      }
      continue;
    }

    const uint32_t* sp = ws.spos + f * ws.m;
    const double* sv = ws.sval + f * ws.m;
    *flops += n * std::log2(std::max(2.0, n));

    double left_sum = 0.0;
    double left_sumsq = 0.0;
    double n_left = 0.0;
    for (size_t i = lo; i + 1 < hi; ++i) {
      const double y = ws.tgt[sp[i]];
      left_sum += y;
      left_sumsq += y * y;
      n_left += 1.0;
      if (sv[i + 1] - sv[i] <= 1e-12) continue;
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sumsq = sumsq - left_sumsq;
      const double sse = (left_sumsq - left_sum * left_sum / n_left) +
                         (right_sumsq - right_sum * right_sum / n_right);
      if (sse < best_sse - 1e-12) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (sv[i] + sv[i + 1]);
      }
    }
    *flops += 4.0 * n;
  }

  if (best_feature < 0) {
    tree->leaf(node_index)[0] = mean;
    return node_index;
  }

  const size_t nl =
      random_thresholds
          ? SplitByColumn(lo, hi, static_cast<size_t>(best_feature),
                          best_threshold)
          : SplitExact(lo, hi, static_cast<size_t>(best_feature),
                       best_threshold);
  const size_t mid = lo + nl;
  const int left = GrowReg(lo, mid, depth + 1);
  const int right = GrowReg(mid, hi, depth + 1);
  tree->SetSplit(node_index, best_feature, best_threshold, left, right);
  return node_index;
}

int TreeBuilder::GrowGb(size_t lo, size_t hi, int depth) {
  const int node_index = tree->AddNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);

  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += ws.tgt[ws.nslot[i]];
  const double mean = n > 0.0 ? sum / n : 0.0;
  *flops += n;

  const bool stop = depth >= p.max_depth ||
                    len < 2 * static_cast<size_t>(p.min_samples_leaf);
  if (!stop) {
    // Exact variance-reduction split search over all features.
    double best_gain = 1e-10;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (size_t f = 0; f < ws.d; ++f) {
      const uint32_t* sp = ws.spos + f * ws.m;
      const double* sv = ws.sval + f * ws.m;
      *flops += n * std::log2(std::max(2.0, n));
      double left_sum = 0.0;
      double left_n = 0.0;
      for (size_t i = lo; i + 1 < hi; ++i) {
        left_sum += ws.tgt[sp[i]];
        left_n += 1.0;
        if (sv[i + 1] - sv[i] <= 1e-12) continue;
        const double right_n = n - left_n;
        if (left_n < p.min_samples_leaf || right_n < p.min_samples_leaf) {
          continue;
        }
        const double right_sum = sum - left_sum;
        // Variance-reduction gain (up to constants).
        const double gain = left_sum * left_sum / left_n +
                            right_sum * right_sum / right_n -
                            sum * sum / n;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (sv[i] + sv[i + 1]);
        }
      }
      *flops += n;
    }
    if (best_feature >= 0) {
      const size_t nl = SplitExact(lo, hi, static_cast<size_t>(best_feature),
                                   best_threshold);
      const size_t mid = lo + nl;
      const int left = GrowGb(lo, mid, depth + 1);
      const int right = GrowGb(mid, hi, depth + 1);
      tree->SetSplit(node_index, best_feature, best_threshold, left, right);
      return node_index;
    }
  }
  tree->leaf(node_index)[0] = mean;
  return node_index;
}

}  // namespace

int FlatTree::AddNode() {
  feature_.push_back(-1);
  threshold_.push_back(0.0);
  left_.push_back(-1);
  right_.push_back(-1);
  leaf_.resize(leaf_.size() + width_, 0.0);
  return static_cast<int>(feature_.size() - 1);
}

void FlatTree::SetSplit(int node, int feature, double threshold, int left,
                        int right) {
  const size_t i = Index(node);
  feature_[i] = feature;
  threshold_[i] = threshold;
  left_[i] = left;
  right_[i] = right;
}

Status CheckTreeIndexRange(size_t num_rows, size_t sample_size) {
  constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
  if (num_rows > kMax || sample_size > kMax) {
    return Status::ResourceExhausted(
        StrFormat("tree: %zu rows (%zu sampled) exceed the 32-bit row ids",
                  num_rows, sample_size));
  }
  return Status::Ok();
}

void BuildClsTree(const Dataset& train, const std::vector<size_t>& rows,
                  const TreeKernelParams& params, int num_classes, Rng* rng,
                  double* flops, Arena* arena, FlatTree* tree) {
  ArenaScope scope(arena);
  *tree = FlatTree(static_cast<size_t>(num_classes));
  TreeBuilder b(params, rng, flops, tree);
  InitWorkspace(train, rows, params.random_thresholds,
                /*classification=*/true, arena, &b.ws);
  b.GrowCls(num_classes, 0, rows.size(), 0);
}

void BuildRegTree(const Dataset& train, const std::vector<size_t>& rows,
                  const TreeKernelParams& params, Rng* rng, double* flops,
                  Arena* arena, FlatTree* tree) {
  ArenaScope scope(arena);
  *tree = FlatTree(/*width=*/1);
  TreeBuilder b(params, rng, flops, tree);
  InitWorkspace(train, rows, params.random_thresholds,
                /*classification=*/false, arena, &b.ws);
  b.GrowReg(0, rows.size(), 0);
}

GbRoundPresort::GbRoundPresort(const Dataset& train,
                               const std::vector<size_t>& rows,
                               Arena* arena) {
  m_ = rows.size();
  d_ = train.num_features();
  uint32_t* rid = arena->AllocArray<uint32_t>(m_);
  for (size_t i = 0; i < m_; ++i) rid[i] = static_cast<uint32_t>(rows[i]);
  uint32_t* spos = arena->AllocArray<uint32_t>(d_ * m_);
  double* sval = arena->AllocArray<double>(d_ * m_);
  {
    ArenaScope gather_scope(arena);
    double* colT = arena->AllocArray<double>(d_ * m_);
    GatherTransposed(train, rid, m_, d_, colT);
    PresortStripes(rid, colT, m_, d_, spos, sval);
  }
  rid_ = rid;
  spos_ = spos;
  sval_ = sval;
}

void BuildGbTree(const GbRoundPresort& presort,
                 const std::vector<double>& targets,
                 const TreeKernelParams& params, double* flops, Arena* arena,
                 FlatTree* tree) {
  ArenaScope scope(arena);
  const size_t m = presort.m_;
  const size_t d = presort.d_;
  *tree = FlatTree(/*width=*/1);
  TreeBuilder b(params, /*rng=*/nullptr, flops, tree);
  b.ws.m = m;
  b.ws.d = d;
  // Working copies: the per-class trees of one round partition the same
  // presorted stripes differently, so each starts from the pristine copy.
  b.ws.spos = arena->AllocArray<uint32_t>(d * m);
  b.ws.sval = arena->AllocArray<double>(d * m);
  std::memcpy(b.ws.spos, presort.spos_, d * m * sizeof(uint32_t));
  std::memcpy(b.ws.sval, presort.sval_, d * m * sizeof(double));
  b.ws.tgt = arena->AllocArray<double>(m);
  for (size_t i = 0; i < m; ++i) {
    b.ws.tgt[i] = targets[presort.rid_[i]];
  }
  b.ws.nslot = arena->AllocArray<uint32_t>(m);
  std::iota(b.ws.nslot, b.ws.nslot + m, uint32_t{0});
  b.ws.flag = arena->AllocArray<uint8_t>(m);
  b.ws.uscratch = arena->AllocArray<uint32_t>(m);
  b.ws.dscratch = arena->AllocArray<double>(m);
  b.GrowGb(0, m, 0);
}

}  // namespace green
