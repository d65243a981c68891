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
// stripes are presorted, and the table presort charges nothing), never
// from what the loops actually execute.
//
// Each exact-search stripe is the sample's slots in (value, row id)
// order. The table presort holds that order over all rows; a counting
// pass walks it and emits every row's slots, which yields the sample's
// (value, row id) order because restricting a total order to a subset
// keeps it sorted. Slots of one row come out adjacent in ascending slot
// order, where a per-tree sort would leave them in an arbitrary order.
// Such slots are duplicates of one bootstrap row: same value, label and
// target, and every split flags them alike. So every scan, partition and
// accumulation sees the same sequence of numbers either way, and the
// outputs stay bit-identical. When the sample is the whole table in row
// order, each row's bucket is its own slot and the stripes are the
// presort itself, copied as is.
//
// Class counts are uint32_t. A count is an integer below 2^32, so it
// converts to double exactly, and the difference of two counts equals the
// difference of their doubles: each Gini term divides and subtracts the
// same doubles a double-valued counter would hold, in class order. The scan is compiled for 2, 3 and 4 classes; with two classes it
// counts class 1 alone and derives class 0 as n_left - count_1, which is
// the same integer. A candidate's left and right terms share the two
// lanes of one vector (V2 below); each lane rounds exactly as the scalar
// operation would, so pairing them moves no bit.
//
// A split stable-partitions the stripes only for children that read
// them. A child stops before any stripe read when it reaches max_depth
// or holds fewer than 2 * min_samples_leaf rows, and it then needs only
// the node-order slot list (always partitioned) for its counts and sums.
// When both children stop that way the stripes' [lo, hi) range is left in
// the parent's order: no later node reads it, because every other node
// works on a disjoint range. The best feature's own stripe needs no pass
// at all: its left block is already the `v <= thr` prefix.

namespace green {

namespace {

/// Gini impurity of `k` class counts with total `n`.
double Gini(const uint32_t* counts, size_t k, double n) {
  if (n <= 0.0) return 0.0;
  double g = 1.0;
  for (size_t c = 0; c < k; ++c) {
    const double p = static_cast<double>(counts[c]) / n;
    g -= p * p;
  }
  return g;
}

/// Two doubles operated on lane by lane, each lane rounding exactly as a
/// scalar operation would; the scans put a split's left and right side
/// in one so that both sides' divisions issue together.
using V2 = double __attribute__((vector_size(16)));

/// The best split a node has found so far. `score` starts at the node's
/// impurity; a candidate must beat it by more than 1e-12.
struct SplitChoice {
  double score;
  int feature = -1;
  double threshold = 0.0;
};

/// Exact Gini scan of one presorted stripe: every boundary between
/// distinct values that leaves `min_leaf` (>= 1) rows on each side is a
/// candidate. Rows before the first candidate only feed the counts, and
/// rows after the last are never read. `K` is the class count when it is
/// known at compile time, 0 otherwise (then `k` counts in `scratch`).
template <size_t K>
void ScanClsStripe(const uint32_t* sp, const double* sv, const int32_t* lab,
                   size_t lo, size_t hi, size_t min_leaf,
                   const uint32_t* counts, size_t k, uint32_t* scratch,
                   int feature, SplitChoice* best) {
  const double n = static_cast<double>(hi - lo);
  const size_t first = lo + min_leaf - 1;  // n_left == min_leaf
  const size_t last = hi - min_leaf;       // n_right == min_leaf
  SplitChoice b = *best;
  double bar = b.score - 1e-12;
  const auto consider = [&](size_t i, double score) {
    if (score < bar) {
      b.score = score;
      b.feature = feature;
      b.threshold = 0.5 * (sv[i] + sv[i + 1]);
      bar = score - 1e-12;
    }
  };
  size_t i = lo;
  if constexpr (K == 2) {
    // Labels are 0 or 1: count class 1 only.
    uint32_t left1 = 0;
    for (; i < first; ++i) left1 += static_cast<uint32_t>(lab[sp[i]]);
    for (; i < last; ++i) {
      left1 += static_cast<uint32_t>(lab[sp[i]]);
      if (sv[i + 1] - sv[i] <= 1e-12) continue;
      const uint32_t nl = static_cast<uint32_t>(i - lo + 1);
      const uint32_t left0 = nl - left1;
      const double n_left = static_cast<double>(nl);
      const double n_right = n - n_left;
      const V2 sides = {n_left, n_right};
      const V2 p0 = V2{static_cast<double>(left0),
                       static_cast<double>(counts[0] - left0)} /
                    sides;
      const V2 p1 = V2{static_cast<double>(left1),
                       static_cast<double>(counts[1] - left1)} /
                    sides;
      const V2 gini = V2{1.0, 1.0} - p0 * p0 - p1 * p1;
      consider(i, (n_left * gini[0] + n_right * gini[1]) / n);
    }
  } else {
    const size_t kk = K != 0 ? K : k;
    uint32_t local[K != 0 ? K : 1] = {};
    uint32_t* left = K != 0 ? local : scratch;
    if constexpr (K == 0) std::fill(left, left + kk, uint32_t{0});
    for (; i < first; ++i) ++left[lab[sp[i]]];
    for (; i < last; ++i) {
      ++left[lab[sp[i]]];
      if (sv[i + 1] - sv[i] <= 1e-12) continue;
      const double n_left = static_cast<double>(
          static_cast<uint32_t>(i - lo + 1));
      const double n_right = n - n_left;
      // Lane 0 is the left side, lane 1 the right.
      const V2 sides = {n_left, n_right};
      V2 gini = {1.0, 1.0};
      for (size_t c = 0; c < kk; ++c) {
        const V2 p = V2{static_cast<double>(left[c]),
                        static_cast<double>(counts[c] - left[c])} /
                     sides;
        gini -= p * p;
      }
      consider(i, (n_left * gini[0] + n_right * gini[1]) / n);
    }
  }
  *best = b;
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

/// Slot-level state every tree flavor needs: row ids, the node-order
/// slot list and the partition scratch.
void InitSlots(const std::vector<size_t>& rows, size_t d, Arena* arena,
               TreeWorkspace* ws) {
  const size_t m = rows.size();
  ws->m = m;
  ws->d = d;
  ws->rid = arena->AllocArray<uint32_t>(m);
  for (size_t i = 0; i < m; ++i) {
    ws->rid[i] = static_cast<uint32_t>(rows[i]);
  }
  ws->nslot = arena->AllocArray<uint32_t>(m);
  std::iota(ws->nslot, ws->nslot + m, uint32_t{0});
  ws->flag = arena->AllocArray<uint8_t>(m);
  ws->uscratch = arena->AllocArray<uint32_t>(m);
  ws->dscratch = arena->AllocArray<double>(m);
}

/// Derives the exact search's d x m sorted stripes from the table
/// presort in O(d * (n + m)): buckets the sample's slots by row id
/// (CSR: per-row offsets into one flat slot array, each bucket in
/// ascending slot order), then walks each feature's table order and
/// emits every row's bucket. A sample that is the table in row order
/// (slot i holds row i) copies the presort instead.
void DeriveStripes(const TablePresort& presort, Arena* arena,
                   TreeWorkspace* ws) {
  const size_t n = presort.num_rows();
  const size_t m = ws->m;
  ws->spos = arena->AllocArray<uint32_t>(ws->d * m);
  ws->sval = arena->AllocArray<double>(ws->d * m);
  bool identity = m == n;
  for (size_t slot = 0; identity && slot < m; ++slot) {
    identity = ws->rid[slot] == slot;
  }
  if (identity) {
    for (size_t f = 0; f < ws->d; ++f) {
      std::memcpy(ws->spos + f * m, presort.order(f), m * sizeof(uint32_t));
      std::memcpy(ws->sval + f * m, presort.values(f), m * sizeof(double));
    }
    return;
  }
  // The buckets only feed the stripes; reclaim them.
  ArenaScope bucket_scope(arena);
  uint32_t* start = arena->AllocArray<uint32_t>(n + 1);
  uint32_t* next = arena->AllocArray<uint32_t>(n);
  // One spare entry: an empty bucket may start at m (see below).
  uint32_t* bucket = arena->AllocArray<uint32_t>(m + 1);
  bucket[m] = 0;
  std::fill(start, start + n + 1, uint32_t{0});
  for (size_t slot = 0; slot < m; ++slot) ++start[ws->rid[slot] + 1];
  for (size_t r = 0; r < n; ++r) start[r + 1] += start[r];
  std::memcpy(next, start, n * sizeof(uint32_t));
  for (size_t slot = 0; slot < m; ++slot) {
    bucket[next[ws->rid[slot]]++] = static_cast<uint32_t>(slot);
  }
  for (size_t f = 0; f < ws->d; ++f) {
    const uint32_t* order = presort.order(f);
    const double* values = presort.values(f);
    uint32_t* sp = ws->spos + f * m;
    double* sv = ws->sval + f * m;
    // Stops once all m slots are out. Every row writes its bucket's
    // first slot unconditionally: while out < m a slot is still to come,
    // and it overwrites an empty bucket's write.
    size_t out = 0;
    for (size_t i = 0; out < m; ++i) {
      const uint32_t row = order[i];
      const double v = values[i];
      const uint32_t b = start[row];
      const uint32_t e = start[row + 1];
      sp[out] = bucket[b];
      sv[out] = v;
      for (uint32_t x = b + 1; x < e; ++x) {
        sp[out + (x - b)] = bucket[x];
        sv[out + (x - b)] = v;
      }
      out += e - b;
    }
  }
}

void InitWorkspace(const Dataset& train, const TablePresort* presort,
                   const std::vector<size_t>& rows, bool random_thresholds,
                   bool classification, Arena* arena, TreeWorkspace* ws) {
  const size_t m = rows.size();
  const size_t d = train.num_features();
  InitSlots(rows, d, arena, ws);
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

  if (!random_thresholds) {
    DeriveStripes(*presort, arena, ws);
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

// The partitions below are branch-free: each element is written to
// both the left block and the right scratch, and only the side its flag
// (0 or 1) names advances. A write at the left index lands on an
// element already read (the index never passes the read index) and is
// overwritten by the next left element or the right block's copy.

/// Stable-partitions the node-order slot list [lo, hi) by per-slot flag
/// (1 = left). Returns the left-block size.
size_t PartitionNodeOrder(TreeWorkspace* ws, size_t lo, size_t hi) {
  uint32_t* ns = ws->nslot + lo;
  const uint8_t* flag = ws->flag;
  uint32_t* right = ws->uscratch;
  const size_t len = hi - lo;
  size_t nl = 0;
  size_t nr = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t slot = ns[i];
    const size_t left = flag[slot];
    ns[nl] = slot;
    right[nr] = slot;
    nl += left;
    nr += 1 - left;
  }
  std::memcpy(ns + nl, right, nr * sizeof(uint32_t));
  return nl;
}

/// Stable-partitions every presorted stripe's [lo, hi) subrange but
/// `skip`'s (already split: its left block is its prefix) by the
/// per-slot flags, the right side staging through scratch. A sorted
/// subsequence filtered stably stays sorted, so each child stripe needs
/// no re-sort.
void PartitionStripes(TreeWorkspace* ws, size_t lo, size_t hi, size_t skip) {
  const size_t len = hi - lo;
  const uint8_t* flag = ws->flag;
  uint32_t* right_slot = ws->uscratch;
  double* right_value = ws->dscratch;
  for (size_t f = 0; f < ws->d; ++f) {
    if (f == skip) continue;
    uint32_t* sp = ws->spos + f * ws->m + lo;
    double* sv = ws->sval + f * ws->m + lo;
    size_t nl = 0;
    size_t nr = 0;
    for (size_t i = 0; i < len; ++i) {
      const uint32_t slot = sp[i];
      const double v = sv[i];
      const size_t left = flag[slot];
      sp[nl] = slot;
      sv[nl] = v;
      right_slot[nr] = slot;
      right_value[nr] = v;
      nl += left;
      nr += 1 - left;
    }
    std::memcpy(sp + nl, right_slot, nr * sizeof(uint32_t));
    std::memcpy(sv + nl, right_value, nr * sizeof(double));
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
  std::vector<uint32_t> counts;
  std::vector<uint32_t> left_counts;
  std::vector<uint32_t> right_counts;
  std::vector<size_t> features;

  /// min_samples_leaf, at least 1: every split leaves a row on each side.
  size_t MinLeaf() const {
    return static_cast<size_t>(std::max(1, params->min_samples_leaf));
  }

  /// True when a node of `len` rows is too small to split, whatever its
  /// impurity.
  bool StopsOnSize(size_t len) const {
    return len < 2 * static_cast<size_t>(params->min_samples_leaf);
  }

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

  /// Flags + partitions for an exact-mode split of a node at `depth`:
  /// the left block is the `v <= thr` prefix of the best feature's
  /// sorted subrange, and the node-order list partitions stably by slot.
  /// Every other stripe partitions too, unless both children stop on
  /// depth or size alone and so never read a stripe.
  size_t SplitExact(size_t lo, size_t hi, int depth, size_t best_feature,
                    double threshold) {
    const double* svb = ws.sval + best_feature * ws.m;
    const uint32_t* spb = ws.spos + best_feature * ws.m;
    const size_t nl = static_cast<size_t>(
        std::upper_bound(svb + lo, svb + hi, threshold) - (svb + lo));
    for (size_t i = lo; i < hi; ++i) {
      ws.flag[spb[i]] = i < lo + nl ? 1 : 0;
    }
    const bool children_stop =
        depth + 1 >= params->max_depth ||
        (StopsOnSize(nl) && StopsOnSize(hi - lo - nl));
    if (!children_stop) PartitionStripes(&ws, lo, hi, best_feature);
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

  /// Exact scan of feature `f`'s stripe, compiled for the class count.
  void ScanCls(size_t f, size_t lo, size_t hi, SplitChoice* best) {
    const uint32_t* sp = ws.spos + f * ws.m;
    const double* sv = ws.sval + f * ws.m;
    const size_t min_leaf = MinLeaf();
    const size_t k = counts.size();
    const int feature = static_cast<int>(f);
    switch (k) {
      case 2:
        ScanClsStripe<2>(sp, sv, ws.lab, lo, hi, min_leaf, counts.data(), k,
                         nullptr, feature, best);
        break;
      case 3:
        ScanClsStripe<3>(sp, sv, ws.lab, lo, hi, min_leaf, counts.data(), k,
                         nullptr, feature, best);
        break;
      case 4:
        ScanClsStripe<4>(sp, sv, ws.lab, lo, hi, min_leaf, counts.data(), k,
                         nullptr, feature, best);
        break;
      default:
        ScanClsStripe<0>(sp, sv, ws.lab, lo, hi, min_leaf, counts.data(), k,
                         left_counts.data(), feature, best);
    }
  }

  /// Finishes `node` as a classification leaf holding the normalized
  /// class distribution. The counts are integers, so their sum is exact.
  void SetClsLeaf(int node) {
    double* leaf = tree->leaf(node);
    double sum = 0.0;
    for (size_t c = 0; c < counts.size(); ++c) {
      leaf[c] = static_cast<double>(counts[c]);
      sum += leaf[c];
    }
    if (sum <= 0.0) {
      const double u = 1.0 / static_cast<double>(counts.size());
      std::fill(leaf, leaf + counts.size(), u);
      return;
    }
    for (size_t c = 0; c < counts.size(); ++c) leaf[c] /= sum;
  }
};

int TreeBuilder::GrowCls(int num_classes, size_t lo, size_t hi, int depth) {
  const int node_index = tree->AddNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);
  const size_t kk = static_cast<size_t>(num_classes);

  counts.assign(kk, 0);
  for (size_t i = lo; i < hi; ++i) ++counts[ws.lab[ws.nslot[i]]];
  const double node_gini = Gini(counts.data(), kk, n);
  *flops += n;

  const bool stop =
      depth >= p.max_depth || StopsOnSize(len) || node_gini <= 1e-12;
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

  SplitChoice best{node_gini};  // Must strictly improve.
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
      // Branch-free: every row adds its 0/1 side to its class.
      std::fill(left_counts.begin(), left_counts.end(), 0);
      uint32_t nl = 0;
      for (size_t i = 0; i < len; ++i) {
        const uint32_t goes_left = ws.vals[i] <= thr ? 1 : 0;
        left_counts[ws.nlab[i]] += goes_left;
        nl += goes_left;
      }
      *flops += n;
      const double n_left = static_cast<double>(nl);
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      right_counts.resize(kk);
      for (size_t c = 0; c < kk; ++c) {
        right_counts[c] = counts[c] - left_counts[c];
      }
      const double score =
          (n_left * Gini(left_counts.data(), kk, n_left) +
           n_right * Gini(right_counts.data(), kk, n_right)) /
          n;
      if (score < best.score - 1e-12) {
        best.score = score;
        best.feature = static_cast<int>(f);
        best.threshold = thr;
      }
      continue;
    }

    // Exact search over the presorted stripe. The stripe already holds
    // this node's rows in sorted order; only the sort's logical cost is
    // charged.
    *flops += n * std::log2(std::max(2.0, n));
    ScanCls(f, lo, hi, &best);
    *flops += n * static_cast<double>(kk);
  }

  if (best.feature < 0) {
    SetClsLeaf(node_index);
    return node_index;
  }

  const size_t best_feature = static_cast<size_t>(best.feature);
  const size_t nl =
      random_thresholds
          ? SplitByColumn(lo, hi, best_feature, best.threshold)
          : SplitExact(lo, hi, depth, best_feature, best.threshold);
  const size_t mid = lo + nl;
  const int left = GrowCls(num_classes, lo, mid, depth + 1);
  const int right = GrowCls(num_classes, mid, hi, depth + 1);
  tree->SetSplit(node_index, best.feature, best.threshold, left, right);
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

  const bool stop =
      depth >= p.max_depth || StopsOnSize(len) || node_sse <= 1e-12;
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

    // Candidates as in ScanClsStripe; lane 0 is the left side.
    const size_t min_leaf = MinLeaf();
    const size_t first = lo + min_leaf - 1;
    const size_t last = hi - min_leaf;
    double left_sum = 0.0;
    double left_sumsq = 0.0;
    size_t i = lo;
    for (; i < first; ++i) {
      const double y = ws.tgt[sp[i]];
      left_sum += y;
      left_sumsq += y * y;
    }
    for (; i < last; ++i) {
      const double y = ws.tgt[sp[i]];
      left_sum += y;
      left_sumsq += y * y;
      if (sv[i + 1] - sv[i] <= 1e-12) continue;
      const double n_left =
          static_cast<double>(static_cast<uint32_t>(i - lo + 1));
      const double n_right = n - n_left;
      const double right_sum = sum - left_sum;
      const V2 part =
          V2{left_sumsq, sumsq - left_sumsq} -
          V2{left_sum * left_sum, right_sum * right_sum} /
              V2{n_left, n_right};
      const double sse = part[0] + part[1];
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
          : SplitExact(lo, hi, depth, static_cast<size_t>(best_feature),
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

  if (depth < p.max_depth && !StopsOnSize(len)) {
    // Exact variance-reduction split search over all features, over the
    // candidates of ScanClsStripe.
    const size_t min_leaf = MinLeaf();
    const size_t first = lo + min_leaf - 1;
    const size_t last = hi - min_leaf;
    const double node_term = sum * sum / n;
    double best_gain = 1e-10;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (size_t f = 0; f < ws.d; ++f) {
      const uint32_t* sp = ws.spos + f * ws.m;
      const double* sv = ws.sval + f * ws.m;
      *flops += n * std::log2(std::max(2.0, n));
      double left_sum = 0.0;
      size_t i = lo;
      for (; i < first; ++i) left_sum += ws.tgt[sp[i]];
      for (; i < last; ++i) {
        left_sum += ws.tgt[sp[i]];
        if (sv[i + 1] - sv[i] <= 1e-12) continue;
        const double left_n =
            static_cast<double>(static_cast<uint32_t>(i - lo + 1));
        const double right_n = n - left_n;
        const double right_sum = sum - left_sum;
        // Variance-reduction gain (up to constants).
        const V2 part = V2{left_sum * left_sum, right_sum * right_sum} /
                        V2{left_n, right_n};
        const double gain = part[0] + part[1] - node_term;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (sv[i] + sv[i + 1]);
        }
      }
      *flops += n;
    }
    if (best_feature >= 0) {
      const size_t nl = SplitExact(
          lo, hi, depth, static_cast<size_t>(best_feature), best_threshold);
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

/// The 64-bit key of a non-NaN double whose unsigned order is the
/// double's `<` order: a negative value has all its bits flipped, a
/// non-negative one gets its sign bit set. -0.0 is keyed as +0.0, so the
/// two zeros tie here as they do under `<`.
uint64_t OrderKey(double v) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  if (bits == kSign) bits = 0;
  return bits ^ ((uint64_t{0} - (bits >> 63)) | kSign);
}

/// Writes the row ids 0..n-1 of `column` to `order` in (OrderKey, row
/// id) order: a stable LSD radix sort over the keys' eight 8-bit digits,
/// starting from row-id order. One pass histograms every digit; a digit
/// that is constant over the column moves nothing and is skipped, and
/// the last digit that moves anything scatters the row ids alone, into
/// `order`. `keys` and `rows` are scratch of 2n entries each.
void RadixOrder(const double* column, size_t n, uint64_t* keys,
                uint32_t* rows, uint32_t* order) {
  uint32_t count[8][256] = {};
  uint64_t* src_key = keys;
  uint64_t* dst_key = keys + n;
  uint32_t* src_row = rows;
  uint32_t* dst_row = rows + n;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = OrderKey(column[i]);
    src_key[i] = key;
    src_row[i] = static_cast<uint32_t>(i);
    for (int b = 0; b < 8; ++b) ++count[b][(key >> (8 * b)) & 0xff];
  }
  bool moves[8] = {};
  int last = -1;
  for (int b = 0; b < 8 && n > 0; ++b) {
    moves[b] = count[b][(src_key[0] >> (8 * b)) & 0xff] != n;
    if (moves[b]) last = b;
  }
  if (last < 0) {
    std::iota(order, order + n, uint32_t{0});
    return;
  }
  for (int b = 0; b <= last; ++b) {
    if (!moves[b]) continue;
    const int shift = 8 * b;
    uint32_t* offset = count[b];
    uint32_t sum = 0;
    for (int digit = 0; digit < 256; ++digit) {
      const uint32_t c = offset[digit];
      offset[digit] = sum;
      sum += c;
    }
    if (b == last) {
      for (size_t i = 0; i < n; ++i) {
        order[offset[(src_key[i] >> shift) & 0xff]++] = src_row[i];
      }
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src_key[i];
      const uint32_t pos = offset[(key >> shift) & 0xff]++;
      dst_key[pos] = key;
      dst_row[pos] = src_row[i];
    }
    std::swap(src_key, dst_key);
    std::swap(src_row, dst_row);
  }
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

Result<TablePresort> TablePresort::Build(const Dataset& train) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  TablePresort presort(n, d);
  if (n == 0) return presort;
  // One row-major pass copies the table into values_ column by column and
  // finds the first NaN in (feature, row) order: a NaN has no place in a
  // (value, row id) order.
  size_t nan_feature = d;
  size_t nan_row = 0;
  for (size_t r = 0; r < n; ++r) {
    const double* row = train.RowPtr(r);
    for (size_t f = 0; f < d; ++f) {
      presort.values_[f * n + r] = row[f];
      if (std::isnan(row[f]) && f < nan_feature) {
        nan_feature = f;
        nan_row = r;
      }
    }
  }
  if (nan_feature < d) {
    return Status::InvalidArgument(StrFormat(
        "tree: feature %zu of row %zu is NaN; impute before fitting",
        nan_feature, nan_row));
  }
  std::vector<double> column(n);
  std::vector<uint64_t> keys(2 * n);
  std::vector<uint32_t> rows(2 * n);
  for (size_t f = 0; f < d; ++f) {
    double* values = presort.values_.data() + f * n;
    uint32_t* order = presort.order_.data() + f * n;
    std::memcpy(column.data(), values, n * sizeof(double));
    RadixOrder(column.data(), n, keys.data(), rows.data(), order);
    for (size_t i = 0; i < n; ++i) values[i] = column[order[i]];
  }
  return presort;
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

void BuildClsTree(const Dataset& train, const TablePresort* presort,
                  const std::vector<size_t>& rows,
                  const TreeKernelParams& params, int num_classes, Rng* rng,
                  double* flops, Arena* arena, FlatTree* tree) {
  ArenaScope scope(arena);
  *tree = FlatTree(static_cast<size_t>(num_classes));
  TreeBuilder b(params, rng, flops, tree);
  InitWorkspace(train, presort, rows, params.random_thresholds,
                /*classification=*/true, arena, &b.ws);
  b.GrowCls(num_classes, 0, rows.size(), 0);
}

void BuildRegTree(const Dataset& train, const TablePresort* presort,
                  const std::vector<size_t>& rows,
                  const TreeKernelParams& params, Rng* rng, double* flops,
                  Arena* arena, FlatTree* tree) {
  ArenaScope scope(arena);
  *tree = FlatTree(/*width=*/1);
  TreeBuilder b(params, rng, flops, tree);
  InitWorkspace(train, presort, rows, params.random_thresholds,
                /*classification=*/false, arena, &b.ws);
  b.GrowReg(0, rows.size(), 0);
}

void BuildGbTree(const TablePresort& presort,
                 const std::vector<size_t>& rows,
                 const std::vector<double>& targets,
                 const TreeKernelParams& params, double* flops, Arena* arena,
                 FlatTree* tree) {
  ArenaScope scope(arena);
  *tree = FlatTree(/*width=*/1);
  TreeBuilder b(params, /*rng=*/nullptr, flops, tree);
  InitSlots(rows, presort.num_features(), arena, &b.ws);
  b.ws.tgt = arena->AllocArray<double>(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) b.ws.tgt[i] = targets[rows[i]];
  DeriveStripes(presort, arena, &b.ws);
  b.GrowGb(0, rows.size(), 0);
}

}  // namespace green
