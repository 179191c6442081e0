//! Quantized tree inference: model-derived feature binning and a packed,
//! cache-line-dense node layout for the batch scoring hot path.
//!
//! The paper's serving workload is dominated by walking tree ensembles over
//! opcode-histogram rows. Walking the f64 [`Node`](crate::classical::tree::Node)
//! arena chases one 48-byte enum node per level plus an 8-byte feature value
//! per row; at depth 20 that is cache-miss bound. This module shrinks both
//! sides of every comparison, and it is the one batch engine every tree
//! family scores through:
//!
//! * [`FeatureBins`] bins each feature column to `u16` using the model's
//!   **own split thresholds** as bin edges. Binning against the thresholds
//!   (rather than data quantiles) makes the quantized comparison *exactly*
//!   equivalent to the raw one: with the per-feature edges sorted and
//!   distinct, `v <= edges[j]` ⇔ `rank(v) <= j` where
//!   `rank(v) = #{edges < v}`. The quantized walk therefore reproduces the
//!   f64 arena walk bit-for-bit — a stronger property than the
//!   verdict-equality the serving contract requires — so there is no engine
//!   to choose: a model without a mirror (a feature with more than 65,534
//!   distinct thresholds) falls back to the per-row arena walk.
//! * [`QuantNodes`] repacks a tree into 8-byte nodes (`u16` feature id,
//!   `u16` quantized threshold, `u32` first-child index) with siblings
//!   adjacent, so 8 nodes share a cache line and the child edge is one
//!   add instead of a `children[2i + side]` gather. Leaf probabilities
//!   stay in a separate `f64` array touched once per row, after the walk.
//! * [`accumulate_trees`] walks a model's packed trees in lockstep groups
//!   of 16 independent load chains, in one of two shapes. Rows in full
//!   16-row groups walk one tree at a time, the lanes being rows. Each
//!   leftover row (0–15 per block; a serving batch is often one row) walks
//!   16 trees at a time, the lanes being trees — the tree-interleaved walk
//!   of Asadi, Lin & de Vries (IEEE TKDE 2014). Either way a row's leaf
//!   values are added in tree order, so its sum has the same bits.
//!
//! NaN routing is preserved at transform time: the raw walks send NaN
//! right (`!(v <= t)`) in binary trees but left (`v > t` is false) in
//! oblivious trees, so [`FeatureBins`] maps NaN to `u16::MAX` or `0`
//! according to the model family it was built for. Out-of-range values
//! clamp naturally: anything below every edge ranks 0, anything above
//! ranks `edge_count`, both of which compare exactly like the raw value
//! against every in-model threshold.
//!
//! Everything here is **derived state**: one mirror per model (a forest's
//! trees, or a booster's, share one set of bins), built at fit time,
//! rebuilt on snapshot restore, and never persisted — the snapshot format
//! carries only the arenas.
//!
//! The equivalence tests live beside each walk: random-forest proptests
//! against the arena in this module (1–40 trees over 0–40 rows), a
//! forest-batch proptest and a sweep of every block size from 1 to 40 rows
//! in [`crate::classical::forest`], and the same sweep over all three
//! boosting variants in [`crate::classical::gbdt`].

use crate::matrix::Matrix;

/// Maximum distinct split thresholds per feature. Quantized values then fit
/// `0..=MAX_EDGES` with `u16::MAX` left free as the NaN sentinel (which must
/// compare greater than every quantized threshold so NaN keeps routing
/// right in binary trees).
const MAX_EDGES: usize = u16::MAX as usize - 1;

/// Lockstep lanes per walk group, in both walk shapes: enough independent
/// load chains to hide L1 latency, few enough that the lane state stays in
/// registers. A branch-free pass keeps the group loop fully unrolled;
/// per-lane retirement was tried twice (immediate compaction, and
/// two-phase visit-then-compact) and lost both times — the compaction
/// writes and their serial write cursor cost more than the dead passes
/// they save.
const LANES: usize = 16;

/// Where a feature comparison sends NaN, per model family.
///
/// Binary trees (`DecisionTree`, the boosted `RegTree`s) branch with
/// `if v <= t { left } else { right }`, so NaN falls right; oblivious trees
/// set their level bit with `v > t`, so NaN falls left. The quantized
/// matrix is shared by every tree of one model, which is sound because a
/// fitted model never mixes the two families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanRoute {
    /// NaN maps to `u16::MAX`: greater than every quantized threshold.
    Right,
    /// NaN maps to `0`: never greater than any quantized threshold.
    Left,
}

/// Per-feature bin edges derived from a fitted model's split thresholds.
///
/// Feature `f`'s edges are its sorted, deduplicated split thresholds across
/// every tree of the model. A raw value quantizes to its rank among those
/// edges (the count of edges strictly below it), which preserves every
/// in-model comparison exactly (see the module docs for the equivalence).
#[derive(Debug, Clone)]
pub struct FeatureBins {
    /// `edges[offsets[f] as usize..offsets[f + 1] as usize]` are feature
    /// `f`'s ascending, distinct edges.
    offsets: Vec<u32>,
    edges: Vec<f64>,
    /// Per-feature rank lookup tables for small non-negative integers:
    /// `luts[lut_offsets[f] + i] = rank(i as f64)`. Histogram features are
    /// raw opcode counts, so nearly every value in a real batch is a small
    /// integer and quantizes with one bounds-checked load instead of a
    /// binary search whose data-dependent branches mispredict about half
    /// the time. Non-integer, negative, or out-of-table values fall back
    /// to the search, so the table is a pure fast path — never a source
    /// of approximation.
    lut_offsets: Vec<u32>,
    luts: Vec<u16>,
    nan_route: NanRoute,
}

impl FeatureBins {
    /// Builds bins from per-feature split-threshold lists (unsorted, with
    /// duplicates). Returns `None` when any feature carries more than
    /// 65 534 distinct thresholds — the caller then walks its arena per row.
    ///
    /// # Panics
    /// Panics on a non-finite threshold: fitted trees only ever split on
    /// finite midpoints and snapshot restore rejects any other, so one
    /// here is a bug.
    pub fn from_split_thresholds(
        mut per_feature: Vec<Vec<f64>>,
        nan_route: NanRoute,
    ) -> Option<FeatureBins> {
        let mut offsets = Vec::with_capacity(per_feature.len() + 1);
        let mut edges = Vec::new();
        let mut lut_offsets = Vec::with_capacity(per_feature.len() + 1);
        let mut luts = Vec::new();
        offsets.push(0u32);
        lut_offsets.push(0u32);
        for list in &mut per_feature {
            assert!(
                list.iter().all(|t| t.is_finite()),
                "split thresholds are finite"
            );
            list.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite thresholds"));
            list.dedup();
            if list.len() > MAX_EDGES {
                return None;
            }
            // Integer fast-path table: one entry past the last edge so the
            // top rank (`edge_count`, everything-above) is also a table hit.
            // `as usize` saturates, so a restored edge near `f64::MAX` must
            // not overflow the `+ 2`.
            let lut_len = match list.last() {
                Some(&last) if last >= 0.0 => {
                    (last.floor() as usize).saturating_add(2).min(Self::LUT_CAP)
                }
                _ => 0,
            };
            for i in 0..lut_len {
                luts.push(list.partition_point(|&edge| edge < i as f64) as u16);
            }
            edges.extend_from_slice(list);
            offsets.push(edges.len() as u32);
            lut_offsets.push(luts.len() as u32);
        }
        // One pad entry past every offset: the vector transform gathers
        // 32-bit loads from the `u16` table, so the read at the last valid
        // index spills two bytes past it.
        luts.push(0);
        Some(FeatureBins {
            offsets,
            edges,
            lut_offsets,
            luts,
            nan_route,
        })
    }

    /// Number of feature columns these bins cover.
    pub fn n_features(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Where these bins send NaN values.
    pub fn nan_route(&self) -> NanRoute {
        self.nan_route
    }

    /// Feature `f`'s ascending, distinct edges.
    fn feature_edges(&self, f: usize) -> &[f64] {
        &self.edges[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }

    /// The widest per-feature bin count (`edges + 1`; at least 1). This is
    /// the number observability surfaces report as the bin count.
    pub fn max_bins(&self) -> usize {
        (0..self.n_features())
            .map(|f| self.feature_edges(f).len() + 1)
            .max()
            .unwrap_or(1)
    }

    /// Per-feature cap on the integer lookup table. Opcode counts rarely
    /// reach the hundreds, so 4096 entries (8 KiB) covers real features
    /// with room to spare while bounding worst-case table memory; values
    /// past the cap take the binary-search fallback.
    const LUT_CAP: usize = 4096;

    /// Feature `f`'s integer fast-path table (possibly empty).
    #[inline]
    fn feature_lut(&self, f: usize) -> &[u16] {
        &self.luts[self.lut_offsets[f] as usize..self.lut_offsets[f + 1] as usize]
    }

    /// Quantizes one raw value of feature `f`: its rank among the feature's
    /// edges, with NaN mapped per [`FeatureBins::nan_route`]. Values below
    /// every edge rank 0 and values above every edge rank `edge_count` —
    /// out-of-range inputs clamp here, at transform time.
    ///
    /// Small non-negative integers — the overwhelmingly common case for
    /// opcode-histogram features — resolve through the precomputed rank
    /// table; everything else (fractional, negative, huge, NaN) takes the
    /// exact search fallback, so both paths return the same rank.
    #[inline]
    pub fn quantize_value(&self, f: usize, v: f64) -> u16 {
        // `as usize` saturates (negative → 0, huge/NaN → MAX), and the
        // round-trip equality check rejects anything that isn't exactly a
        // small non-negative integer — including NaN and -0.5.
        let i = v as usize;
        let lut = self.feature_lut(f);
        if i < lut.len() && i as f64 == v {
            return lut[i];
        }
        if v.is_nan() {
            return match self.nan_route {
                NanRoute::Right => u16::MAX,
                NanRoute::Left => 0,
            };
        }
        self.feature_edges(f).partition_point(|&edge| edge < v) as u16
    }

    /// Quantizes a split threshold of feature `f` — the threshold's own
    /// index among the feature's edges. The threshold must be one of the
    /// edges these bins were built from.
    pub fn quantize_threshold(&self, f: usize, t: f64) -> u16 {
        let edges = self.feature_edges(f);
        let idx = edges.partition_point(|&edge| edge < t);
        debug_assert!(
            edges.get(idx) == Some(&t) || (t == 0.0 && edges.get(idx).is_some_and(|e| *e == 0.0)),
            "threshold {t} is not an edge of feature {f}"
        );
        idx as u16
    }

    /// Quantizes the first [`FeatureBins::n_features`] columns of `x` into
    /// a dense `u16` matrix (extra trailing columns — which no tree tests —
    /// are ignored).
    ///
    /// # Panics
    /// Panics when `x` has fewer columns than these bins cover.
    pub fn quantize_matrix(&self, x: &Matrix) -> QuantMatrix {
        self.quantize_row_range(x, 0, x.rows())
    }

    /// Quantizes rows `lo..hi` of `x` into a standalone [`QuantMatrix`]
    /// whose row `k` mirrors `x`'s row `lo + k`. This is the fused-path
    /// building block: a scoring thread quantizes exactly the rows it will
    /// walk, so the `u16` rows are still cache-hot when the walk reads
    /// them and no cross-thread handoff (or extra spawn) is needed.
    pub fn quantize_row_range(&self, x: &Matrix, lo: usize, hi: usize) -> QuantMatrix {
        let cols = self.n_features();
        assert!(
            x.cols() >= cols,
            "matrix has {} columns but the model tests {cols}",
            x.cols()
        );
        assert!(lo <= hi && hi <= x.rows(), "row range out of bounds");
        let mut data = vec![0u16; (hi - lo) * cols];
        self.quantize_rows_into(x, lo, &mut data);
        QuantMatrix {
            rows: hi - lo,
            cols,
            data,
        }
    }

    /// Quantizes rows `row0..` of `x` into `out` (whole rows,
    /// `out.len() % n_features == 0`).
    ///
    /// Runs row-major — the same direction the data is laid out — so every
    /// load and store is sequential; the per-feature table bounds come from
    /// the flattened `lut_offsets` array, which is a few hundred bytes and
    /// L1-resident for the whole tile. On AVX2 hardware each row goes
    /// through the eight-wide gather kernel; elsewhere the scalar loop does
    /// one value load, two table-offset loads, two compares, and one table
    /// load per value on the integer fast path.
    fn quantize_rows_into(&self, x: &Matrix, row0: usize, out: &mut [u16]) {
        let cols = self.n_features();
        if cols == 0 {
            return;
        }
        let n = out.len() / cols;
        let xcols = x.cols();
        let data = &x.as_slice()[row0 * xcols..row0 * xcols + n * xcols];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            for k in 0..n {
                let src = &data[k * xcols..k * xcols + cols];
                let dst = &mut out[k * cols..(k + 1) * cols];
                // SAFETY: AVX2 presence was just checked.
                unsafe { self.quantize_row_avx2(src, dst) };
            }
            return;
        }
        let nan_q = match self.nan_route {
            NanRoute::Right => u16::MAX,
            NanRoute::Left => 0,
        };
        let lut_offsets = &self.lut_offsets[..];
        let luts = &self.luts[..];
        for k in 0..n {
            let src = &data[k * xcols..k * xcols + cols];
            let dst = &mut out[k * cols..(k + 1) * cols];
            for f in 0..cols {
                // SAFETY: `f < cols`, `src`/`dst` are exactly `cols` long,
                // `lut_offsets` has `cols + 1` entries, and the `luts`
                // index is guarded by the `i < len` test (offsets are
                // cumulative, so `off + i < lut_offsets[f + 1] <=
                // luts.len()`).
                unsafe {
                    let v = *src.get_unchecked(f);
                    let i = v as usize;
                    let off = *lut_offsets.get_unchecked(f) as usize;
                    let len = *lut_offsets.get_unchecked(f + 1) as usize - off;
                    *dst.get_unchecked_mut(f) = if i < len && i as f64 == v {
                        *luts.get_unchecked(off + i)
                    } else if v.is_nan() {
                        nan_q
                    } else {
                        self.feature_edges(f).partition_point(|&edge| edge < v) as u16
                    };
                }
            }
        }
    }

    /// Quantizes one row with AVX2, eight features per step: truncate the
    /// eight `f64`s to `i32`, check `0 <= i < table_len` against the
    /// per-feature bounds, check the integer round-trip (`i as f64 == v`,
    /// which also rejects NaN), and gather the eight ranks from the
    /// flattened `u16` table in one masked-gather instruction. Any lane
    /// failing a check is patched through [`FeatureBins::quantize_value`],
    /// so every lane's output is identical to the scalar path's.
    ///
    /// # Safety
    /// The CPU must support AVX2. `src` and `dst` must be exactly
    /// `n_features()` long.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_row_avx2(&self, src: &[f64], dst: &mut [u16]) {
        use std::arch::x86_64::*;
        let cols = dst.len();
        debug_assert_eq!(src.len(), cols);
        debug_assert_eq!(cols, self.n_features());
        let mut f = 0usize;
        // SAFETY (for the whole block): `f + 8 <= cols` bounds the eight
        //-wide value loads and the `u16` store; `lut_offsets` has
        // `cols + 1` entries so the two offset loads at `f` and `f + 1`
        // end exactly at its last element; gather lanes are masked to
        // indices proven in-bounds (`0 <= i < len`, table slot
        // `off + i < lut_offsets[f + 1]`), and the table's trailing pad
        // entry covers the two extra bytes of the 32-bit load at the
        // highest index.
        unsafe {
            // Selects the low 32 bits of each 64-bit comparison mask.
            let low_halves = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
            while f + 8 <= cols {
                let v_lo = _mm256_loadu_pd(src.as_ptr().add(f));
                let v_hi = _mm256_loadu_pd(src.as_ptr().add(f + 4));
                // Truncating convert; out-of-range lanes and NaN become
                // `i32::MIN` and fail the sign check below.
                let i_lo = _mm256_cvttpd_epi32(v_lo);
                let i_hi = _mm256_cvttpd_epi32(v_hi);
                let idx = _mm256_set_m128i(i_hi, i_lo);
                // Integer round-trip: equal means the value is exactly the
                // converted integer; NaN compares unequal.
                let eq_lo = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_EQ_OQ>(
                    _mm256_cvtepi32_pd(i_lo),
                    v_lo,
                ));
                let eq_hi = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_EQ_OQ>(
                    _mm256_cvtepi32_pd(i_hi),
                    v_hi,
                ));
                let eq = _mm256_set_m128i(
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(eq_hi, low_halves)),
                    _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(eq_lo, low_halves)),
                );
                let off = _mm256_loadu_si256(self.lut_offsets.as_ptr().add(f).cast());
                let end = _mm256_loadu_si256(self.lut_offsets.as_ptr().add(f + 1).cast());
                let len = _mm256_sub_epi32(end, off);
                // `0 <= idx < len`; both fit signed (`len <= LUT_CAP`).
                let ge0 = _mm256_cmpgt_epi32(idx, _mm256_set1_epi32(-1));
                let lt = _mm256_cmpgt_epi32(len, idx);
                let mask = _mm256_and_si256(_mm256_and_si256(ge0, lt), eq);
                // Masked-off lanes perform no load, so the wild indices of
                // rejected lanes never touch memory; scale 2 indexes u16s.
                let gathered = _mm256_mask_i32gather_epi32::<2>(
                    _mm256_setzero_si256(),
                    self.luts.as_ptr().cast(),
                    _mm256_add_epi32(off, idx),
                    mask,
                );
                let ranks = _mm256_and_si256(gathered, _mm256_set1_epi32(0xFFFF));
                let packed = _mm_packus_epi32(
                    _mm256_castsi256_si128(ranks),
                    _mm256_extracti128_si256::<1>(ranks),
                );
                _mm_storeu_si128(dst.as_mut_ptr().add(f).cast(), packed);
                let hit = _mm256_movemask_ps(_mm256_castsi256_ps(mask)) as u32;
                if hit != 0xFF {
                    // Cold: fractional, negative, NaN, or past-the-table
                    // values take the exact scalar path.
                    for k in 0..8 {
                        if hit & (1 << k) == 0 {
                            dst[f + k] = self.quantize_value(f + k, src[f + k]);
                        }
                    }
                }
                f += 8;
            }
        }
        for k in f..cols {
            dst[k] = self.quantize_value(k, src[k]);
        }
    }
}

/// A dense row-major `u16` matrix of quantized feature values — 4× denser
/// than the f64 rows it mirrors, so a scoring block's rows stay in L1.
#[derive(Debug, Clone)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl QuantMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u16] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// One node a [`QuantNodes`] tree can be built from: the caller maps its
/// arena (enum nodes, `RegNode`s, …) into this shape once at build time.
#[derive(Debug, Clone, Copy)]
pub enum QuantNodeDesc {
    /// Terminal node carrying the value the walk accumulates (class-1
    /// probability for classification trees, leaf weight for boosting).
    Leaf {
        /// The accumulated value.
        value: f64,
    },
    /// Internal split: `x[feature] <= threshold` goes left.
    Split {
        /// Tested feature column.
        feature: usize,
        /// Raw split threshold (must be an edge of the paired bins).
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
}

/// An 8-byte packed node: one visit is a single 8-byte node load, one
/// `u16` value load, a compare, and an add. Splits store the tested
/// feature, the quantized threshold, and the index of the *left* child;
/// the right child is always `first_child + 1`, so the taken branch is
/// `first_child + (v > thr)` with no second pointer. Leaves carry
/// `thr == u16::MAX` (never exceeded — the NaN sentinel `u16::MAX` is not
/// *greater* than it), test feature 0, and point `first_child` at
/// themselves, so a finished lane self-loops until the whole group is done.
///
/// A 16-byte 4-ary supernode covering two binary levels (three embedded
/// comparisons, four adjacent children) was tried and lost ~70%: half the
/// passes, but three scattered value loads plus a double-width node load
/// per visit swamp the saved loop overhead.
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    feat: u16,
    thr: u16,
    first_child: u32,
}

/// A single-leaf tree for the unused lanes of a short tree group: its leaf
/// self-loops at index 0, like every packed leaf.
static PAD_TREE: [PackedNode; 1] = [PackedNode {
    feat: 0,
    thr: u16::MAX,
    first_child: 0,
}];

/// A tree repacked for the quantized lockstep walk: breadth-first order
/// with sibling pairs adjacent (so a node stores only its left child's
/// index), plus the per-node leaf values in a separate `f64` array read
/// once per row after the walk converges. Nodes are 8 bytes, so a
/// forest-scale tree stays comfortably L1-resident.
#[derive(Debug, Clone)]
pub struct QuantNodes {
    nodes: Vec<PackedNode>,
    /// Leaf value per node (0.0 on splits), indexed like `nodes`.
    values: Vec<f64>,
    /// One past the highest feature index any split tests — the walk
    /// asserts the quantized matrix is at least this wide once per call,
    /// which is what makes its unchecked row indexing sound.
    needed_cols: usize,
    /// Longest root-to-leaf path. A row group runs exactly this many
    /// lockstep passes (a tree group, its trees' largest depth) instead of
    /// re-checking convergence every pass: lanes on shorter paths idle in
    /// their leaf self-loop, which costs a few dead visits but strips the
    /// change-tracking from the hot loop.
    depth: usize,
}

impl QuantNodes {
    /// Repacks an arena (root at index 0) against `bins`. Thresholds must
    /// all be edges of `bins` for the equivalence to hold.
    pub fn from_arena(arena: &[QuantNodeDesc], bins: &FeatureBins) -> QuantNodes {
        assert!(!arena.is_empty(), "cannot repack an empty tree");
        // Breadth-first order with both children pushed together makes
        // siblings adjacent, which is what lets a node store only its
        // first child's index.
        let mut order: Vec<u32> = Vec::with_capacity(arena.len());
        order.push(0);
        let mut depths: Vec<u32> = Vec::with_capacity(arena.len());
        depths.push(0);
        let mut nodes = Vec::with_capacity(arena.len());
        let mut values = Vec::with_capacity(arena.len());
        let mut needed_cols = 0usize;
        let mut depth = 0usize;
        let mut next = 0usize;
        while next < order.len() {
            let new_id = next as u32;
            depth = depth.max(depths[next] as usize);
            match arena[order[next] as usize] {
                QuantNodeDesc::Leaf { value } => {
                    nodes.push(PackedNode {
                        feat: 0,
                        thr: u16::MAX,
                        first_child: new_id,
                    });
                    values.push(value);
                }
                QuantNodeDesc::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let first_child = order.len() as u32;
                    order.push(left as u32);
                    order.push(right as u32);
                    let d = depths[next] + 1;
                    depths.push(d);
                    depths.push(d);
                    needed_cols = needed_cols.max(feature + 1);
                    nodes.push(PackedNode {
                        feat: u16::try_from(feature).expect("feature index fits u16"),
                        thr: bins.quantize_threshold(feature, threshold),
                        first_child,
                    });
                    values.push(0.0);
                }
            }
            next += 1;
        }
        QuantNodes {
            nodes,
            values,
            needed_cols,
            depth,
        }
    }

    /// Number of packed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` for a tree with no nodes (never produced by
    /// [`QuantNodes::from_arena`], which rejects empty arenas).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Adds the tree-ordered sum of `trees`' leaf values for rows `lo..hi` of
/// `q` into `out[0..hi - lo]`: each row's slot receives one addition per
/// tree, in tree order, so a model accumulating from zero produces exactly
/// the sums of the per-row arena walk.
///
/// Both walks run 16 independent load chains in lockstep, for a counted
/// number of passes with no change tracking:
///
/// * Rows in full 16-row groups walk one tree at a time, the lanes being
///   rows, for exactly the tree's depth. The constant lane bound unrolls
///   the pass completely, so the lane state stays live.
/// * Each leftover row walks 16 trees at a time, the lanes being trees and
///   unused lanes parked on a static leaf, for the group's largest depth;
///   then the 16 leaf values are added in tree order. A one-row batch thus
///   runs 16 load chains instead of one dependent chain per tree.
///
/// Both walks index without bounds checks; soundness rests on facts
/// checked once here instead of per visit: `hi <= q.rows`, `q.cols` is at
/// least every tree's `needed_cols` and above 0, and `q.data.len()` fits
/// the `u32` row offsets. A zero-column matrix takes a shortcut instead:
/// only single-leaf trees can score one, and the walks read a feature
/// value before a leaf's self-loop resolves.
///
/// # Panics
/// Panics when `lo..hi` is not a row range of `q`, or `q` is narrower than
/// a tree's tested columns.
pub fn accumulate_trees(
    trees: &[QuantNodes],
    q: &QuantMatrix,
    lo: usize,
    hi: usize,
    out: &mut [f64],
) {
    assert!(lo <= hi && hi <= q.rows, "row range out of bounds");
    assert_eq!(out.len(), hi - lo, "one output slot per row");
    let needed_cols = trees.iter().map(|t| t.needed_cols).max().unwrap_or(0);
    assert!(
        q.cols >= needed_cols,
        "matrix has {} columns but the trees test {needed_cols}",
        q.cols
    );
    if q.cols == 0 {
        for p in out.iter_mut() {
            for tree in trees {
                *p += tree.values[0];
            }
        }
        return;
    }
    // u32 lane offsets keep the spilled lane state half the size; a u16
    // matrix anywhere near 2^32 elements (8 GiB) is far outside the
    // serving envelope, so this is a hard input bound, not a tuning knob.
    assert!(
        q.data.len() <= u32::MAX as usize,
        "quantized matrix exceeds the u32 offset range"
    );
    let cols = q.cols;
    let data = &q.data[..];
    let full = out.len() - out.len() % LANES;
    let (grouped, leftover) = out.split_at_mut(full);
    for tree in trees {
        let nodes = &tree.nodes[..];
        for (g, group) in grouped.chunks_exact_mut(LANES).enumerate() {
            let mut slots = [0u32; LANES];
            let mut bases = [0u32; LANES];
            for (k, base) in bases.iter_mut().enumerate() {
                *base = ((lo + g * LANES + k) * cols) as u32;
            }
            for _ in 0..tree.depth {
                for k in 0..LANES {
                    // SAFETY: a slot only holds indices `from_arena`
                    // produced (root 0, then `first_child` / `first_child +
                    // 1` / a leaf's own index, all < nodes.len()). `base`
                    // starts a row below `hi <= q.rows`, and `feat < cols`
                    // (a split tests a column below `needed_cols <= cols`,
                    // a leaf tests column 0 and `cols > 0`), so `base +
                    // feat < q.rows * cols == data.len()`.
                    let (node, v) = unsafe {
                        let node = *nodes.get_unchecked(slots[k] as usize);
                        let v = *data.get_unchecked(bases[k] as usize + usize::from(node.feat));
                        (node, v)
                    };
                    // Strictly-greater mirrors the raw `!(v <= t)`: the NaN
                    // sentinel (`u16::MAX`) exceeds every split threshold,
                    // and a leaf's `u16::MAX` threshold exceeds every value.
                    slots[k] = node.first_child + u32::from(v > node.thr);
                }
            }
            for (p, &i) in group.iter_mut().zip(&slots) {
                *p += tree.values[i as usize];
            }
        }
    }
    let row0 = lo + full;
    for group in trees.chunks(LANES) {
        let mut lanes: [&[PackedNode]; LANES] = [&PAD_TREE; LANES];
        let mut depth = 0;
        for (lane, tree) in lanes.iter_mut().zip(group) {
            *lane = &tree.nodes[..];
            depth = depth.max(tree.depth);
        }
        for (k, p) in leftover.iter_mut().enumerate() {
            let row = q.row(row0 + k);
            let mut slots = [0u32; LANES];
            for _ in 0..depth {
                for t in 0..LANES {
                    // SAFETY: a slot only holds indices `from_arena`
                    // produced for its lane's tree (or 0 in `PAD_TREE`),
                    // and `feat < cols == row.len()`: a split tests a
                    // column below `needed_cols <= cols`, a leaf tests
                    // column 0, and `cols > 0`.
                    let (node, v) = unsafe {
                        let node = *lanes[t].get_unchecked(slots[t] as usize);
                        (node, *row.get_unchecked(usize::from(node.feat)))
                    };
                    slots[t] = node.first_child + u32::from(v > node.thr);
                }
            }
            for (tree, &i) in group.iter().zip(&slots) {
                *p += tree.values[i as usize];
            }
        }
    }
}

/// A CatBoost-style oblivious tree with quantized level conditions: the
/// level bit is `q(v) > q(t)`, exactly equivalent to the raw `v > t` (with
/// NaN pre-routed left by [`NanRoute::Left`] bins).
#[derive(Debug, Clone)]
pub struct QuantOblivious {
    /// `(feature, quantized threshold)` per level.
    levels: Vec<(u16, u16)>,
    /// `2^levels` leaf weights indexed by the condition bit-vector.
    leaf_weights: Vec<f64>,
}

impl QuantOblivious {
    /// Quantizes an oblivious tree's level conditions against `bins`.
    pub fn from_conditions(
        conditions: &[(usize, f64)],
        leaf_weights: Vec<f64>,
        bins: &FeatureBins,
    ) -> QuantOblivious {
        assert_eq!(leaf_weights.len(), 1 << conditions.len());
        let levels = conditions
            .iter()
            .map(|&(f, t)| {
                (
                    u16::try_from(f).expect("feature index fits u16"),
                    bins.quantize_threshold(f, t),
                )
            })
            .collect();
        QuantOblivious {
            levels,
            leaf_weights,
        }
    }

    /// Adds this tree's leaf weight for rows `lo..hi` of `q` into
    /// `out[0..hi - lo]`.
    pub fn accumulate_rows(&self, q: &QuantMatrix, lo: usize, hi: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), hi - lo);
        if self.levels.is_empty() {
            for p in out.iter_mut() {
                *p += self.leaf_weights[0];
            }
            return;
        }
        for (k, p) in out.iter_mut().enumerate() {
            let row = q.row(lo + k);
            let mut idx = 0usize;
            for (level, &(f, t)) in self.levels.iter().enumerate() {
                idx |= usize::from(row[usize::from(f)] > t) << level;
            }
            *p += self.leaf_weights[idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bins_of(per_feature: Vec<Vec<f64>>, route: NanRoute) -> FeatureBins {
        FeatureBins::from_split_thresholds(per_feature, route).expect("within edge budget")
    }

    #[test]
    fn quantization_preserves_every_threshold_comparison() {
        let bins = bins_of(vec![vec![0.5, 2.0, 2.0, -1.5], vec![]], NanRoute::Right);
        assert_eq!(bins.n_features(), 2);
        assert_eq!(bins.max_bins(), 4); // 3 distinct edges + 1
        for v in [-10.0, -1.5, -1.49, 0.25, 0.5, 0.500001, 2.0, 1e9] {
            let q = bins.quantize_value(0, v);
            for t in [-1.5, 0.5, 2.0] {
                let qt = bins.quantize_threshold(0, t);
                assert_eq!(v <= t, q <= qt, "v={v} t={t}");
            }
        }
    }

    #[test]
    fn quantization_is_monotone_in_the_raw_value() {
        let bins = bins_of(vec![vec![1.0, 3.0, 7.5]], NanRoute::Right);
        let vals = [-1.0, 0.0, 1.0, 1.1, 2.9, 3.0, 5.0, 7.5, 8.0, 1e12];
        let ranks: Vec<u16> = vals.iter().map(|&v| bins.quantize_value(0, v)).collect();
        for pair in ranks.windows(2) {
            assert!(pair[0] <= pair[1], "{ranks:?}");
        }
        // Out-of-range values clamp to the extreme ranks.
        assert_eq!(ranks[0], 0);
        assert_eq!(*ranks.last().unwrap(), 3);
    }

    #[test]
    fn an_edge_near_f64_max_caps_the_integer_table() {
        // A restored snapshot may carry any finite threshold; the table
        // length must not overflow on one past `usize::MAX`.
        let bins = bins_of(vec![vec![2.0, f64::MAX]], NanRoute::Right);
        let ranks: Vec<u16> = [1.0, 3.0, 4095.0, 4096.0, 1e300, f64::INFINITY]
            .iter()
            .map(|&v| bins.quantize_value(0, v))
            .collect();
        assert_eq!(ranks, [0, 1, 1, 1, 1, 2]);
    }

    #[test]
    fn nan_routes_by_family() {
        let right = bins_of(vec![vec![1.0]], NanRoute::Right);
        let left = bins_of(vec![vec![1.0]], NanRoute::Left);
        let t = right.quantize_threshold(0, 1.0);
        // Binary trees: NaN must exceed every threshold (routes right).
        assert!(right.quantize_value(0, f64::NAN) > t);
        // Oblivious trees: NaN must never exceed a threshold (routes left).
        assert!(left.quantize_value(0, f64::NAN) <= t);
    }

    #[test]
    fn edge_budget_overflow_falls_back() {
        let too_many: Vec<f64> = (0..=MAX_EDGES).map(|i| i as f64).collect();
        assert!(FeatureBins::from_split_thresholds(vec![too_many], NanRoute::Right).is_none());
        let exactly: Vec<f64> = (0..MAX_EDGES).map(|i| i as f64).collect();
        assert!(FeatureBins::from_split_thresholds(vec![exactly], NanRoute::Right).is_some());
    }

    /// Reference walk over the descriptor arena, raw f64 semantics.
    fn arena_predict(arena: &[QuantNodeDesc], row: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match arena[i] {
                QuantNodeDesc::Leaf { value } => return value,
                QuantNodeDesc::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let go_right = !(row[feature] <= threshold);
                    i = if go_right { right } else { left };
                }
            }
        }
    }

    fn demo_arena() -> Vec<QuantNodeDesc> {
        // Deliberately non-BFS arena order to exercise the repacking.
        vec![
            QuantNodeDesc::Split {
                feature: 0,
                threshold: 1.0,
                left: 1,
                right: 4,
            },
            QuantNodeDesc::Split {
                feature: 1,
                threshold: -0.5,
                left: 2,
                right: 3,
            },
            QuantNodeDesc::Leaf { value: 0.1 },
            QuantNodeDesc::Leaf { value: 0.9 },
            QuantNodeDesc::Leaf { value: 0.4 },
        ]
    }

    fn demo_bins(route: NanRoute) -> FeatureBins {
        bins_of(vec![vec![1.0], vec![-0.5]], route)
    }

    #[test]
    fn packed_walk_matches_the_arena_walk_including_nan() {
        let arena = demo_arena();
        let bins = demo_bins(NanRoute::Right);
        let packed = QuantNodes::from_arena(&arena, &bins);
        assert_eq!(packed.len(), arena.len());
        let rows = vec![
            vec![0.0, -1.0],
            vec![0.0, -0.5],
            vec![1.0, 0.0],
            vec![1.5, 7.0],
            vec![f64::NAN, 0.0],
            vec![0.5, f64::NAN],
            vec![-1e300, 1e300],
        ];
        let x = Matrix::from_rows(&rows);
        let q = bins.quantize_matrix(&x);
        let mut got = vec![0.0; rows.len()];
        accumulate_trees(std::slice::from_ref(&packed), &q, 0, rows.len(), &mut got);
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(got[k], arena_predict(&arena, row), "row {k}: {row:?}");
        }
    }

    #[test]
    fn single_leaf_tree_handles_zero_columns() {
        let bins = bins_of(vec![], NanRoute::Right);
        let packed = QuantNodes::from_arena(&[QuantNodeDesc::Leaf { value: 0.75 }], &bins);
        let q = bins.quantize_matrix(&Matrix::zeros(3, 0));
        let mut out = vec![0.0; 3];
        accumulate_trees(&[packed.clone(), packed], &q, 0, 3, &mut out);
        assert_eq!(out, vec![1.5; 3]);
    }

    #[test]
    fn oblivious_walk_matches_raw_conditions_including_nan() {
        let conditions = [(0usize, 1.0f64), (1usize, -0.5f64)];
        let weights = vec![0.1, 0.2, 0.3, 0.4];
        let bins = bins_of(vec![vec![1.0], vec![-0.5]], NanRoute::Left);
        let quant = QuantOblivious::from_conditions(&conditions, weights.clone(), &bins);
        let rows = vec![
            vec![0.0, -1.0],
            vec![2.0, 0.0],
            vec![1.0, -0.5],
            vec![f64::NAN, 0.0],
            vec![2.0, f64::NAN],
        ];
        let x = Matrix::from_rows(&rows);
        let q = bins.quantize_matrix(&x);
        let mut got = vec![0.0; rows.len()];
        quant.accumulate_rows(&q, 0, rows.len(), &mut got);
        for (k, row) in rows.iter().enumerate() {
            let mut idx = 0usize;
            for (level, &(f, t)) in conditions.iter().enumerate() {
                if row[f] > t {
                    idx |= 1 << level;
                }
            }
            assert_eq!(got[k], weights[idx], "row {k}: {row:?}");
        }
    }

    #[test]
    fn accumulation_offsets_respect_lo_hi() {
        let arena = demo_arena();
        let bins = demo_bins(NanRoute::Right);
        let packed = QuantNodes::from_arena(&arena, &bins);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 5) as f64 * 0.6, (i % 3) as f64 - 1.0])
            .collect();
        let x = Matrix::from_rows(&rows);
        let q = bins.quantize_matrix(&x);
        // 40 rows: two full row groups plus 8 leftover rows; 13..30 is one
        // full group plus one leftover row, each starting mid-matrix.
        let trees = [packed];
        let mut full = vec![0.0; 40];
        accumulate_trees(&trees, &q, 0, 40, &mut full);
        let mut part = vec![0.0; 17];
        accumulate_trees(&trees, &q, 13, 30, &mut part);
        assert_eq!(&full[13..30], &part[..]);
    }

    use crate::classical::SplitMix;
    use proptest::prelude::*;

    /// Grows a random binary tree (root at index 0) over `n_features`
    /// columns, mixing threshold shapes: small integers (LUT hits),
    /// half-integers (LUT misses on integer data), and normal draws.
    /// `n_features == 0` forces the single-leaf shape, the only tree a
    /// zero-column matrix can score.
    fn random_arena(rng: &mut SplitMix, n_features: usize) -> Vec<QuantNodeDesc> {
        let mut arena = vec![QuantNodeDesc::Leaf { value: 0.0 }];
        let mut work = vec![(0usize, 0u32)];
        while let Some((i, d)) = work.pop() {
            if n_features == 0 || d >= 6 || rng.below(3) == 0 {
                arena[i] = QuantNodeDesc::Leaf {
                    value: rng.normal(),
                };
                continue;
            }
            let left = arena.len();
            arena.push(QuantNodeDesc::Leaf { value: 0.0 });
            let right = arena.len();
            arena.push(QuantNodeDesc::Leaf { value: 0.0 });
            let threshold = match rng.below(3) {
                0 => rng.below(16) as f64,
                1 => rng.below(16) as f64 + 0.5,
                _ => rng.normal() * 4.0,
            };
            arena[i] = QuantNodeDesc::Split {
                feature: rng.below(n_features),
                threshold,
                left,
                right,
            };
            work.push((left, d + 1));
            work.push((right, d + 1));
        }
        arena
    }

    /// Per-feature split-threshold lists of `arena` — what production
    /// builds [`FeatureBins`] from.
    fn thresholds_of(arena: &[QuantNodeDesc], n_features: usize) -> Vec<Vec<f64>> {
        let mut per_feature = vec![Vec::new(); n_features];
        for node in arena {
            if let QuantNodeDesc::Split {
                feature, threshold, ..
            } = *node
            {
                per_feature[feature].push(threshold);
            }
        }
        per_feature
    }

    /// A feature value drawn from the adversarial mix: NaN, far outside
    /// every edge on both sides, negative, fractional, and the common-case
    /// small integers (which exercise the LUT and AVX2 gather paths).
    fn random_value(rng: &mut SplitMix) -> f64 {
        match rng.below(8) {
            0 => f64::NAN,
            1 => -1e300,
            2 => 1e300,
            3 => -(rng.below(32) as f64),
            4 => rng.below(32) as f64 + 0.25,
            _ => rng.below(32) as f64,
        }
    }

    proptest! {
        /// The tentpole equivalence, as a property over random forests and
        /// adversarial rows: the packed quantized walk returns the raw f64
        /// arena walk's tree-ordered sum bit-for-bit — NaN rows,
        /// zero-column single-leaf trees, and out-of-range values (clamped
        /// to the extreme ranks at transform time) included. 1–40 trees
        /// make zero, one or two full tree groups plus a remainder, and
        /// 0–40 rows make zero, one or two full row groups plus 0–15
        /// leftover rows, scored from row 0 and from a random offset.
        #[test]
        fn quantized_walk_equals_arena_walk_on_random_trees(seed in any::<u64>()) {
            let mut rng = SplitMix::new(seed);
            let n_features = rng.below(6); // 0 forces single-leaf trees
            let arenas: Vec<Vec<QuantNodeDesc>> = (0..1 + rng.below(40))
                .map(|_| random_arena(&mut rng, n_features))
                .collect();
            let mut per_feature = vec![Vec::new(); n_features];
            for arena in &arenas {
                for (pooled, list) in per_feature.iter_mut().zip(thresholds_of(arena, n_features)) {
                    pooled.extend(list);
                }
            }
            let bins = FeatureBins::from_split_thresholds(per_feature, NanRoute::Right)
                .expect("within edge budget");
            let trees: Vec<QuantNodes> =
                arenas.iter().map(|a| QuantNodes::from_arena(a, &bins)).collect();
            let n_rows = rng.below(41);
            let rows: Vec<Vec<f64>> = (0..n_rows)
                .map(|_| (0..n_features).map(|_| random_value(&mut rng)).collect())
                .collect();
            let x = Matrix::from_vec(n_rows, n_features, rows.concat());
            let q = bins.quantize_matrix(&x);
            let lo = rng.below(n_rows + 1);
            for lo in [0, lo] {
                let mut got = vec![0.0; n_rows - lo];
                accumulate_trees(&trees, &q, lo, n_rows, &mut got);
                for (k, row) in rows[lo..].iter().enumerate() {
                    let want = arenas.iter().fold(0.0, |s, a| s + arena_predict(a, row));
                    prop_assert_eq!(
                        got[k].to_bits(),
                        want.to_bits(),
                        "row {} of {}..{}: {:?} → quant {} vs arena {}",
                        lo + k, lo, n_rows, row, got[k], want
                    );
                }
            }
        }

        /// Bin edges come out of the builder sorted and strictly distinct
        /// per feature, and quantization respects them: ranks are monotone
        /// in the raw value, and every value-vs-edge comparison survives
        /// quantization exactly.
        #[test]
        fn bin_edges_are_monotone_and_comparison_preserving(seed in any::<u64>()) {
            let mut rng = SplitMix::new(seed);
            let per_feature: Vec<Vec<f64>> = (0..1 + rng.below(4))
                .map(|_| {
                    // Unsorted, duplicate-laden threshold lists, like a
                    // forest's pooled splits.
                    (0..rng.below(24))
                        .map(|_| match rng.below(3) {
                            0 => rng.below(12) as f64,
                            1 => rng.below(12) as f64 + 0.5,
                            _ => rng.normal() * 3.0,
                        })
                        .collect()
                })
                .collect();
            let bins = FeatureBins::from_split_thresholds(per_feature, NanRoute::Right)
                .expect("within edge budget");
            for f in 0..bins.n_features() {
                let edges = bins.feature_edges(f);
                for pair in edges.windows(2) {
                    prop_assert!(pair[0] < pair[1], "feature {}: {:?}", f, edges);
                }
                let mut probes: Vec<f64> = (0..64).map(|_| random_value(&mut rng)).collect();
                probes.extend_from_slice(edges);
                let finite: Vec<f64> = probes.iter().copied().filter(|v| !v.is_nan()).collect();
                for &a in &finite {
                    let qa = bins.quantize_value(f, a);
                    for &b in &finite {
                        // Monotone, not injective: a <= b never ranks a
                        // above b (equal ranks within one bin are fine).
                        if a <= b {
                            let qb = bins.quantize_value(f, b);
                            prop_assert!(qa <= qb, "monotonicity: a={} b={}", a, b);
                        }
                    }
                    for &t in edges {
                        prop_assert_eq!(
                            a <= t,
                            qa <= bins.quantize_threshold(f, t),
                            "comparison vs edge: v={} t={}", a, t
                        );
                    }
                }
            }
        }
    }
}
