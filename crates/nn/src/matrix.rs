//! Dense row-major `f32` matrices.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Output-column tile width shared by [`Matrix::matmul_into`] and the
/// packed-B kernel: 16 `f32`s = 64 bytes = one cache line, so each
/// panel row of a [`PackedB`] is exactly one line and the accumulator
/// tile fits in two 256-bit vector registers.
const TILE: usize = 16;

/// Writeback of one tile accumulator: broadcast bias add, optional
/// ReLU, then the copy of the tile's live lanes. Each step is the
/// identical per-element operation the unfused op sequence performs,
/// in the same order, so fusing changes no bits. (Shared-suffix adds
/// happen inside the panel kernels, while the accumulators are still
/// in registers.)
#[inline(always)]
fn finish_tile_row(
    acc: &mut [f32; TILE],
    btile: &[f32; TILE],
    add_bias: bool,
    relu: bool,
    dst: &mut [f32],
) {
    if add_bias {
        for (x, &b) in acc.iter_mut().zip(btile) {
            *x += b;
        }
    }
    if relu {
        for x in acc.iter_mut() {
            *x = x.max(0.0);
        }
    }
    let w = dst.len();
    dst.copy_from_slice(&acc[..w]);
}

/// A dense row-major matrix of `f32`.
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// All-ones matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![1.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} != {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Standard-normal random matrix (Box–Muller) scaled by `std`.
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs` (ikj loop order).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, rhs: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Reshapes this matrix in place to `rows × cols` and zero-fills it,
    /// reusing the existing allocation whenever the capacity suffices —
    /// the scratch primitive behind the forward-only inference engine
    /// (see [`crate::infer`]): warm buffers never touch the allocator.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        self.data.clear();
        self.data.resize(n, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// [`Matrix::reset_shape`] without the zero-fill: contents are
    /// unspecified (stale values from earlier passes). Only for callers
    /// that overwrite every element before the value is read.
    pub fn reset_shape_any(&mut self, rows: usize, cols: usize) {
        let n = rows * cols;
        if n > self.data.len() {
            self.data.resize(n, 0.0);
        } else {
            self.data.truncate(n);
        }
        self.rows = rows;
        self.cols = cols;
    }

    /// Writes `self × rhs` into `out` (reshaped in place). Per output
    /// element, contributions accumulate in ascending `k` with zero `a`
    /// entries skipped — the historical ikj order — but the inner loop
    /// is tiled over output columns so the running sums live in
    /// registers instead of round-tripping through the output row every
    /// `k`. Identical scalar operation sequence per element, so results
    /// are bit-identical to the straightforward loop; [`Matrix::matmul`]
    /// delegates here, keeping the allocating and scratch-reusing paths
    /// equal by construction.
    ///
    /// # Zero-skip invariant (deliberately non-IEEE)
    ///
    /// The `a == 0.0` skip means a zero left-hand entry contributes
    /// nothing **even when the matching `rhs` entry is `NaN` or `±∞`**
    /// — IEEE would give `0.0 × NaN = NaN` and `0.0 × ∞ = NaN`. This
    /// divergence is observable, load-bearing, and locked by a
    /// regression test (`zero_skip_masks_nonfinite_rhs`): the whole
    /// repo's determinism story is that every matmul path (tape, tiled,
    /// `d == 1` dot, packed/SIMD) performs the *same* per-element
    /// operation sequence, and the skip is part of that sequence. A
    /// non-zero `a` against a non-finite `rhs` still propagates
    /// NaN/∞ normally, and a `NaN` in `a` is *not* skipped (`NaN ==
    /// 0.0` is false). [`Matrix::matmul_packed_into`] reproduces the
    /// skip bit-for-bit via lane masking — see [`PackedB`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reset_shape_any(self.rows, rhs.cols);
        let d = rhs.cols;
        if self.cols == 0 || d == 0 {
            out.data.fill(0.0);
            return;
        }
        if d == 1 {
            // Column output: a plain dot product per row (same k order
            // and zero-skip as the tiled path below).
            for (arow, o) in self.data.chunks_exact(self.cols).zip(out.data.iter_mut()) {
                let mut acc = 0.0f32;
                for (&a, &r) in arow.iter().zip(&rhs.data) {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * r;
                }
                *o = acc;
            }
            return;
        }
        for (arow, orow) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(d))
        {
            for (tile, otile) in orow.chunks_mut(TILE).enumerate() {
                let w = otile.len();
                let mut acc = [0.0f32; TILE];
                if w == TILE {
                    // Full tile: fixed-width inner loop (vectorizes
                    // without runtime trip counts).
                    for (rrow, &a) in rhs.data.chunks_exact(d).zip(arow) {
                        if a == 0.0 {
                            continue;
                        }
                        let rtile: &[f32; TILE] =
                            rrow[tile * TILE..tile * TILE + TILE].try_into().unwrap();
                        for (ac, &r) in acc.iter_mut().zip(rtile) {
                            *ac += a * r;
                        }
                    }
                } else {
                    for (rrow, &a) in rhs.data.chunks_exact(d).zip(arow) {
                        if a == 0.0 {
                            continue;
                        }
                        let rtile = &rrow[tile * TILE..tile * TILE + w];
                        for (ac, &r) in acc[..w].iter_mut().zip(rtile) {
                            *ac += a * r;
                        }
                    }
                }
                otile.copy_from_slice(&acc[..w]);
            }
        }
    }

    /// Packs this matrix into the panel layout consumed by
    /// [`Matrix::matmul_packed_into`] (allocating; see
    /// [`Matrix::pack_b_into`] for the reusing variant).
    pub fn pack_b(&self) -> PackedB {
        let mut packed = PackedB::default();
        self.pack_b_into(&mut packed);
        packed
    }

    /// Repacks this matrix into `packed` in place, reusing its buffer.
    ///
    /// The packed layout is panel-major: for each 16-column output tile,
    /// all `rows` rows of that tile are stored contiguously (one cache
    /// line per row), zero-padded on the right when `cols` is not a
    /// multiple of 16. Padding lanes are never copied out of the kernel
    /// accumulator, so their values are irrelevant to results.
    pub fn pack_b_into(&self, packed: &mut PackedB) {
        let tiles = self.cols.div_ceil(TILE);
        packed.rows = self.rows;
        packed.cols = self.cols;
        let n = tiles * self.rows * TILE;
        packed.data.clear();
        packed.data.resize(n, 0.0);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (t, chunk) in row.chunks(TILE).enumerate() {
                let base = (t * self.rows + r) * TILE;
                packed.data[base..base + chunk.len()].copy_from_slice(chunk);
            }
        }
    }

    /// Writes `self × rhs` into `out`, bit-identical to
    /// [`Matrix::matmul_into`] with the unpacked `rhs`, using the
    /// panel-major [`PackedB`] layout and a branch-free zero-skip.
    ///
    /// Two things make the naive kernel slow on serving activations:
    /// `rhs` rows are strided (one cache line per `k` touches `d`
    /// columns), and the `a == 0.0` skip — hit 25–50% of the time on
    /// post-ReLU data — is an unpredictable branch. The packed layout
    /// makes every panel read sequential, and the skip becomes a lane
    /// mask: each contribution is `(a × r) & keep` where `keep` is
    /// all-ones unless `a == ±0.0`. Masking is bit-identical to
    /// skipping because the accumulator can never hold `-0.0` (it
    /// starts at `+0.0`; round-to-nearest addition only produces
    /// `-0.0` from `(-0.0) + (-0.0)`, and a masked term is `+0.0`), so
    /// adding the masked `+0.0` leaves every accumulator bit pattern
    /// unchanged, while a `NaN` `a` keeps its lanes (`NEQ_UQ` compare /
    /// exponent+mantissa test are true for NaN) exactly like the
    /// branchy skip. Proven per-op against [`Matrix::matmul_into`]
    /// across ragged shapes and non-finite inputs in the test suite.
    ///
    /// Dispatches to an AVX-512 or AVX2 kernel when the CPU supports
    /// one (detected once at runtime); the portable fallback performs
    /// the same per-lane operation sequence, so results do not depend
    /// on the dispatch choice.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_packed_into(&self, rhs: &PackedB, out: &mut Matrix) {
        self.matmul_packed_impl(rhs, None, None, false, out);
    }

    /// `self × rhs + bias` (bias broadcast to every row), fused into the
    /// kernel's writeback: each output element is `fl(acc + b)` — the
    /// exact operation the separate matmul-then-`add_row` pair performs
    /// — without a second read/write pass over the output. Bit-identical
    /// to [`Matrix::matmul_packed_into`] followed by a broadcast row
    /// add.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or when `bias` is not
    /// `1 × rhs.cols()`.
    pub fn matmul_packed_bias_into(&self, rhs: &PackedB, bias: &Matrix, out: &mut Matrix) {
        assert_eq!(
            (bias.rows, bias.cols),
            (1, rhs.cols),
            "bias must be 1x{} (got {}x{})",
            rhs.cols,
            bias.rows,
            bias.cols
        );
        self.matmul_packed_impl(rhs, Some(&bias.data), None, false, out);
    }

    /// `[self | 1⊗suffix] × rhs + bias` (then optionally ReLU), where
    /// `suffix` is one shared row virtually appended to **every** row
    /// of `self` — without materialising the concatenation. Serving
    /// decoders hit this shape constantly: per-pair activations on the
    /// left, one time-conditioning row on the right, identical across
    /// thousands of pairs.
    ///
    /// Bit-identical to building the concatenated matrix and calling
    /// [`Matrix::matmul_packed_bias_into`] (plus a ReLU pass when
    /// `relu`): the suffix contributions `(suffix[j] × rhs[k+j][c]) &
    /// keep` are the same masked products the full kernel would form —
    /// they are row-invariant, so they are computed once per column
    /// tile and then added to each row's accumulator in the same
    /// ascending-`k` order the full kernel uses. The fused ReLU applies
    /// the identical `max(x, 0.0)` to the identical writeback values.
    ///
    /// # Panics
    ///
    /// Panics when `self.cols() + suffix.len() != rhs.rows()`, when
    /// `bias` is not `1 × rhs.cols()`.
    pub fn matmul_packed_cat_bias_into(
        &self,
        suffix: &[f32],
        rhs: &PackedB,
        bias: &Matrix,
        relu: bool,
        out: &mut Matrix,
    ) {
        assert_eq!(
            (bias.rows, bias.cols),
            (1, rhs.cols),
            "bias must be 1x{} (got {}x{})",
            rhs.cols,
            bias.rows,
            bias.cols
        );
        self.matmul_packed_impl(rhs, Some(&bias.data), Some(suffix), relu, out);
    }

    fn matmul_packed_impl(
        &self,
        rhs: &PackedB,
        bias: Option<&[f32]>,
        suffix: Option<&[f32]>,
        relu: bool,
        out: &mut Matrix,
    ) {
        let s_len = suffix.map_or(0, <[f32]>::len);
        assert_eq!(
            self.cols + s_len,
            rhs.rows,
            "matmul shape mismatch: {}x{} (+{} shared) × {}x{} (packed)",
            self.rows,
            self.cols,
            s_len,
            rhs.rows,
            rhs.cols
        );
        out.reset_shape_any(self.rows, rhs.cols);
        let d = rhs.cols;
        if d == 0 {
            return;
        }
        if self.cols + s_len == 0 {
            match bias {
                Some(b) => {
                    for orow in out.data.chunks_exact_mut(d) {
                        for (o, &bv) in orow.iter_mut().zip(b) {
                            *o = if relu { bv.max(0.0) } else { bv };
                        }
                    }
                }
                None => out.data.fill(0.0),
            }
            return;
        }
        let k = self.cols;
        if d == 1 {
            // Column output: branch-free dot products, four rows at a
            // time — four independent accumulator chains hide the
            // FP-add latency the single chain of a plain dot serializes
            // on. Same per-element masked-add sequence as the tiled
            // kernel below, so results match `matmul_into`'s `d == 1`
            // zero-skip dot bit for bit.
            let b0 = bias.map_or(0.0, |b| b[0]);
            // Shared-suffix contributions: row-invariant masked
            // products, computed once and added after each row's own
            // terms — the same values in the same `k` order the
            // concatenated dot would produce.
            let mut ps = vec![0.0f32; s_len];
            if let Some(sfx) = suffix {
                for (j, &sv) in sfx.iter().enumerate() {
                    let rv = rhs.data[(k + j) * TILE];
                    let keep = (((sv.to_bits() << 1) != 0) as u32).wrapping_neg();
                    ps[j] = f32::from_bits((sv * rv).to_bits() & keep);
                }
            }
            let prefix = &rhs.data[..k * TILE];
            let tier = simd_tier();
            let mut r = 0usize;
            while r + 4 <= self.rows {
                let quad = &self.data[r * k..(r + 4) * k];
                let mut s = [0.0f32; 4];
                #[cfg(target_arch = "x86_64")]
                let done = if tier == SimdTier::Avx512 {
                    // SAFETY: tier is Avx512 only after runtime detection.
                    unsafe { packed_dot4_avx512(quad, k, prefix, &mut s) };
                    true
                } else {
                    false
                };
                #[cfg(not(target_arch = "x86_64"))]
                let done = false;
                if !done {
                    for (kk, col) in prefix.chunks_exact(TILE).enumerate() {
                        let bv = col[0];
                        for (i, si) in s.iter_mut().enumerate() {
                            let a = quad[i * k + kk];
                            let keep = (((a.to_bits() << 1) != 0) as u32).wrapping_neg();
                            *si += f32::from_bits((a * bv).to_bits() & std::hint::black_box(keep));
                        }
                    }
                }
                for si in &mut s {
                    for &p in &ps {
                        *si += p;
                    }
                    if bias.is_some() {
                        *si += b0;
                    }
                    if relu {
                        *si = si.max(0.0);
                    }
                }
                out.data[r..r + 4].copy_from_slice(&s);
                r += 4;
            }
            while r < self.rows {
                let arow = &self.data[r * k..(r + 1) * k];
                let mut s = 0.0f32;
                for (&a, col) in arow.iter().zip(prefix.chunks_exact(TILE)) {
                    let keep = (((a.to_bits() << 1) != 0) as u32).wrapping_neg();
                    s += f32::from_bits((a * col[0]).to_bits() & std::hint::black_box(keep));
                }
                for &p in &ps {
                    s += p;
                }
                if bias.is_some() {
                    s += b0;
                }
                if relu {
                    s = s.max(0.0);
                }
                out.data[r] = s;
                r += 1;
            }
            return;
        }
        let tier = simd_tier();
        let panel_len = rhs.rows * TILE;
        let tiles = d.div_ceil(TILE);
        let mut sprod = vec![[0.0f32; TILE]; s_len];
        for tile in 0..tiles {
            let panel = &rhs.data[tile * panel_len..(tile + 1) * panel_len];
            let lo = tile * TILE;
            let w = (d - lo).min(TILE);
            let btile: [f32; TILE] = match bias {
                Some(b) => {
                    let mut t = [0.0f32; TILE];
                    t[..w].copy_from_slice(&b[lo..lo + w]);
                    t
                }
                None => [0.0f32; TILE],
            };
            let add_bias = bias.is_some();
            // Shared-suffix contributions for this tile: the masked
            // products are row-invariant, so they are formed once here
            // and each row just adds them (same bits, same ascending-`k`
            // order as the concatenated kernel would produce).
            if let Some(sfx) = suffix {
                for (j, &sv) in sfx.iter().enumerate() {
                    let srow = &panel[(k + j) * TILE..(k + j + 1) * TILE];
                    let keep = (((sv.to_bits() << 1) != 0) as u32).wrapping_neg();
                    for (dst, &rv) in sprod[j].iter_mut().zip(srow) {
                        *dst = f32::from_bits((sv * rv).to_bits() & keep);
                    }
                }
            }
            let prefix_panel = &panel[..k * TILE];
            // Several A-rows per pass: independent vector accumulator
            // chains keep the FP adders busy instead of serializing on
            // one chain's latency. Each row's per-lane sequence is
            // unchanged, so blocking cannot change bits. AVX-512 holds
            // the whole tile in one register, so eight rows fit.
            let mut r = 0usize;
            #[cfg(target_arch = "x86_64")]
            if tier == SimdTier::Avx512 {
                while r + 8 <= self.rows {
                    let rows = &self.data[r * k..(r + 8) * k];
                    let mut acc = [[0.0f32; TILE]; 8];
                    // SAFETY: tier is Avx512 only after runtime detection.
                    unsafe { packed_panel8_avx512(rows, k, prefix_panel, &sprod, &mut acc) };
                    for (i, a) in acc.iter_mut().enumerate() {
                        let at = (r + i) * d + lo;
                        finish_tile_row(a, &btile, add_bias, relu, &mut out.data[at..at + w]);
                    }
                    r += 8;
                }
            }
            while r + 4 <= self.rows {
                let rows = &self.data[r * k..(r + 4) * k];
                let mut acc = [[0.0f32; TILE]; 4];
                packed_panel4(rows, k, prefix_panel, &sprod, &mut acc, tier);
                for (i, a) in acc.iter_mut().enumerate() {
                    let at = (r + i) * d + lo;
                    finish_tile_row(a, &btile, add_bias, relu, &mut out.data[at..at + w]);
                }
                r += 4;
            }
            while r < self.rows {
                let arow = &self.data[r * k..(r + 1) * k];
                let mut acc = [0.0f32; TILE];
                packed_panel(arow, prefix_panel, &sprod, &mut acc, tier);
                let at = r * d + lo;
                finish_tile_row(&mut acc, &btile, add_bias, relu, &mut out.data[at..at + w]);
                r += 1;
            }
        }
    }

    /// In-place `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }
}

/// A weight matrix repacked for [`Matrix::matmul_packed_into`]:
/// panel-major, 16-wide zero-padded column tiles (one cache line per
/// panel row), so the kernel streams each panel sequentially instead of
/// striding across `B`'s rows.
///
/// A `PackedB` is a pure function of the source matrix — repack after
/// any weight change. It is a serving-side acceleration structure and
/// deliberately not serializable; artifacts store the row-major
/// [`Matrix`] and repack on load.
#[derive(Clone, Debug, Default)]
pub struct PackedB {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Rows of the source matrix (the product's inner dimension).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the source matrix (the product's output width).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// SIMD tiers the packed kernels dispatch across, detected at runtime.
/// Every tier performs the identical per-lane, per-row operation
/// sequence, so the dispatch choice never changes output bits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SimdTier {
    Portable,
    Avx2,
    Avx512,
}

/// Runtime SIMD tier (detection is cached by the std macro).
#[inline]
fn simd_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            SimdTier::Avx512
        } else if std::is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            SimdTier::Portable
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdTier::Portable
    }
}

/// Accumulates one A-row against one packed panel into `acc`,
/// dispatching on the (caller-detected) SIMD tier. All kernels perform
/// the identical per-lane operation sequence: for each `k` in ascending
/// order, `acc[l] += (a[k] × panel[k][l]) & keep(a[k])`, followed by
/// the shared-suffix product rows of `sprod` (empty when the op has no
/// suffix), added in ascending suffix order — the continuation of the
/// same `k` sequence the concatenated kernel would run.
#[inline]
fn packed_panel(arow: &[f32], panel: &[f32], sprod: &[[f32; TILE]], acc: &mut [f32; TILE], tier: SimdTier) {
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: each tier is only selected after runtime detection.
        SimdTier::Avx512 => {
            unsafe { packed_panel_avx512(arow, panel, sprod, acc) };
            return;
        }
        SimdTier::Avx2 => {
            unsafe { packed_panel_avx2(arow, panel, sprod, acc) };
            return;
        }
        SimdTier::Portable => {}
    }
    let _ = tier;
    packed_panel_portable(arow, panel, sprod, acc);
}

/// Portable branch-free kernel. `keep` is all-ones unless `a` is `±0.0`
/// (exponent and mantissa bits all zero — true for both signed zeros,
/// false for NaN/∞/denormals), so `(a × r) & keep` contributes the
/// masked `+0.0` exactly where the branchy skip contributes nothing.
/// The `black_box` pins the mask in place: without it LLVM proves
/// `keep ∈ {0, !0}` and un-switches the select back into the very
/// branch this kernel exists to avoid.
fn packed_panel_portable(arow: &[f32], panel: &[f32], sprod: &[[f32; TILE]], acc: &mut [f32; TILE]) {
    for (&a, row) in arow.iter().zip(panel.chunks_exact(TILE)) {
        let keep = std::hint::black_box((((a.to_bits() << 1) != 0) as u32).wrapping_neg());
        for (ac, &r) in acc.iter_mut().zip(row) {
            *ac += f32::from_bits((a * r).to_bits() & keep);
        }
    }
    for row in sprod {
        for (ac, &p) in acc.iter_mut().zip(row) {
            *ac += p;
        }
    }
}

/// AVX2 kernel: two 8-lane accumulators cover the 16-lane tile; the
/// zero-skip is the `NEQ_UQ` compare mask (unordered-or-not-equal, so
/// NaN `a` keeps its lanes like the branchy skip). Lane `l`'s additions
/// happen in the same ascending-`k` order as the scalar loop and lanes
/// never mix, so results are bit-identical to the portable kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn packed_panel_avx2(arow: &[f32], panel: &[f32], sprod: &[[f32; TILE]], acc: &mut [f32; TILE]) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let mut acc0 = _mm256_loadu_ps(acc.as_ptr());
    let mut acc1 = _mm256_loadu_ps(acc.as_ptr().add(8));
    for (&a, row) in arow.iter().zip(panel.chunks_exact(TILE)) {
        let av = _mm256_set1_ps(a);
        let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero);
        let r0 = _mm256_loadu_ps(row.as_ptr());
        let r1 = _mm256_loadu_ps(row.as_ptr().add(8));
        acc0 = _mm256_add_ps(acc0, _mm256_and_ps(_mm256_mul_ps(av, r0), keep));
        acc1 = _mm256_add_ps(acc1, _mm256_and_ps(_mm256_mul_ps(av, r1), keep));
    }
    for row in sprod {
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(row.as_ptr()));
        acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(row.as_ptr().add(8)));
    }
    _mm256_storeu_ps(acc.as_mut_ptr(), acc0);
    _mm256_storeu_ps(acc.as_mut_ptr().add(8), acc1);
}

/// Four-row variant of [`packed_panel`]: `rows` holds four consecutive
/// A-rows of length `k`, `acc` one tile accumulator per row. Each row's
/// per-lane operation sequence is exactly [`packed_panel`]'s; only the
/// interleaving across (independent) rows differs, so results are
/// bit-identical while eight accumulator chains hide the FP-add
/// latency a single chain serializes on.
#[inline]
fn packed_panel4(
    rows: &[f32],
    k: usize,
    panel: &[f32],
    sprod: &[[f32; TILE]],
    acc: &mut [[f32; TILE]; 4],
    tier: SimdTier,
) {
    #[cfg(target_arch = "x86_64")]
    match tier {
        // SAFETY: each tier is only selected after runtime detection.
        SimdTier::Avx512 => {
            unsafe { packed_panel4_avx512(rows, k, panel, sprod, acc) };
            return;
        }
        SimdTier::Avx2 => {
            unsafe { packed_panel4_avx2(rows, k, panel, sprod, acc) };
            return;
        }
        SimdTier::Portable => {}
    }
    let _ = tier;
    for (i, a) in acc.iter_mut().enumerate() {
        packed_panel_portable(&rows[i * k..(i + 1) * k], panel, sprod, a);
    }
}

/// AVX2 four-row kernel (see [`packed_panel4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn packed_panel4_avx2(
    rows: &[f32],
    k: usize,
    panel: &[f32],
    sprod: &[[f32; TILE]],
    acc: &mut [[f32; TILE]; 4],
) {
    use std::arch::x86_64::*;
    let zero = _mm256_setzero_ps();
    let mut a00 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut a01 = _mm256_loadu_ps(acc[0].as_ptr().add(8));
    let mut a10 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut a11 = _mm256_loadu_ps(acc[1].as_ptr().add(8));
    let mut a20 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut a21 = _mm256_loadu_ps(acc[2].as_ptr().add(8));
    let mut a30 = _mm256_loadu_ps(acc[3].as_ptr());
    let mut a31 = _mm256_loadu_ps(acc[3].as_ptr().add(8));
    for (kk, row) in panel.chunks_exact(TILE).enumerate() {
        let r0 = _mm256_loadu_ps(row.as_ptr());
        let r1 = _mm256_loadu_ps(row.as_ptr().add(8));
        macro_rules! row_step {
            ($i:literal, $lo:ident, $hi:ident) => {
                let av = _mm256_set1_ps(*rows.get_unchecked($i * k + kk));
                let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(av, zero);
                $lo = _mm256_add_ps($lo, _mm256_and_ps(_mm256_mul_ps(av, r0), keep));
                $hi = _mm256_add_ps($hi, _mm256_and_ps(_mm256_mul_ps(av, r1), keep));
            };
        }
        row_step!(0, a00, a01);
        row_step!(1, a10, a11);
        row_step!(2, a20, a21);
        row_step!(3, a30, a31);
    }
    for row in sprod {
        let p0 = _mm256_loadu_ps(row.as_ptr());
        let p1 = _mm256_loadu_ps(row.as_ptr().add(8));
        a00 = _mm256_add_ps(a00, p0);
        a01 = _mm256_add_ps(a01, p1);
        a10 = _mm256_add_ps(a10, p0);
        a11 = _mm256_add_ps(a11, p1);
        a20 = _mm256_add_ps(a20, p0);
        a21 = _mm256_add_ps(a21, p1);
        a30 = _mm256_add_ps(a30, p0);
        a31 = _mm256_add_ps(a31, p1);
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), a00);
    _mm256_storeu_ps(acc[0].as_mut_ptr().add(8), a01);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), a10);
    _mm256_storeu_ps(acc[1].as_mut_ptr().add(8), a11);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), a20);
    _mm256_storeu_ps(acc[2].as_mut_ptr().add(8), a21);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), a30);
    _mm256_storeu_ps(acc[3].as_mut_ptr().add(8), a31);
}

/// Zero-skip k-mask for broadcast scalar `a`: all lanes kept unless
/// `a` is `±0.0` (shifting out the sign bit leaves zero only for the
/// two signed zeros — NaN/∞/denormals keep their lanes, matching the
/// branchy skip). Computed on the scalar integer ports so the FP ports
/// only see the multiply and add; the `black_box` stops LLVM from
/// un-switching the mask back into the branch this avoids.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn keep_mask16(a: f32) -> u16 {
    ((a.to_bits() << 1 != 0) as u16).wrapping_neg()
}

/// AVX-512 kernel: the whole 16-lane tile fits one register. The
/// zero-skip is a k-mask ([`keep_mask16`]) and the masked lanes of
/// `maskz_mul` are forced to `+0.0` — exactly the `and`-masked
/// product the AVX2/portable kernels add, so results are bit-identical
/// (a plain multiply then add per lane, in the same ascending-`k`
/// order; no FMA, which would skip the intermediate rounding).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn packed_panel_avx512(arow: &[f32], panel: &[f32], sprod: &[[f32; TILE]], acc: &mut [f32; TILE]) {
    use std::arch::x86_64::*;
    let mut a0 = _mm512_loadu_ps(acc.as_ptr());
    for (&a, row) in arow.iter().zip(panel.chunks_exact(TILE)) {
        let av = _mm512_set1_ps(a);
        let keep = keep_mask16(a);
        let r0 = _mm512_loadu_ps(row.as_ptr());
        a0 = _mm512_add_ps(a0, _mm512_maskz_mul_ps(keep, av, r0));
    }
    for row in sprod {
        a0 = _mm512_add_ps(a0, _mm512_loadu_ps(row.as_ptr()));
    }
    _mm512_storeu_ps(acc.as_mut_ptr(), a0);
}

/// AVX-512 four-row kernel (see [`packed_panel4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn packed_panel4_avx512(
    rows: &[f32],
    k: usize,
    panel: &[f32],
    sprod: &[[f32; TILE]],
    acc: &mut [[f32; TILE]; 4],
) {
    use std::arch::x86_64::*;
    let mut a0 = _mm512_loadu_ps(acc[0].as_ptr());
    let mut a1 = _mm512_loadu_ps(acc[1].as_ptr());
    let mut a2 = _mm512_loadu_ps(acc[2].as_ptr());
    let mut a3 = _mm512_loadu_ps(acc[3].as_ptr());
    for (kk, row) in panel.chunks_exact(TILE).enumerate() {
        let r0 = _mm512_loadu_ps(row.as_ptr());
        macro_rules! row_step {
            ($i:literal, $a:ident) => {
                let a = *rows.get_unchecked($i * k + kk);
                let av = _mm512_set1_ps(a);
                let keep = keep_mask16(a);
                $a = _mm512_add_ps($a, _mm512_maskz_mul_ps(keep, av, r0));
            };
        }
        row_step!(0, a0);
        row_step!(1, a1);
        row_step!(2, a2);
        row_step!(3, a3);
    }
    for row in sprod {
        let p = _mm512_loadu_ps(row.as_ptr());
        a0 = _mm512_add_ps(a0, p);
        a1 = _mm512_add_ps(a1, p);
        a2 = _mm512_add_ps(a2, p);
        a3 = _mm512_add_ps(a3, p);
    }
    _mm512_storeu_ps(acc[0].as_mut_ptr(), a0);
    _mm512_storeu_ps(acc[1].as_mut_ptr(), a1);
    _mm512_storeu_ps(acc[2].as_mut_ptr(), a2);
    _mm512_storeu_ps(acc[3].as_mut_ptr(), a3);
}

/// AVX-512 four-row dot kernel for `d == 1` (column outputs): four
/// scalar accumulator chains, one per A-row, with the zero-skip as a
/// one-bit write-mask on `maskz_mul_ss` — lane 0 becomes the masked
/// product (`+0.0` when `a` is `±0.0`, the product otherwise), then a
/// plain scalar add, which is the identical per-element operation
/// sequence as the portable dot, so bits are unchanged. Keeping the
/// mask in the k-register domain avoids the store/reload the portable
/// kernel needs to pin its integer mask.
///
/// `rhs` is the packed panel; only lane 0 of each `TILE`-wide row is
/// read (`B`'s single column).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn packed_dot4_avx512(quad: &[f32], k: usize, rhs: &[f32], s: &mut [f32; 4]) {
    use std::arch::x86_64::*;
    let mut s0 = _mm_set_ss(s[0]);
    let mut s1 = _mm_set_ss(s[1]);
    let mut s2 = _mm_set_ss(s[2]);
    let mut s3 = _mm_set_ss(s[3]);
    for (kk, col) in rhs.chunks_exact(TILE).enumerate() {
        let bv = _mm_set_ss(col[0]);
        macro_rules! row_step {
            ($i:literal, $s:ident) => {
                let a = *quad.get_unchecked($i * k + kk);
                let keep = (a.to_bits() << 1 != 0) as __mmask8;
                $s = _mm_add_ss($s, _mm_maskz_mul_ss(keep, _mm_set_ss(a), bv));
            };
        }
        row_step!(0, s0);
        row_step!(1, s1);
        row_step!(2, s2);
        row_step!(3, s3);
    }
    s[0] = _mm_cvtss_f32(s0);
    s[1] = _mm_cvtss_f32(s1);
    s[2] = _mm_cvtss_f32(s2);
    s[3] = _mm_cvtss_f32(s3);
}

/// AVX-512 eight-row kernel: eight one-register accumulator chains —
/// enough independent adds in flight to cover the FP-add latency that
/// narrower blockings leave on the table. Row interleaving never mixes
/// lanes or reorders a row's `k` sequence, so bits are unchanged (see
/// [`packed_panel4`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn packed_panel8_avx512(
    rows: &[f32],
    k: usize,
    panel: &[f32],
    sprod: &[[f32; TILE]],
    acc: &mut [[f32; TILE]; 8],
) {
    use std::arch::x86_64::*;
    let mut a0 = _mm512_loadu_ps(acc[0].as_ptr());
    let mut a1 = _mm512_loadu_ps(acc[1].as_ptr());
    let mut a2 = _mm512_loadu_ps(acc[2].as_ptr());
    let mut a3 = _mm512_loadu_ps(acc[3].as_ptr());
    let mut a4 = _mm512_loadu_ps(acc[4].as_ptr());
    let mut a5 = _mm512_loadu_ps(acc[5].as_ptr());
    let mut a6 = _mm512_loadu_ps(acc[6].as_ptr());
    let mut a7 = _mm512_loadu_ps(acc[7].as_ptr());
    for (kk, row) in panel.chunks_exact(TILE).enumerate() {
        let r0 = _mm512_loadu_ps(row.as_ptr());
        macro_rules! row_step {
            ($i:literal, $a:ident) => {
                let a = *rows.get_unchecked($i * k + kk);
                let av = _mm512_set1_ps(a);
                let keep = keep_mask16(a);
                $a = _mm512_add_ps($a, _mm512_maskz_mul_ps(keep, av, r0));
            };
        }
        row_step!(0, a0);
        row_step!(1, a1);
        row_step!(2, a2);
        row_step!(3, a3);
        row_step!(4, a4);
        row_step!(5, a5);
        row_step!(6, a6);
        row_step!(7, a7);
    }
    for row in sprod {
        let p = _mm512_loadu_ps(row.as_ptr());
        a0 = _mm512_add_ps(a0, p);
        a1 = _mm512_add_ps(a1, p);
        a2 = _mm512_add_ps(a2, p);
        a3 = _mm512_add_ps(a3, p);
        a4 = _mm512_add_ps(a4, p);
        a5 = _mm512_add_ps(a5, p);
        a6 = _mm512_add_ps(a6, p);
        a7 = _mm512_add_ps(a7, p);
    }
    _mm512_storeu_ps(acc[0].as_mut_ptr(), a0);
    _mm512_storeu_ps(acc[1].as_mut_ptr(), a1);
    _mm512_storeu_ps(acc[2].as_mut_ptr(), a2);
    _mm512_storeu_ps(acc[3].as_mut_ptr(), a3);
    _mm512_storeu_ps(acc[4].as_mut_ptr(), a4);
    _mm512_storeu_ps(acc[5].as_mut_ptr(), a5);
    _mm512_storeu_ps(acc[6].as_mut_ptr(), a6);
    _mm512_storeu_ps(acc[7].as_mut_ptr(), a7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = Matrix::from_rows(&[&[5., 6.], &[7., 8.]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]);
        let id = Matrix::from_rows(&[&[1., 0., 0.], &[0., 1., 0.], &[0., 0., 1.]]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::randn(4, 7, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn randn_mean_and_std() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::randn(100, 100, 2.0, &mut rng);
        let mean = a.sum() / 10_000.0;
        let var = a.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn map_zip_sum() {
        let a = Matrix::from_rows(&[&[1., -2.], &[3., -4.]]);
        let b = a.map(f32::abs);
        assert_eq!(b.sum(), 10.0);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2., 0., 6., 0.]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.5, 2.5]]);
        let s = serde_json::to_string(&a).unwrap();
        let b: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(a, b);
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Sprinkles exact zeros into a random matrix so the zero-skip path
    /// is exercised (post-ReLU serving activations look like this).
    fn sparse_randn(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::randn(rows, cols, 1.0, rng);
        for x in m.data_mut() {
            if rng.gen_range(0.0..1.0f32) < 0.4 {
                *x = 0.0;
            }
        }
        m
    }

    /// Locks the deliberate IEEE divergence documented on
    /// [`Matrix::matmul_into`]: a zero `a` entry contributes nothing
    /// even against NaN/∞ in `rhs`, a non-zero `a` propagates them, and
    /// a NaN `a` is never skipped. Both the naive and packed kernels
    /// must agree bit-for-bit.
    #[test]
    fn zero_skip_masks_nonfinite_rhs() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0], &[f32::NAN, 1.0], &[-0.0, 3.0]]);
        let b = Matrix::from_rows(&[
            &[f32::NAN, f32::INFINITY, 1.0],
            &[5.0, f32::NEG_INFINITY, 2.0],
        ]);
        let naive = a.matmul(&b);
        // Row 0: a = 0 skips the NaN/∞ row entirely.
        assert_eq!(naive.row(0)[0], 10.0);
        assert_eq!(naive.row(0)[1], f32::NEG_INFINITY);
        // Row 1: all-zero a gives exact +0.0, not NaN.
        assert!(naive.row(1).iter().all(|&x| x.to_bits() == 0));
        // Row 2: NaN a is NOT skipped and poisons its products.
        assert!(naive.row(2).iter().all(|x| x.is_nan()));
        // Row 3: -0.0 skips like +0.0.
        assert_eq!(naive.row(3)[0], 15.0);
        let mut packed_out = Matrix::zeros(0, 0);
        a.matmul_packed_into(&b.pack_b(), &mut packed_out);
        assert_eq!(bits(&naive), bits(&packed_out));
    }

    /// Packed-B ≡ naive, bit-for-bit, across ragged shapes including
    /// the degenerate 0-row/0-col edges and widths straddling tile
    /// boundaries, with both a cold and a reused output buffer.
    #[test]
    fn packed_matches_naive_across_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        let shapes = [
            (0usize, 0usize, 0usize),
            (0, 3, 5),
            (3, 0, 5),
            (3, 5, 0),
            (1, 1, 1),
            (2, 3, 1),
            (7, 9, 15),
            (5, 4, 16),
            (4, 33, 17),
            (9, 16, 31),
            (3, 2, 48),
            (17, 40, 20),
        ];
        let mut packed = PackedB::default();
        let mut warm = Matrix::zeros(0, 0);
        for (m, k, n) in shapes {
            let a = sparse_randn(m, k, &mut rng);
            let b = Matrix::randn(k, n, 1.0, &mut rng);
            b.pack_b_into(&mut packed);
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            let naive = a.matmul(&b);
            let mut cold = Matrix::zeros(0, 0);
            a.matmul_packed_into(&packed, &mut cold);
            a.matmul_packed_into(&packed, &mut warm);
            assert_eq!(bits(&naive), bits(&cold), "cold {m}x{k}x{n}");
            assert_eq!(bits(&naive), bits(&warm), "warm {m}x{k}x{n}");
        }
    }

    /// The shared-suffix fused op must reproduce, bit for bit, the
    /// materialized pipeline it replaces: concatenate the suffix row
    /// onto every `A` row, naive matmul, broadcast bias add, optional
    /// ReLU — across ragged shapes, empty prefixes/suffixes, `d == 1`
    /// column outputs, and suffix zeros against non-finite weights.
    #[test]
    fn packed_cat_suffix_matches_materialized() {
        let mut rng = StdRng::seed_from_u64(17);
        let shapes = [
            (7usize, 5usize, 3usize, 9usize),
            (8, 16, 16, 16),
            (5, 0, 4, 3),
            (4, 6, 0, 17),
            (9, 3, 2, 1),
            (13, 16, 16, 1),
            (0, 4, 4, 4),
            (3, 0, 0, 2),
            (21, 7, 32, 20),
            // Suffixes wider than any fixed buffer: hidden 33/48/64/256
            // models hit these, on the 8-row path and the column path.
            (9, 5, 33, 17),
            (16, 12, 48, 20),
            (6, 4, 48, 1),
            (11, 3, 64, 1),
            (8, 8, 64, 16),
            (10, 6, 256, 33),
        ];
        for (m, kp, s, d) in shapes {
            let a = sparse_randn(m, kp, &mut rng);
            let mut sfx = Matrix::randn(1, s, 1.0, &mut rng);
            for (j, x) in sfx.data_mut().iter_mut().enumerate() {
                if j % 3 == 0 {
                    *x = 0.0; // exercise the suffix zero-skip
                }
            }
            let mut b = Matrix::randn(kp + s, d, 1.0, &mut rng);
            if s > 0 && d > 0 {
                // Non-finite weights in a suffix row that a zero suffix
                // entry must mask out, exactly like the branchy skip.
                b.data_mut()[kp * d] = f32::NAN;
            }
            let bias = Matrix::randn(1, d, 1.0, &mut rng);
            let mut cat = Matrix::zeros(m, kp + s);
            for r in 0..m {
                let dst = &mut cat.data_mut()[r * (kp + s)..(r + 1) * (kp + s)];
                dst[..kp].copy_from_slice(a.row(r));
                dst[kp..].copy_from_slice(sfx.data());
            }
            let packed = b.pack_b();
            for relu in [false, true] {
                let mut want = cat.matmul(&b);
                for row in 0..m {
                    for (x, &bv) in want.data_mut()[row * d..(row + 1) * d]
                        .iter_mut()
                        .zip(bias.data())
                    {
                        *x += bv;
                        if relu {
                            *x = x.max(0.0);
                        }
                    }
                }
                let mut got = Matrix::zeros(0, 0);
                a.matmul_packed_cat_bias_into(sfx.data(), &packed, &bias, relu, &mut got);
                assert_eq!(bits(&want), bits(&got), "{m}x{kp}+{s}x{d} relu={relu}");
            }
        }
    }

    /// Repacking a different matrix into the same `PackedB` leaves no
    /// stale state (padding is re-zeroed).
    #[test]
    fn repack_clears_stale_padding() {
        let mut rng = StdRng::seed_from_u64(13);
        let big = Matrix::randn(8, 30, 1.0, &mut rng);
        let small = Matrix::randn(4, 3, 1.0, &mut rng);
        let mut packed = PackedB::default();
        big.pack_b_into(&mut packed);
        small.pack_b_into(&mut packed);
        let a = sparse_randn(6, 4, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_packed_into(&packed, &mut out);
        assert_eq!(bits(&a.matmul(&small)), bits(&out));
    }
}

#[cfg(test)]
mod review_probe {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    #[test]
    fn suffix_48_like_standard_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let hc = 48;
        let a = Matrix::randn(4, hc, 1.0, &mut rng);
        let sfx = vec![0.5f32; hc];
        let b = Matrix::randn(2 * hc, 3, 1.0, &mut rng);
        let bias = Matrix::randn(1, 3, 1.0, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_packed_cat_bias_into(&sfx, &b.pack_b(), &bias, false, &mut out);
    }
}
