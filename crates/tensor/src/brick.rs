//! Bricks and pallets (§IV-A1).
//!
//! A *brick* is a set of 16 elements of a 3D array contiguous along the `i`
//! dimension, denoted by its origin element `nB(x, y, i)`. A *pallet* is a
//! set of 16 bricks from adjacent windows along the `x` dimension (stride
//! `S` apart): `nB(x, y, i) … nB(x + 15·S, y, i)`.
//!
//! These are the units of data movement: DaDianNao broadcasts one neuron
//! brick per cycle; Pragmatic broadcasts one pallet's worth of oneffsets per
//! cycle (one brick per window lane).

use std::ops::Range;

use crate::shape::ConvLayerSpec;
use crate::tensor3::Tensor3;
use crate::{BRICK, PALLET};

/// Identifies a brick by its origin input-space coordinates. Spatial
/// coordinates are `isize` so that padded (out-of-bounds, all-zero) bricks
/// can be referred to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrickRef {
    /// Input-space `x` of the brick origin.
    pub x: isize,
    /// Input-space `y` of the brick origin.
    pub y: isize,
    /// Channel of the brick origin (multiple of 16 in scheduled use).
    pub i: usize,
}

/// Identifies a pallet: 16 bricks at `x + w·S` for window lanes
/// `w = 0..16`, all sharing `(y, i)` and the brick-step offset within the
/// filter volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PalletRef {
    /// Output `x` coordinate of the pallet's first window.
    pub wx0: usize,
    /// Output `y` coordinate of the pallet's windows.
    pub wy: usize,
    /// Number of valid windows in the pallet (16, or fewer for the ragged
    /// last pallet of a row).
    pub lanes: usize,
}

/// One step of the brick-granular schedule: the `(fx, fy, i0)` offset within
/// the filter volume that every window lane processes simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrickStep {
    /// Filter-space `x` offset.
    pub fx: usize,
    /// Filter-space `y` offset.
    pub fy: usize,
    /// Channel origin of the brick (multiple of 16).
    pub i0: usize,
}

/// Enumerates the pallets of a layer in schedule order (rows outer, pallets
/// along `x` inner). The last pallet of a row may have fewer than 16 lanes.
pub fn pallets(spec: &ConvLayerSpec) -> Vec<PalletRef> {
    let columns = spec.pallets_per_row();
    (0..spec.out_y())
        .flat_map(|wy| (0..columns).map(move |col| column_pallet(spec, col, wy)))
        .collect()
}

/// The pallet in column `col` (windows from `wx0 = 16·col`) of window row
/// `wy`.
fn column_pallet(spec: &ConvLayerSpec, col: usize, wy: usize) -> PalletRef {
    let wx0 = col * PALLET;
    PalletRef { wx0, wy, lanes: PALLET.min(spec.out_x() - wx0) }
}

/// Enumerates the brick steps of a layer: all `(fx, fy, i0)` offsets of the
/// filter volume, `i0` innermost so consecutive steps reuse nearby neurons.
pub fn brick_steps(spec: &ConvLayerSpec) -> Vec<BrickStep> {
    (0..spec.filter.y).flat_map(|fy| row_steps(spec, fy)).collect()
}

/// The input-space brick reference for window lane `lane` of `pallet` at
/// `step`.
pub fn brick_for(
    spec: &ConvLayerSpec,
    pallet: PalletRef,
    lane: usize,
    step: BrickStep,
) -> BrickRef {
    let (ox, oy) = spec.window_origin(pallet.wx0 + lane, pallet.wy);
    BrickRef { x: ox + step.fx as isize, y: oy + step.fy as isize, i: step.i0 }
}

/// The window lanes of `pallet` whose brick at `step` lies inside the
/// input; the others read padding. All lanes share the brick's `y` and
/// lane `l` sits at `x0 + l·S`, so the in-bounds lanes are one
/// contiguous range: empty when `y` is out of range, otherwise from
/// `ceil(-x0 / S)` up to the last lane with `x ≤ Nx − 1`.
pub fn in_bounds_lanes(spec: &ConvLayerSpec, pallet: PalletRef, step: BrickStep) -> Range<usize> {
    let b = brick_for(spec, pallet, 0, step);
    let (nx, ny) = (spec.input.x as isize, spec.input.y as isize);
    if b.y < 0 || b.y >= ny || b.x >= nx {
        return 0..0;
    }
    let s = spec.stride as isize;
    let lo = if b.x < 0 { (-b.x + s - 1) / s } else { 0 };
    let hi = (nx - 1 - b.x) / s + 1;
    let (lo, hi) = ((lo as usize).min(pallet.lanes), (hi as usize).min(pallet.lanes));
    lo..hi.max(lo)
}

/// One distinct `(input row, pallet column)` that a set of pallets
/// visits: a representative pallet of the column, the filter row at
/// which it reads the input row, and how many `(pallet, filter row)`
/// pairs of the set read that row in that column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowVisit {
    /// A pallet of the column whose window row reaches the input row.
    pub pallet: PalletRef,
    /// The filter row at which `pallet` reads the input row.
    pub fy: usize,
    /// The `(pallet, filter row)` pairs of the set that read it.
    pub count: u64,
}

/// Groups the pallet-steps of `selected` by the bricks they read.
///
/// A pallet-step reads input row `y = wy·S − pad + fy`, and its bricks
/// (so its in-bounds lanes, its NM rows and its schedules) depend only on
/// that row, the pallet's column, `fx` and the channel brick — not on
/// which window row `wy` reaches `y`. So the brick steps of `selected`
/// are exactly `count` copies of the steps at `fy` ([`row_steps`]) of
/// each visit returned here: one visit per distinct `(y, column)`,
/// input row outer, column inner. Rows nothing reads (gaps between
/// strided windows) have no visit; padding rows have theirs.
pub fn row_visits(spec: &ConvLayerSpec, selected: &[PalletRef]) -> Vec<RowVisit> {
    let (stride, fy_n, columns) = (spec.stride, spec.filter.y, spec.pallets_per_row());
    // Row `k` is input row `k − pad`: window row `wy` at filter row `fy`
    // reads `k = wy·S + fy`.
    let rows = spec.out_y().saturating_sub(1) * stride + fy_n;
    let mut counts = vec![0u64; rows * columns];
    let mut reached_by = vec![None; rows];
    for p in selected {
        for fy in 0..fy_n {
            let k = p.wy * stride + fy;
            counts[k * columns + p.wx0 / PALLET] += 1;
            reached_by[k].get_or_insert((p.wy, fy));
        }
    }
    let mut out = Vec::new();
    for (row, &reach) in counts.chunks(columns).zip(&reached_by) {
        let Some((wy, fy)) = reach else { continue };
        for (col, &count) in row.iter().enumerate().filter(|(_, &n)| n > 0) {
            out.push(RowVisit { pallet: column_pallet(spec, col, wy), fy, count });
        }
    }
    out
}

/// The brick steps at filter row `fy`, in [`brick_steps`] order (`fx`
/// outer, `i0` inner).
pub fn row_steps(spec: &ConvLayerSpec, fy: usize) -> impl Iterator<Item = BrickStep> {
    let (fx_n, depth) = (spec.filter.x, spec.input.i);
    (0..fx_n).flat_map(move |fx| (0..depth).step_by(BRICK).map(move |i0| BrickStep { fx, fy, i0 }))
}

/// How many `(lane, fx)` pairs of each pallet column read each input
/// column `x`, over every lane and filter column, indexed by pallet
/// column (`wx0 / 16`): `(first, reads)`, where `reads[k]` counts the
/// pairs that read `x = first + k`. Padding columns are left out, so
/// every counted `x` is in bounds; a column that reads only padding has
/// no reads.
pub fn column_reads(spec: &ConvLayerSpec) -> Vec<(usize, Vec<u64>)> {
    let nx = spec.input.x as isize;
    let reads_of = |pallet: PalletRef| {
        let step = |fx| BrickStep { fx, fy: 0, i0: 0 };
        let xs = (0..spec.filter.x)
            .flat_map(|fx| {
                (0..pallet.lanes).map(move |lane| brick_for(spec, pallet, lane, step(fx)).x)
            })
            .filter(|x| (0..nx).contains(x));
        let first = xs.clone().min().unwrap_or(0);
        let mut reads = Vec::new();
        for x in xs {
            let k = (x - first) as usize;
            if reads.len() <= k {
                reads.resize(k + 1, 0);
            }
            reads[k] += 1;
        }
        (first as usize, reads)
    };
    (0..spec.pallets_per_row()).map(|col| reads_of(column_pallet(spec, col, 0))).collect()
}

/// Fetches the neuron values of one pallet at one brick step: `lanes`
/// bricks of 16 neurons each. Lanes beyond `pallet.lanes` are zero-filled
/// (an idle window lane forces null terms, §V-A4).
pub fn fetch_pallet_step<T: Copy + Default>(
    spec: &ConvLayerSpec,
    neurons: &Tensor3<T>,
    pallet: PalletRef,
    step: BrickStep,
) -> [[T; BRICK]; PALLET] {
    let mut out = [[T::default(); BRICK]; PALLET];
    for (lane, slot) in out.iter_mut().enumerate().take(pallet.lanes) {
        let b = brick_for(spec, pallet, lane, step);
        *slot = neurons.brick_padded(b.x, b.y, b.i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConvLayerSpec;

    fn toy_spec() -> ConvLayerSpec {
        ConvLayerSpec::new("t", (20, 3, 32), (3, 3), 4, 1, 1).unwrap()
    }

    #[test]
    fn pallet_count_matches_spec() {
        let s = toy_spec();
        assert_eq!(pallets(&s).len(), s.pallets());
    }

    #[test]
    fn ragged_last_pallet_has_fewer_lanes() {
        let s = toy_spec(); // Ox = 20 -> pallets of 16 and 4 lanes
        let ps = pallets(&s);
        assert_eq!(ps[0].lanes, 16);
        assert_eq!(ps[1].lanes, 4);
        assert_eq!(ps[1].wx0, 16);
    }

    #[test]
    fn brick_steps_cover_filter_volume() {
        let s = toy_spec();
        let steps = brick_steps(&s);
        assert_eq!(steps.len(), s.brick_steps());
        assert_eq!(steps[0], BrickStep { fx: 0, fy: 0, i0: 0 });
        assert_eq!(steps[1], BrickStep { fx: 0, fy: 0, i0: 16 });
        assert_eq!(steps[2], BrickStep { fx: 1, fy: 0, i0: 0 });
    }

    #[test]
    fn brick_for_applies_window_stride() {
        let s = ConvLayerSpec::new("t", (40, 8, 16), (3, 3), 4, 2, 0).unwrap();
        let p = PalletRef { wx0: 0, wy: 1, lanes: 16 };
        let step = BrickStep { fx: 1, fy: 2, i0: 0 };
        let b0 = brick_for(&s, p, 0, step);
        let b1 = brick_for(&s, p, 1, step);
        assert_eq!(b0, BrickRef { x: 1, y: 4, i: 0 });
        assert_eq!(b1.x - b0.x, 2); // stride apart
    }

    #[test]
    fn fetch_pallet_step_zero_fills_idle_lanes() {
        let s = toy_spec();
        let n = Tensor3::from_fn(s.input, |_, _, _| 7u16);
        let ps = pallets(&s);
        let got = fetch_pallet_step(&s, &n, ps[1], BrickStep { fx: 1, fy: 1, i0: 0 });
        // lanes 0..4 are real (interior -> all 7s), lanes 4..16 idle (zeros)
        assert!(got[0].iter().all(|&v| v == 7));
        assert!(got[4].iter().all(|&v| v == 0));
        assert!(got[15].iter().all(|&v| v == 0));
    }

    #[test]
    fn fetch_pallet_step_padding_is_zero() {
        let s = toy_spec();
        let n = Tensor3::from_fn(s.input, |_, _, _| 7u16);
        let ps = pallets(&s);
        // First window at (0,0) with pad 1: at step (fx=0, fy=1) lane 0
        // reads x = -1 (padding -> zeros) while lane 1 reads x = 0, y = 0.
        let got = fetch_pallet_step(&s, &n, ps[0], BrickStep { fx: 0, fy: 1, i0: 0 });
        assert!(got[0].iter().all(|&v| v == 0));
        assert!(got[1].iter().all(|&v| v == 7)); // lane 1 reads x = 0
    }

    #[test]
    fn in_bounds_lanes_match_per_lane_bounds_checks() {
        for (nx, stride, pad) in [(20, 1, 1), (9, 2, 2), (5, 3, 0), (3, 4, 2), (40, 4, 1)] {
            let s = ConvLayerSpec::new("t", (nx, 3, 16), (3, 3), 4, stride, pad).unwrap();
            for p in pallets(&s) {
                for step in brick_steps(&s) {
                    let inside: Vec<usize> = (0..p.lanes)
                        .filter(|&l| {
                            let b = brick_for(&s, p, l, step);
                            (0..nx as isize).contains(&b.x) && (0..3).contains(&b.y)
                        })
                        .collect();
                    let range: Vec<usize> = in_bounds_lanes(&s, p, step).collect();
                    assert_eq!(range, inside, "{nx}/{stride}/{pad} {p:?} {step:?}");
                }
            }
        }
    }

    /// Every pallet-step of `selected`, keyed by what it reads (pallet
    /// column and lanes, input row, `fx`, channel brick), counted.
    type ReadCounts = std::collections::BTreeMap<(usize, usize, isize, usize, usize), u64>;

    fn walk_reads(s: &ConvLayerSpec, selected: &[PalletRef]) -> ReadCounts {
        let mut out = ReadCounts::new();
        for &p in selected {
            for step in brick_steps(s) {
                let y = brick_for(s, p, 0, step).y;
                *out.entry((p.wx0, p.lanes, y, step.fx, step.i0)).or_default() += 1;
            }
        }
        out
    }

    fn visit_reads(s: &ConvLayerSpec, selected: &[PalletRef]) -> ReadCounts {
        let mut out = ReadCounts::new();
        for v in row_visits(s, selected) {
            for step in row_steps(s, v.fy) {
                let (p, y) = (v.pallet, brick_for(s, v.pallet, 0, step).y);
                let slot = out.entry((p.wx0, p.lanes, y, step.fx, step.i0)).or_default();
                assert_eq!(*slot, 0, "one visit per distinct step: {v:?} {step:?}");
                *slot = v.count;
            }
        }
        out
    }

    #[test]
    fn row_visits_stand_for_every_selected_pallet_step() {
        // Ragged rows, padding rows, strides past the filter (unread
        // rows), and subsets of the pallets.
        for (nx, ny, stride, pad, f) in
            [(20, 3, 1, 1, 3), (9, 7, 2, 2, 3), (5, 9, 3, 0, 2), (3, 4, 4, 2, 1), (40, 5, 4, 1, 5)]
        {
            let s = ConvLayerSpec::new("t", (nx, ny, 40), (f, f), 4, stride, pad).unwrap();
            let all = pallets(&s);
            for keep in [1, 2, 3, 7] {
                let selected: Vec<PalletRef> = all.iter().copied().step_by(keep).collect();
                let want = walk_reads(&s, &selected);
                assert_eq!(
                    visit_reads(&s, &selected),
                    want,
                    "{nx}/{ny}/{stride}/{pad}/{f} 1:{keep}"
                );
            }
            let visits = row_visits(&s, &all);
            let first_rows: Vec<usize> =
                visits.iter().map(|v| v.pallet.wy * stride + v.fy).collect();
            assert!(first_rows.is_sorted(), "input row outer");
        }
    }

    #[test]
    fn column_reads_count_every_lane_and_filter_column() {
        for (nx, stride, pad, f) in
            [(20, 1, 1, 3), (9, 2, 2, 3), (5, 3, 0, 2), (3, 4, 2, 1), (1, 1, 2, 1)]
        {
            let s = ConvLayerSpec::new("t", (nx, 3, 16), (f, f), 4, stride, pad).unwrap();
            let reads = column_reads(&s);
            assert_eq!(reads.len(), s.pallets_per_row());
            for (p, (first, counts)) in pallets(&s).into_iter().zip(&reads) {
                let mut want = vec![0u64; nx];
                for step in brick_steps(&s).into_iter().filter(|st| st.fy == 0 && st.i0 == 0) {
                    for lane in 0..p.lanes {
                        let x = brick_for(&s, p, lane, step).x;
                        if (0..nx as isize).contains(&x) {
                            want[x as usize] += 1;
                        }
                    }
                }
                let mut got = vec![0u64; nx];
                for (k, &n) in counts.iter().enumerate() {
                    got[first + k] = n;
                }
                assert_eq!(got, want, "{nx}/{stride}/{pad}/{f} {p:?}");
            }
        }
    }
}
