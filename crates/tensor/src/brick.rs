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
    let mut out = Vec::with_capacity(spec.pallets());
    for wy in 0..spec.out_y() {
        let mut wx0 = 0;
        while wx0 < spec.out_x() {
            let lanes = PALLET.min(spec.out_x() - wx0);
            out.push(PalletRef { wx0, wy, lanes });
            wx0 += PALLET;
        }
    }
    out
}

/// Enumerates the brick steps of a layer: all `(fx, fy, i0)` offsets of the
/// filter volume, `i0` innermost so consecutive steps reuse nearby neurons.
pub fn brick_steps(spec: &ConvLayerSpec) -> Vec<BrickStep> {
    let mut out = Vec::with_capacity(spec.brick_steps());
    for fy in 0..spec.filter.y {
        for fx in 0..spec.filter.x {
            let mut i0 = 0;
            while i0 < spec.input.i {
                out.push(BrickStep { fx, fy, i0 });
                i0 += BRICK;
            }
        }
    }
    out
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
}
