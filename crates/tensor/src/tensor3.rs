use crate::shape::Dim3;
use crate::BRICK;

/// A dense 3D array in the accelerator storage layout.
///
/// Elements are stored with `i` fastest, then `x`, then `y`:
/// `index(x, y, i) = (y · Nx + x) · I + i`. A *brick* — [`BRICK`] elements
/// contiguous along `i` — is therefore contiguous in memory, matching how
/// DaDianNao and Pragmatic lay neurons out in the Neuron Memory (§IV-A1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tensor3<T> {
    dim: Dim3,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor3<T> {
    /// Creates a tensor filled with `T::default()`.
    pub fn zeros(dim: impl Into<Dim3>) -> Self {
        let dim = dim.into();
        Self { dim, data: vec![T::default(); dim.len()] }
    }

    /// Creates a tensor by evaluating `f(x, y, i)` for every element.
    pub fn from_fn(dim: impl Into<Dim3>, mut f: impl FnMut(usize, usize, usize) -> T) -> Self {
        let dim = dim.into();
        let mut data = Vec::with_capacity(dim.len());
        for y in 0..dim.y {
            for x in 0..dim.x {
                for i in 0..dim.i {
                    data.push(f(x, y, i));
                }
            }
        }
        Self { dim, data }
    }

    /// Creates a tensor from a flat vector in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != dim.len()`.
    pub fn from_vec(dim: impl Into<Dim3>, data: Vec<T>) -> Self {
        let dim = dim.into();
        assert_eq!(
            data.len(),
            dim.len(),
            "data length {} does not match dimensions {:?}",
            data.len(),
            dim
        );
        Self { dim, data }
    }

    /// The tensor's dimensions.
    pub fn dim(&self) -> Dim3 {
        self.dim
    }

    /// Flat storage-order index of `(x, y, i)`.
    #[inline]
    pub fn index_of(&self, x: usize, y: usize, i: usize) -> usize {
        debug_assert!(x < self.dim.x && y < self.dim.y && i < self.dim.i);
        (y * self.dim.x + x) * self.dim.i + i
    }

    /// Element at `(x, y, i)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize, i: usize) -> T {
        self.data[self.index_of(x, y, i)]
    }

    /// Element at `(x, y, i)`, or `T::default()` (zero) when the spatial
    /// coordinates fall outside the array. This implements zero padding:
    /// `i` must still be in bounds.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim.i`.
    #[inline]
    pub fn get_padded(&self, x: isize, y: isize, i: usize) -> T {
        if x < 0 || y < 0 || x as usize >= self.dim.x || y as usize >= self.dim.y {
            T::default()
        } else {
            self.get(x as usize, y as usize, i)
        }
    }

    /// Sets the element at `(x, y, i)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, i: usize, v: T) {
        let idx = self.index_of(x, y, i);
        self.data[idx] = v;
    }

    /// The brick (up to [`BRICK`] elements along `i`) starting at channel
    /// `i0`, zero-extended to exactly [`BRICK`] elements when it crosses the
    /// end of the channel dimension, and zero-filled entirely when the
    /// spatial coordinates are out of bounds (padding).
    pub fn brick_padded(&self, x: isize, y: isize, i0: usize) -> [T; BRICK] {
        let mut out = [T::default(); BRICK];
        if x < 0 || y < 0 || x as usize >= self.dim.x || y as usize >= self.dim.y {
            return out;
        }
        let (x, y) = (x as usize, y as usize);
        if i0 < self.dim.i {
            let n = (i0 + BRICK).min(self.dim.i) - i0;
            let base = self.index_of(x, y, i0);
            out[..n].copy_from_slice(&self.data[base..base + n]);
        }
        out
    }

    /// Applies `f` to every element, producing a new tensor of the same
    /// shape.
    pub fn map<U: Copy + Default>(&self, mut f: impl FnMut(T) -> U) -> Tensor3<U> {
        Tensor3 { dim: self.dim, data: self.data.iter().map(|&v| f(v)).collect() }
    }
}

impl<T> Tensor3<T> {
    /// Flat view of the underlying storage in layout order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat view of the underlying storage in layout order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns the flat storage vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_i_fastest() {
        let t = Tensor3::from_fn((2, 2, 3), |x, y, i| (x * 100 + y * 10 + i) as u16);
        // (y, x, i) order: (0,0,*), (1,0,*)... wait: x varies before y.
        assert_eq!(t.as_slice()[0], 0); // (0,0,0)
        assert_eq!(t.as_slice()[1], 1); // (0,0,1)
        assert_eq!(t.as_slice()[3], 100); // (1,0,0)
        assert_eq!(t.as_slice()[6], 10); // (0,1,0)
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = Tensor3::<u16>::zeros((3, 4, 5));
        t.set(2, 3, 4, 77);
        assert_eq!(t.get(2, 3, 4), 77);
        assert_eq!(t.get(0, 0, 0), 0);
    }

    #[test]
    fn get_padded_returns_zero_outside() {
        let t = Tensor3::from_fn((2, 2, 1), |_, _, _| 5u16);
        assert_eq!(t.get_padded(-1, 0, 0), 0);
        assert_eq!(t.get_padded(0, -1, 0), 0);
        assert_eq!(t.get_padded(2, 0, 0), 0);
        assert_eq!(t.get_padded(1, 1, 0), 5);
    }

    #[test]
    fn brick_padded_full_brick_is_contiguous() {
        let t = Tensor3::from_fn((1, 1, 32), |_, _, i| i as u16);
        let b = t.brick_padded(0, 0, 16);
        assert_eq!(b[0], 16);
        assert_eq!(b[15], 31);
    }

    #[test]
    fn brick_padded_zero_extends_ragged_depth() {
        let t = Tensor3::from_fn((1, 1, 20), |_, _, i| (i + 1) as u16);
        let b = t.brick_padded(0, 0, 16);
        assert_eq!(&b[..4], &[17, 18, 19, 20]);
        assert_eq!(&b[4..], &[0; 12]);
    }

    #[test]
    fn brick_padded_out_of_bounds_is_zero() {
        let t = Tensor3::from_fn((2, 2, 16), |_, _, _| 9u16);
        assert_eq!(t.brick_padded(-1, 0, 0), [0u16; BRICK]);
        assert_eq!(t.brick_padded(0, 5, 0), [0u16; BRICK]);
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor3::from_fn((2, 3, 4), |x, _, _| x as u16);
        let u = t.map(|v| v as u32 * 2);
        assert_eq!(u.dim(), t.dim());
        assert_eq!(u.get(1, 2, 3), 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = Tensor3::from_vec((2, 2, 2), vec![0u16; 7]);
    }
}
