use crate::error::ShapeError;
use crate::tensor3::Tensor3;
use crate::BRICK;

/// Dimensions of a 3D neuron array: `x` (width), `y` (height) and `i`
/// (channels / depth). The paper writes the input array as `Nx × Ny × I`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Extent along the `x` (width) dimension.
    pub x: usize,
    /// Extent along the `y` (height) dimension.
    pub y: usize,
    /// Extent along the `i` (channel) dimension.
    pub i: usize,
}

impl Dim3 {
    /// Creates a new dimension triple.
    pub const fn new(x: usize, y: usize, i: usize) -> Self {
        Self { x, y, i }
    }

    /// Total number of elements `x * y * i`.
    pub const fn len(&self) -> usize {
        self.x * self.y * self.i
    }

    /// [`Dim3::len`], or `None` when the product overflows — for
    /// dimensions read from untrusted bytes.
    pub fn checked_len(&self) -> Option<usize> {
        self.x.checked_mul(self.y)?.checked_mul(self.i)
    }

    /// Whether the array holds no elements.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bricks along the `i` dimension, `ceil(i / 16)`.
    pub const fn bricks_deep(&self) -> usize {
        self.i.div_ceil(BRICK)
    }
}

impl From<(usize, usize, usize)> for Dim3 {
    fn from((x, y, i): (usize, usize, usize)) -> Self {
        Self { x, y, i }
    }
}

/// Spatial dimensions of a filter (`Fx × Fy`); the channel depth always
/// equals the input depth `I`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterDim {
    /// Filter extent along `x`.
    pub x: usize,
    /// Filter extent along `y`.
    pub y: usize,
}

impl From<(usize, usize)> for FilterDim {
    fn from((x, y): (usize, usize)) -> Self {
        Self { x, y }
    }
}

/// Geometry of one convolutional layer (§IV-A).
///
/// The layer applies `num_filters` 3D filters of `filter.x × filter.y × input.i`
/// synapses over the input in a sliding-window fashion with constant
/// `stride`, producing an `Ox × Oy × N` output where
/// `Ox = (Nx − Fx + 2·pad)/S + 1` and `Oy = (Ny − Fy + 2·pad)/S + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvLayerSpec {
    name: String,
    /// Input neuron array dimensions `Nx × Ny × I`.
    pub input: Dim3,
    /// Spatial filter dimensions `Fx × Fy`.
    pub filter: FilterDim,
    /// Number of filters `N` (= output depth).
    pub num_filters: usize,
    /// Sliding-window stride `S`.
    pub stride: usize,
    /// Symmetric zero padding applied to both spatial dimensions.
    pub padding: usize,
}

impl ConvLayerSpec {
    /// Creates a layer spec, validating that the geometry is consistent.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the stride is zero, any dimension is zero,
    /// or the (padded) input is smaller than the filter.
    pub fn new(
        name: impl Into<String>,
        input: impl Into<Dim3>,
        filter: impl Into<FilterDim>,
        num_filters: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, ShapeError> {
        let input = input.into();
        let filter = filter.into();
        if stride == 0 {
            return Err(ShapeError::new("stride must be non-zero"));
        }
        if input.is_empty() {
            return Err(ShapeError::new("input dimensions must be non-zero"));
        }
        if filter.x == 0 || filter.y == 0 || num_filters == 0 {
            return Err(ShapeError::new("filter dimensions must be non-zero"));
        }
        if input.x + 2 * padding < filter.x || input.y + 2 * padding < filter.y {
            return Err(ShapeError::new(format!(
                "padded input {}x{} smaller than filter {}x{}",
                input.x + 2 * padding,
                input.y + 2 * padding,
                filter.x,
                filter.y
            )));
        }
        Ok(Self { name: name.into(), input, filter, num_filters, stride, padding })
    }

    /// The layer's human-readable name (e.g. `"conv2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A fully-connected layer expressed as a degenerate convolution: one
    /// 1×1 window over an `inputs`-deep column, `outputs` filters. The
    /// paper's accelerators (and this reproduction's models) handle it,
    /// but with a single window there is no pallet parallelism, which is
    /// why Pragmatic targets convolutional layers (§I: they are >92% of
    /// execution time).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `inputs` or `outputs` is zero.
    pub fn fully_connected(
        name: impl Into<String>,
        inputs: usize,
        outputs: usize,
    ) -> Result<Self, ShapeError> {
        Self::new(name, (1, 1, inputs), (1, 1), outputs, 1, 0)
    }

    /// Output width `Ox = (Nx − Fx + 2·pad)/S + 1`.
    pub fn out_x(&self) -> usize {
        (self.input.x + 2 * self.padding - self.filter.x) / self.stride + 1
    }

    /// Output height `Oy = (Ny − Fy + 2·pad)/S + 1`.
    pub fn out_y(&self) -> usize {
        (self.input.y + 2 * self.padding - self.filter.y) / self.stride + 1
    }

    /// Output dimensions `Ox × Oy × N`.
    pub fn output_dim(&self) -> Dim3 {
        Dim3::new(self.out_x(), self.out_y(), self.num_filters)
    }

    /// Number of output windows `Ox × Oy` (one output neuron per window and
    /// filter).
    pub fn windows(&self) -> usize {
        self.out_x() * self.out_y()
    }

    /// Number of synapses per filter, `Fx × Fy × I`.
    pub fn synapses_per_filter(&self) -> usize {
        self.filter.x * self.filter.y * self.input.i
    }

    /// Total multiplications performed by the layer:
    /// `Ox·Oy·Fx·Fy·I·N` (each window × filter inner product).
    pub fn multiplications(&self) -> u64 {
        self.windows() as u64 * self.synapses_per_filter() as u64 * self.num_filters as u64
    }

    /// Number of brick steps per window: `Fx × Fy × ceil(I/16)`.
    ///
    /// A *brick step* is the unit of work DaDianNao performs per cycle per
    /// window (one 16-deep slice of the filter volume) and the unit at which
    /// Pragmatic's neuron lanes synchronize.
    pub fn brick_steps(&self) -> usize {
        self.filter.x * self.filter.y * self.input.i.div_ceil(BRICK)
    }

    /// Number of pallets per output row, `ceil(Ox / 16)`; windows are
    /// grouped into pallets of 16 adjacent windows along `x` (§IV-A1).
    pub fn pallets_per_row(&self) -> usize {
        self.out_x().div_ceil(crate::PALLET)
    }

    /// Total number of pallets, `Oy × ceil(Ox / 16)`.
    pub fn pallets(&self) -> usize {
        self.out_y() * self.pallets_per_row()
    }

    /// Builds the filter bank as a [`Tensor3`] per filter using a generator
    /// function `(filter, x, y, i) -> synapse`.
    pub fn filters_from_fn<T: Copy + Default>(
        &self,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Vec<Tensor3<T>> {
        let fdim = Dim3::new(self.filter.x, self.filter.y, self.input.i);
        (0..self.num_filters).map(|n| Tensor3::from_fn(fdim, |x, y, i| f(n, x, y, i))).collect()
    }

    /// Coordinates of the input-space origin (top-left, first channel) of
    /// window `(wx, wy)`; may be negative when padding is used.
    pub fn window_origin(&self, wx: usize, wy: usize) -> (isize, isize) {
        (
            wx as isize * self.stride as isize - self.padding as isize,
            wy as isize * self.stride as isize - self.padding as isize,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(
        input: (usize, usize, usize),
        f: (usize, usize),
        n: usize,
        s: usize,
        p: usize,
    ) -> ConvLayerSpec {
        ConvLayerSpec::new("t", input, f, n, s, p).unwrap()
    }

    #[test]
    fn output_dims_alexnet_conv1() {
        // AlexNet conv1: 227x227x3 input, 11x11 filters, stride 4 -> 55x55.
        let l = spec((227, 227, 3), (11, 11), 96, 4, 0);
        assert_eq!(l.out_x(), 55);
        assert_eq!(l.out_y(), 55);
        assert_eq!(l.output_dim(), Dim3::new(55, 55, 96));
    }

    #[test]
    fn output_dims_with_padding() {
        // 13x13 input, 3x3 filter, pad 1, stride 1 -> 13x13 (same).
        let l = spec((13, 13, 256), (3, 3), 384, 1, 1);
        assert_eq!(l.output_dim(), Dim3::new(13, 13, 384));
    }

    #[test]
    fn multiplication_count() {
        let l = spec((4, 4, 16), (3, 3), 2, 1, 0);
        // 2x2 windows, 3*3*16 synapses per filter, 2 filters.
        assert_eq!(l.multiplications(), 4 * 144 * 2);
    }

    #[test]
    fn brick_steps_rounds_up_partial_bricks() {
        let l = spec((4, 4, 17), (3, 3), 2, 1, 0);
        assert_eq!(l.brick_steps(), 3 * 3 * 2);
        let l = spec((4, 4, 3), (3, 3), 2, 1, 0);
        assert_eq!(l.brick_steps(), 3 * 3);
    }

    #[test]
    fn pallets_round_up_partial_rows() {
        let l = spec((36, 4, 16), (3, 3), 2, 1, 0); // Ox = 34
        assert_eq!(l.pallets_per_row(), 3);
        assert_eq!(l.pallets(), 3 * l.out_y());
    }

    #[test]
    fn window_origin_accounts_for_padding_and_stride() {
        let l = spec((13, 13, 16), (3, 3), 2, 2, 1);
        assert_eq!(l.window_origin(0, 0), (-1, -1));
        assert_eq!(l.window_origin(2, 1), (3, 1));
    }

    #[test]
    fn zero_stride_rejected() {
        assert!(ConvLayerSpec::new("t", (4, 4, 16), (3, 3), 2, 0, 0).is_err());
    }

    #[test]
    fn filter_larger_than_padded_input_rejected() {
        assert!(ConvLayerSpec::new("t", (4, 4, 16), (7, 7), 2, 1, 1).is_err());
    }

    #[test]
    fn zero_dims_rejected() {
        assert!(ConvLayerSpec::new("t", (0, 4, 16), (3, 3), 2, 1, 0).is_err());
        assert!(ConvLayerSpec::new("t", (4, 4, 16), (0, 3), 2, 1, 0).is_err());
        assert!(ConvLayerSpec::new("t", (4, 4, 16), (3, 3), 0, 1, 0).is_err());
    }

    #[test]
    fn dim3_bricks_deep() {
        assert_eq!(Dim3::new(1, 1, 16).bricks_deep(), 1);
        assert_eq!(Dim3::new(1, 1, 17).bricks_deep(), 2);
        assert_eq!(Dim3::new(1, 1, 3).bricks_deep(), 1);
    }

    #[test]
    fn filters_from_fn_builds_all_filters() {
        let l = spec((4, 4, 4), (2, 2), 3, 1, 0);
        let filters = l.filters_from_fn(|n, x, y, i| (n * 1000 + x * 100 + y * 10 + i) as i16);
        assert_eq!(filters.len(), 3);
        assert_eq!(filters[2].get(1, 1, 3), 2113);
    }
}
