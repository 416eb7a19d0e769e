//! Tensor shapes: dimension lists with row-major stride math.

use std::fmt;

/// The dimensions of a [`crate::Tensor`], outermost first.
///
/// A scalar has an empty dimension list. Shapes are cheap to clone (they are
/// rarely more than 4 elements) and compare by value.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// Returns the dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions (rank). Scalars have rank 0.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements. The empty (scalar) shape has one element.
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Flat row-major offset of a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.0.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.0.len()
        );
        let mut off = 0;
        let mut stride = 1;
        for d in (0..self.0.len()).rev() {
            assert!(
                index[d] < self.0[d],
                "index {} out of bounds for dim {} of size {}",
                index[d],
                d,
                self.0[d]
            );
            off += index[d] * stride;
            stride *= self.0[d];
        }
        off
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape() {
        let s = Shape::new(Vec::new());
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn numel_and_strides() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.numel(), 24);
        // Row-major strides: each unit step's flat offset.
        let strides: Vec<usize> = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            .iter()
            .map(|i| s.offset(i))
            .collect();
        assert_eq!(strides, vec![12, 4, 1]);
    }

    #[test]
    fn offset_row_major() {
        let s = Shape::from([2, 3]);
        assert_eq!(s.offset(&[0, 0]), 0);
        assert_eq!(s.offset(&[0, 2]), 2);
        assert_eq!(s.offset(&[1, 0]), 3);
        assert_eq!(s.offset(&[1, 2]), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_out_of_bounds_panics() {
        Shape::from([2, 3]).offset(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn offset_rank_mismatch_panics() {
        Shape::from([2, 3]).offset(&[1]);
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::from([2, 3]).to_string(), "(2, 3)");
        assert_eq!(Shape::new(Vec::new()).to_string(), "()");
    }
}
