use xbar_tensor::conv::{
    avgpool2d_backward, avgpool2d_forward, maxpool2d_backward, maxpool2d_forward, ConvGeometry,
};
use xbar_tensor::Tensor;

use crate::{Layer, NnError};

/// Max pooling over `k×k` windows.
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (argmax indices, input shape)
}

impl MaxPool2d {
    /// Creates a max-pool layer with window `kernel` and stride `stride`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, NnError> {
        check_window("maxpool", kernel, stride)?;
        Ok(Self {
            kernel,
            stride,
            cache: None,
        })
    }

    /// The common 2×2/stride-2 pool.
    pub fn halving() -> Self {
        Self {
            kernel: 2,
            stride: 2,
            cache: None,
        }
    }
}

/// Rejects a zero pooling window or stride, as `Conv2d::new` does.
fn check_window(layer: &str, kernel: usize, stride: usize) -> Result<(), NnError> {
    if kernel == 0 || stride == 0 {
        return Err(NnError::Config(format!(
            "{layer} kernel and stride must be positive, got kernel {kernel}, stride {stride}"
        )));
    }
    Ok(())
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        format!("maxpool {}x{} s{}", self.kernel, self.kernel, self.stride)
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.ndim() != 4 {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "maxpool",
                format!("expected NCHW, got {:?}", x.shape()),
            )));
        }
        let geom = ConvGeometry::new(
            x.shape()[2],
            x.shape()[3],
            self.kernel,
            self.kernel,
            self.stride,
            0,
        )?;
        let (y, idx) = maxpool2d_forward(x, &geom)?;
        if train {
            self.cache = Some((idx, x.shape().to_vec()));
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let (idx, shape) = self
            .cache
            .take()
            .ok_or_else(|| NnError::State("maxpool backward without forward".into()))?;
        Ok(maxpool2d_backward(grad, &idx, &shape)?)
    }
}

/// Average pooling over `k×k` windows.
#[derive(Clone, Debug)]
pub struct AvgPool2d {
    kernel: usize,
    stride: usize,
    cache: Option<(usize, usize, ConvGeometry)>, // (n, c, geom)
}

impl AvgPool2d {
    /// Creates an average-pool layer with window `kernel` and stride
    /// `stride`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] if `kernel == 0` or `stride == 0`.
    pub fn new(kernel: usize, stride: usize) -> Result<Self, NnError> {
        check_window("avgpool", kernel, stride)?;
        Ok(Self {
            kernel,
            stride,
            cache: None,
        })
    }
}

impl Layer for AvgPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        format!("avgpool {}x{} s{}", self.kernel, self.kernel, self.stride)
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.ndim() != 4 {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "avgpool",
                format!("expected NCHW, got {:?}", x.shape()),
            )));
        }
        let geom = ConvGeometry::new(
            x.shape()[2],
            x.shape()[3],
            self.kernel,
            self.kernel,
            self.stride,
            0,
        )?;
        let y = avgpool2d_forward(x, &geom)?;
        if train {
            self.cache = Some((x.shape()[0], x.shape()[1], geom));
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let (n, c, geom) = self
            .cache
            .take()
            .ok_or_else(|| NnError::State("avgpool backward without forward".into()))?;
        Ok(avgpool2d_backward(grad, n, c, &geom)?)
    }
}

/// Global average pooling: collapses each channel's spatial map to its
/// mean, producing `(batch, channels)` — the classifier head of ResNets.
#[derive(Clone, Debug, Default)]
pub struct GlobalAvgPool {
    input_shape: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn describe(&self) -> String {
        "global-avgpool".into()
    }

    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, NnError> {
        if x.ndim() != 4 {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "global-avgpool",
                format!("expected NCHW, got {:?}", x.shape()),
            )));
        }
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let spatial = h * w;
        let mut y = Tensor::zeros(&[n, c]);
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * spatial;
                let s: f32 = x.data()[base..base + spatial].iter().sum();
                *y.at_mut(&[ni, ci]) = s / spatial as f32;
            }
        }
        if train {
            self.input_shape = Some(x.shape().to_vec());
        }
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let shape = self
            .input_shape
            .take()
            .ok_or_else(|| NnError::State("global-avgpool backward without forward".into()))?;
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if grad.shape() != [n, c] {
            return Err(NnError::Shape(xbar_tensor::ShapeError::new(
                "global-avgpool backward",
                format!("expected ({n}, {c}), got {:?}", grad.shape()),
            )));
        }
        let spatial = (h * w) as f32;
        let mut out = Tensor::zeros(&shape);
        for ni in 0..n {
            for ci in 0..c {
                let share = grad.at(&[ni, ci]) / spatial;
                let base = (ni * c + ci) * (h * w);
                for v in &mut out.data_mut()[base..base + h * w] {
                    *v = share;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_halves_spatial_dims() {
        let mut p = MaxPool2d::halving();
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let g = p.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn avgpool_averages() {
        let mut p = AvgPool2d::new(2, 2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[4.0]);
        let g = p
            .backward(&Tensor::from_vec(vec![4.0], &[1, 1, 1, 1]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn global_avgpool_and_backward() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec((1..=8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 6.5]);
        let g = p
            .backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]).unwrap())
            .unwrap();
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn pools_reject_non_4d() {
        assert!(MaxPool2d::halving()
            .forward(&Tensor::zeros(&[4, 4]), true)
            .is_err());
        assert!(AvgPool2d::new(2, 2)
            .unwrap()
            .forward(&Tensor::zeros(&[4, 4]), true)
            .is_err());
        assert!(GlobalAvgPool::new()
            .forward(&Tensor::zeros(&[4, 4]), true)
            .is_err());
    }

    #[test]
    fn zero_window_or_stride_is_a_config_error() {
        for (kernel, stride) in [(0, 2), (2, 0)] {
            let max = MaxPool2d::new(kernel, stride);
            assert!(matches!(max, Err(NnError::Config(_))), "{max:?}");
            let avg = AvgPool2d::new(kernel, stride);
            assert!(matches!(avg, Err(NnError::Config(_))), "{avg:?}");
        }
        let halving = MaxPool2d::new(2, 2).unwrap();
        assert_eq!(halving.describe(), MaxPool2d::halving().describe());
    }

    #[test]
    fn input_smaller_than_the_window_is_a_shape_error() {
        let x = Tensor::zeros(&[1, 1, 1, 1]);
        let max = MaxPool2d::halving().forward(&x, true);
        assert!(matches!(max, Err(NnError::Shape(_))), "{max:?}");
        let avg = AvgPool2d::new(2, 2).unwrap().forward(&x, true);
        assert!(matches!(avg, Err(NnError::Shape(_))), "{avg:?}");
    }

    #[test]
    fn backward_requires_forward() {
        assert!(MaxPool2d::halving()
            .backward(&Tensor::zeros(&[1, 1, 1, 1]))
            .is_err());
        assert!(AvgPool2d::new(2, 2)
            .unwrap()
            .backward(&Tensor::zeros(&[1, 1, 1, 1]))
            .is_err());
        assert!(GlobalAvgPool::new()
            .backward(&Tensor::zeros(&[1, 1]))
            .is_err());
    }
}
