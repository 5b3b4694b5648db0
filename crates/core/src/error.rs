use std::error::Error;
use std::fmt;

use xbar_tensor::ShapeError;

/// Errors from mapping construction, validation, and decomposition.
#[derive(Debug, Clone, PartialEq)]
pub enum MappingError {
    /// A tensor shape was incompatible with the operation.
    Shape(ShapeError),
    /// The candidate periphery matrix violates one of the paper's
    /// sufficient conditions (Sec. III-C).
    InvalidPeriphery {
        /// Which condition failed, in human-readable form.
        reason: String,
    },
    /// The signed matrix cannot be represented with non-negative
    /// conductances in the device range under the chosen mapping
    /// (e.g. a BC weight outside `[−G_max/2, G_max/2]`).
    NotRepresentable {
        /// Which mapping rejected the matrix.
        mapping: &'static str,
        /// Human-readable detail (offending value / bound).
        detail: String,
    },
    /// An input tensor contained NaN or ±Inf. Analog crossbar hardware has
    /// no representation for these; letting them through would silently
    /// poison every downstream accumulation.
    NonFiniteInput {
        /// The operation that rejected the input.
        op: &'static str,
    },
    /// A stuck-at fault map was supplied for an array of a different
    /// shape.
    FaultMapMismatch {
        /// `(rows, cols)` of the conductance matrix being programmed.
        expected: (usize, usize),
        /// `(rows, cols)` of the offending fault map.
        got: (usize, usize),
    },
    /// The array configuration cannot run the requested operation (e.g.
    /// the quantized readout on a device without a bit width ≤ 8).
    Unsupported {
        /// The operation that was refused.
        op: &'static str,
        /// Why, in human-readable form.
        reason: String,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape(e) => write!(f, "{e}"),
            Self::InvalidPeriphery { reason } => {
                write!(f, "invalid periphery matrix: {reason}")
            }
            Self::NotRepresentable { mapping, detail } => {
                write!(
                    f,
                    "matrix not representable under {mapping} mapping: {detail}"
                )
            }
            Self::NonFiniteInput { op } => {
                write!(f, "{op}: input contains NaN or infinite values")
            }
            Self::FaultMapMismatch { expected, got } => {
                write!(
                    f,
                    "fault map shape {}x{} does not match array shape {}x{}",
                    got.0, got.1, expected.0, expected.1
                )
            }
            Self::Unsupported { op, reason } => {
                write!(f, "{op}: unsupported configuration: {reason}")
            }
        }
    }
}

impl Error for MappingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for MappingError {
    fn from(e: ShapeError) -> Self {
        Self::Shape(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = MappingError::InvalidPeriphery {
            reason: "rank deficient".into(),
        };
        assert!(e.to_string().contains("rank deficient"));

        let e = MappingError::NotRepresentable {
            mapping: "BC",
            detail: "weight 0.9 exceeds 0.5".into(),
        };
        assert!(e.to_string().contains("BC"));

        let e = MappingError::from(ShapeError::new("compose", "bad dims"));
        assert!(e.to_string().contains("compose"));

        let e = MappingError::NonFiniteInput {
            op: "remap_for_faults",
        };
        assert!(e.to_string().contains("remap_for_faults"));
        assert!(e.to_string().contains("NaN"));

        let e = MappingError::FaultMapMismatch {
            expected: (3, 4),
            got: (5, 6),
        };
        assert!(e.to_string().contains("5x6"));
        assert!(e.to_string().contains("3x4"));
    }

    #[test]
    fn shape_error_preserves_source() {
        let e = MappingError::from(ShapeError::new("x", "y"));
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MappingError>();
    }
}
